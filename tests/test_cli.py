import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from autojacobin import matrix_io, tangent, trainer
from autojacobin.cli import _cached_groundtruth, _train_model, build_parser, main
from autojacobin.network import GradientSet

pytestmark = pytest.mark.filterwarnings(
    "ignore:training data rank below bit count")


def _write_data(tmp_path, name, D=6, n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((D, n))
    path = tmp_path / name
    matrix_io.write_fvecs(path, X)
    return path, X


def test_convert_fvecs_to_txt(tmp_path):
    src, X = _write_data(tmp_path, "a.fvecs")
    dst = tmp_path / "a.txt"
    assert main(["convert", "--input", str(src), "--output", str(dst)]) == 0
    np.testing.assert_allclose(matrix_io.read_txt(dst), X, atol=1e-6)
    assert (tmp_path / "a.txt.manifest.json").exists()


def test_train_encode_eval_pipeline(tmp_path):
    base_path, base = _write_data(tmp_path, "base.fvecs", n=300, seed=1)
    query_path, _ = _write_data(tmp_path, "query.fvecs", n=10, seed=2)
    model = tmp_path / "m.ajb"
    trace = tmp_path / "trace.csv"
    assert main(["train", "--input", str(base_path), "--bits", "6",
                 "--epochs", "2", "--batch", "150", "--seed", "3",
                 "--out", str(model), "--trace", str(trace)]) == 0
    p = matrix_io.read_model(model)
    assert p.w1.shape == (6, 6)
    assert trace.read_text().startswith("iteration,total,recon,jacobian,binary")

    codes_path = tmp_path / "base.ajbc"
    assert main(["encode", "--model", str(model), "--input", str(base_path),
                 "--out", str(codes_path)]) == 0
    codes = matrix_io.read_codes(codes_path)
    assert codes.count == 300 and codes.bits == 6

    out_dir = tmp_path / "eval"
    assert main(["eval", "--model", str(model), "--base", str(base_path),
                 "--query", str(query_path), "--k", "1,5",
                 "--max-retrieve", "300", "--out-dir", str(out_dir)]) == 0
    for k in (1, 5):
        lines = (out_dir / f"recall_k{k}.csv").read_text().strip().splitlines()
        assert lines[0] == "i,recall"
        assert lines[-1].startswith("m_recall,")
        assert len(lines) == 302  # header + 300 rows + summary
        # recall at K = N must be 1
        assert float(lines[-2].split(",")[1]) == pytest.approx(1.0)
    summary = (out_dir / "m_recall.csv").read_text().strip().splitlines()
    assert summary[0] == "k,m_recall"
    assert len(summary) == 3


def test_train_summary_reports_tangent_ranks_and_weight(tmp_path, capsys):
    base_path, _ = _write_data(tmp_path, "t.fvecs", n=80, seed=7)
    assert main(["train", "--input", str(base_path), "--bits", "4",
                 "--epochs", "1", "--batch", "80", "--iterations", "2",
                 "--out", str(tmp_path / "t.ajb")]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    Xn = matrix_io.read_fvecs(base_path)
    Xn = matrix_io.apply_normalizer(matrix_io.fit_normalizer(Xn), Xn)
    bases = tangent.estimate_all_tangents(Xn, 4)
    ranks = [t.rank for t in bases]
    assert line.startswith("trained auto-jacobin: ")
    assert line.endswith(
        f"; tangent rank min/mean/max {min(ranks)}/{np.mean(ranks):.1f}/{max(ranks)}, "
        f"Jacobian weight {tangent.region_variance(bases):.3g}")
    capsys.readouterr()
    main(["train", "--input", str(base_path), "--bits", "4", "--method", "autobin",
          "--epochs", "1", "--batch", "80", "--iterations", "2",
          "--out", str(tmp_path / "a.ajb")])
    assert "tangent rank" not in capsys.readouterr().out


def test_train_holds_the_tangent_bases_once():
    # the bases are estimated into the (N, D, r) stack that training
    # reads, and no list of them is kept beside it; with one, the peak
    # passed 2x the bases. The rest is the batches' rows of the stack
    # (0.25x), the normalized and shuffled data and the kNN's indices
    N, D, bits = 8000, 16, 8
    X = np.random.default_rng(8).standard_normal((D, N))
    args = build_parser().parse_args([
        "train", "--input", "x.fvecs", "--out", "x.ajb", "--bits", str(bits),
        "--batch", str(N // 4), "--epochs", "1", "--iterations", "2"])
    tracemalloc.start()
    try:
        _, report = _train_model(X, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bases = 8 * D * sum(report.tangent_ranks)
    assert bases == 8 * D * bits * N  # every rank at the cap
    assert peak < 2.0 * bases, (peak, bases)


def test_train_saves_the_accepted_parameters_when_the_search_fails(
        tmp_path, monkeypatch, capsys):
    base_path, _ = _write_data(tmp_path, "f.fvecs", n=120, seed=9)
    argv = ["train", "--input", str(base_path), "--bits", "4", "--epochs", "3",
            "--batch", "60", "--seed", "2"]
    objective, calls = trainer.objective, []

    def counting(*args, **kwargs):
        calls.append(None)
        return objective(*args, **kwargs)

    monkeypatch.setattr(trainer, "objective", counting)
    ref = tmp_path / "ref.ajb"
    assert main(argv + ["--iterations", "3", "--out", str(ref)]) == 0
    finite = len(calls)  # the evaluations of three iterations

    def non_finite_after_three_iterations(*args, **kwargs):
        calls.append(None)
        total, parts, g = objective(*args, **kwargs)
        if len(calls) <= finite:
            return total, parts, g
        return np.nan, parts, GradientSet(g.dw1 * np.nan, g.dw2, g.db1, g.db2)

    monkeypatch.setattr(trainer, "objective", non_finite_after_three_iterations)
    calls.clear()
    capsys.readouterr()
    out = tmp_path / "m.ajb"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "training stopped early at iteration 4: non-finite directional derivative" in err
    assert out.read_bytes() == ref.read_bytes()  # the parameters after iteration 3
    assert json.loads((tmp_path / "m.ajb.manifest.json").read_text())["command"] == "train"


def test_groundtruth_cache_name_is_pinned(tmp_path):
    # the name hashes the C-order bytes of base and queries whatever their
    # layout (read_txt returns F order), so existing .ajbg caches stay valid
    base = np.asfortranarray(np.arange(24, dtype=float).reshape(6, 4) / 8.0)
    queries = np.arange(12, dtype=float).reshape(6, 2)[:, ::-1]
    gt = _cached_groundtruth(tmp_path / "base.txt", base, queries, 2)
    cache = tmp_path / "base.txt.7b68be9781ef.k2.ajbg"
    assert cache.exists()
    np.testing.assert_array_equal(matrix_io.read_groundtruth(cache), gt)


def test_train_lsh_and_variant_methods(tmp_path):
    base_path, _ = _write_data(tmp_path, "b.fvecs", n=120, seed=4)
    for method in ("lsh", "autobin", "cautobin", "dautobin"):
        model = tmp_path / f"{method}.ajb"
        assert main(["train", "--input", str(base_path), "--bits", "4",
                     "--method", method, "--epochs", "1", "--batch", "60",
                     "--out", str(model)]) == 0
        assert matrix_io.read_model(model).w1.shape == (4, 6)


def test_eval_rejects_oversized_k(tmp_path):
    base_path, _ = _write_data(tmp_path, "c.fvecs", n=50, seed=5)
    model = tmp_path / "m.ajb"
    main(["train", "--input", str(base_path), "--bits", "4", "--method", "lsh",
          "--out", str(model)])
    with pytest.raises(SystemExit):
        main(["eval", "--model", str(model), "--base", str(base_path),
              "--query", str(base_path), "--max-retrieve", "51",
              "--out-dir", str(tmp_path / "e")])


def test_gradcheck_exit_codes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    assert main(["gradcheck", "--method", "cautobin"]) == 0
    assert "contractive" in capsys.readouterr().out


def test_toy_small_run(tmp_path):
    out_dir = tmp_path / "toy"
    assert main(["toy", "--points", "120", "--epochs", "3", "--batch", "60",
                 "--out-dir", str(out_dir)]) == 0
    lines = (out_dir / "toy_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "phase,distinct_codes,mean_abs_hidden"
    assert lines[1].startswith("init,") and lines[2].startswith("trained,")
    assert (out_dir / "toy.ajb").exists()
    assert matrix_io.read_codes(out_dir / "toy.ajbc").count == 120
    assert (out_dir / "toy_trace.csv").exists()


def test_plot_from_recall_csv(tmp_path):
    csv = tmp_path / "recall_k1.csv"
    csv.write_text("i,recall\n1,0.1\n2,0.4\n3,0.9\nm_recall,0.466\n")
    out = tmp_path / "chart.svg"
    assert main(["plot", "--out", str(out), str(csv)]) == 0
    svg = out.read_text()
    assert svg.count("<polyline") == 1
    assert "recall_k1" in svg
    # summary row skipped, three data points plotted
    assert svg == svgplot_rerender(csv, out)


def svgplot_rerender(csv, out):
    main(["plot", "--out", str(out), str(csv)])
    return out.read_text()


def test_plot_empty_csv_errors(tmp_path):
    bad = tmp_path / "empty.csv"
    bad.write_text("")
    with pytest.raises(SystemExit):
        main(["plot", "--out", str(tmp_path / "x.svg"), str(bad)])


def test_config_file_defaults_and_override(tmp_path):
    base_path, _ = _write_data(tmp_path, "d.fvecs", n=60, seed=6)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bits=4\nmethod=lsh\nseed=9\n")
    model = tmp_path / "m.ajb"
    assert main(["--config", str(cfg), "train", "--input", str(base_path),
                 "--out", str(model)]) == 0
    from autojacobin.variants import lsh_generate
    ref = lsh_generate(6, 4, 9)
    np.testing.assert_array_equal(matrix_io.read_model(model).w1, ref.w1)

    # command-line flag wins over the config value
    model2 = tmp_path / "m2.ajb"
    assert main(["--config", str(cfg), "train", "--input", str(base_path),
                 "--seed", "11", "--out", str(model2)]) == 0
    ref2 = lsh_generate(6, 4, 11)
    np.testing.assert_array_equal(matrix_io.read_model(model2).w1, ref2.w1)


def test_manifest_contents(tmp_path):
    base_path, _ = _write_data(tmp_path, "e.fvecs", n=60, seed=7)
    model = tmp_path / "m.ajb"
    main(["train", "--input", str(base_path), "--bits", "4", "--method", "lsh",
          "--seed", "5", "--out", str(model)])
    doc = json.loads((tmp_path / "m.ajb.manifest.json").read_text())
    assert doc["tool"] == "autojacobin"
    assert doc["command"] == "train"
    assert doc["flags"]["seed"] == 5
    assert doc["flags"]["bits"] == 4


def test_console_entry_point(tmp_path):
    r = subprocess.run([sys.executable, "-m", "autojacobin.cli", "gradcheck",
                        "--dims", "5", "--bits", "3", "--points", "3"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "total" in r.stdout

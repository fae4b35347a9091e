import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import autojacobin
from autojacobin import cli, hamming, matrix_io, parallel, synth, tangent, trainer
from autojacobin.cli import _cached_groundtruth, _groundtruth_cache, main
from autojacobin.network import forward_batch, unpack_params

pytestmark = pytest.mark.filterwarnings(
    "ignore:training data rank below bit count")


def _write_data(tmp_path, name, D=6, n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((D, n)).T
    path = tmp_path / name
    matrix_io.write_fvecs(path, X)
    return path, X


def test_convert_fvecs_to_txt(tmp_path, capsys):
    src, X = _write_data(tmp_path, "a.fvecs")
    dst = tmp_path / "a.txt"
    assert main(["convert", "--input", str(src), "--output", str(dst)]) == 0
    assert capsys.readouterr().out.endswith(f" -> {dst} (80x6)\n")  # N x D
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
    Xn = Xn * matrix_io.fit_normalizer(Xn)
    bases = tangent.estimate_all_tangents(Xn, 4)
    ranks = [t.rank for t in bases]
    assert line.startswith("trained auto-jacobin: ")
    assert line.endswith(
        f"; tangent rank min/mean/max {min(ranks)}/{np.mean(ranks):.1f}/{max(ranks)}, "
        f"Jacobian weight {bases.region_variance:.3g}")
    capsys.readouterr()
    main(["train", "--input", str(base_path), "--bits", "4", "--method", "autobin",
          "--epochs", "1", "--batch", "80", "--iterations", "2",
          "--out", str(tmp_path / "a.ajb")])
    assert "tangent rank" not in capsys.readouterr().out


def test_train_holds_the_tangent_bases_once():
    # the bases are estimated into the (N, r, D) stack that training
    # reads in place, and no list of them is kept beside it; with one, the
    # peak passed 2x the bases. The rest is the kNN's indices and block
    # distances and the Jacobian term's 64-point chunk arrays (fit scales
    # the data in place): 1.28x on numpy 2.4. A batch-sized gather of
    # the stack's rows (0.25x) would pass 1.6x
    N, D, bits = 8000, 16, 8
    X = np.random.default_rng(8).standard_normal((D, N)).T
    cfg = trainer.TrainConfig(bits=bits, epochs=1, batch_size=N // 4,
                              total_iterations=2)
    tracemalloc.start()
    try:
        _, report = trainer.fit(X, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bases = 8 * D * sum(report.tangent_ranks)
    assert bases == 8 * D * bits * N  # every rank at the cap
    assert peak < 1.6 * bases, (peak, bases)


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
    ref, ref_trace = tmp_path / "ref.ajb", tmp_path / "ref.csv"
    assert main(argv + ["--iterations", "3", "--out", str(ref),
                        "--trace", str(ref_trace)]) == 0
    finite = len(calls)  # the evaluations of three iterations

    def non_finite_after_three_iterations(*args, **kwargs):
        calls.append(None)
        total, parts, g = objective(*args, **kwargs)
        if len(calls) <= finite:
            return total, parts, g
        unpack_params(g, args[0]).w1[...] *= np.nan  # the W1 block of the gradient
        return np.nan, parts, g

    monkeypatch.setattr(trainer, "objective", non_finite_after_three_iterations)
    calls.clear()
    capsys.readouterr()
    out, trace = tmp_path / "m.ajb", tmp_path / "m.csv"
    assert main(argv + ["--out", str(out), "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "training stopped early at iteration 4: non-finite directional derivative" in err
    assert out.read_bytes() == ref.read_bytes()  # the parameters after iteration 3
    # the cost trace of the iterations before the failed one
    assert [line.split(",")[0] for line in trace.read_text().splitlines()[1:]] == ["1", "2", "3"]
    assert trace.read_bytes() == ref_trace.read_bytes()
    assert json.loads((tmp_path / "m.ajb.manifest.json").read_text())["command"] == "train"


def test_groundtruth_cache_name_is_pinned(tmp_path):
    # the name hashes the C-order bytes of the (N, D) base and (Q, D)
    # queries whatever their layout, here F order and reversed rows, so
    # existing .ajbg caches stay valid
    base = np.asfortranarray(np.arange(24, dtype=float).reshape(4, 6) / 8.0)
    queries = np.arange(12, dtype=float).reshape(2, 6)[::-1]
    gt = _cached_groundtruth(base, queries, 2,
                             _groundtruth_cache(tmp_path / "base.txt", base, queries, 2))
    cache = tmp_path / "base.txt.265298211189.k2.ajbg"
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


@pytest.mark.parametrize("K", ["0", "-3"])
def test_eval_rejects_max_retrieve_below_one(tmp_path, K, capsys):
    base_path, _ = _write_data(tmp_path, "c.fvecs", n=50, seed=5)
    model = tmp_path / "m.ajb"
    main(["train", "--input", str(base_path), "--bits", "4", "--method", "lsh",
          "--out", str(model)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(model), "--base", str(base_path),
              "--query", str(base_path), "--max-retrieve", K,
              "--out-dir", str(tmp_path / "e")])
    assert exc.value.code == 2
    assert f"argument --max-retrieve: must be at least 1, got {K}" in \
        capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("method", ["auto-jacobin", "autobin", "dautobin", "cautobin"])
def test_train_rejects_more_bits_than_dimensions_before_any_work(tmp_path, monkeypatch,
                                                                 method):
    base_path, _ = _write_data(tmp_path, "b.fvecs", D=8, n=100, seed=3)
    model = tmp_path / "m.ajb"

    def no_fit(*args, **kwargs):
        raise AssertionError("fit called")

    monkeypatch.setattr(cli, "fit", no_fit)
    with pytest.raises(SystemExit, match="--bits 12 exceeds the dimension D=8"):
        main(["train", "--input", str(base_path), "--bits", "12", "--method", method,
              "--out", str(model)])
    assert not model.exists()


@pytest.mark.parametrize("method, n, least", [
    ("autobin", 5, 9), ("autobin", 8, 9), ("dautobin", 8, 9), ("cautobin", 8, 9),
    ("auto-jacobin", 23, 24)])  # more than d points, and D+d for the tangents
def test_train_rejects_too_few_points_before_any_work(tmp_path, monkeypatch, method, n,
                                                      least):
    base_path, _ = _write_data(tmp_path, "b.fvecs", D=16, n=n, seed=3)
    model = tmp_path / "m.ajb"

    def no_fit(*args, **kwargs):
        raise AssertionError("fit called")

    monkeypatch.setattr(cli, "fit", no_fit)
    with pytest.raises(SystemExit, match=f"--method {method} --bits 8 needs at least "
                                         f"{least} training points, {base_path} has {n}"):
        main(["train", "--input", str(base_path), "--bits", "8", "--method", method,
              "--out", str(model)])
    assert not model.exists()


@pytest.mark.parametrize("method", ["auto-jacobin", "autobin", "lsh"])
def test_train_on_all_zero_input_is_one_line_and_writes_no_model(tmp_path, method):
    zero = tmp_path / "zero.fvecs"
    matrix_io.write_fvecs(zero, np.zeros((40, 6)))
    model = tmp_path / "m.ajb"
    r = subprocess.run([sys.executable, "-m", "autojacobin.cli", "train", "--input",
                        str(zero), "--bits", "4", "--method", method, "--out", str(model)],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr.splitlines() == [f"{zero}: all-zero training matrix"]
    assert not model.exists()


@pytest.mark.parametrize("method", ["lsh", "autobin"])
@pytest.mark.parametrize("value,what", [("1e200", "overflow"), ("1e-200", "underflow")])
def test_train_on_norms_past_float64_is_one_line_and_writes_no_model(
        tmp_path, capsys, method, value, what):
    # overflowing norms gave an LSH model of scale 0.0 and an autobin
    # model trained on zeros; underflowing ones read as all-zero
    data = tmp_path / "far.txt"
    data.write_text("".join(" ".join([value] * 8) + "\n" for _ in range(200)))
    model = tmp_path / "m.ajb"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--input", str(data), "--bits", "4", "--method", method,
              "--out", str(model)])
    assert str(exc.value).startswith(f"{data}: the squared row norms {what} float64")
    assert "\n" not in str(exc.value)
    assert capsys.readouterr().out == ""
    assert not model.exists()


@pytest.mark.parametrize("method", ["autobin", "dautobin", "cautobin"])
def test_train_holds_one_copy_of_the_points_beside_the_pca_start(tmp_path, method):
    # fit scales the matrix train read in place and init_params centres
    # one block of rows at a time, so the matrix is the one full-size
    # array. A normalized copy of it made the peak 2.03-2.06x N x D x 8,
    # and the matrix read kept beside that copy 3.03-3.06x
    N, D = 20000, 32
    path, _ = _write_data(tmp_path, "big.fvecs", D=D, n=N, seed=11)
    argv = ["train", "--input", str(path), "--bits", "8", "--method", method,
            "--epochs", "1", "--batch", "1000", "--iterations", "2",
            "--out", str(tmp_path / "m.ajb")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = 8 * N * D
    assert peak < 1.6 * points, (peak, points)


def test_train_ends_when_the_tangent_stack_does_not_fit(tmp_path, monkeypatch):
    path, _ = _write_data(tmp_path, "s.fvecs", D=6, n=80, seed=12)
    model = tmp_path / "m.ajb"
    argv = ["train", "--input", str(path), "--bits", "4", "--epochs", "1",
            "--out", str(model)]
    stack = 80 * 6 * 4 * 8  # N x D x min(d, D) float64
    monkeypatch.setattr(cli, "available_memory", lambda: stack // 2)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value) == (f"{path}: the tangent stack of 80 points takes 0.02 MB, "
                              f"but only 0.01 MB of memory is available")
    assert not model.exists()
    # the check is made only for the stack, and only where memory can be read
    for available in (stack, None):
        monkeypatch.setattr(cli, "available_memory", lambda: available)
        assert main(argv) == 0
    monkeypatch.setattr(cli, "available_memory", lambda: 0)
    assert main(argv[:-2] + ["--method", "autobin", "--out", str(model)]) == 0


def test_available_memory_is_a_positive_count_of_bytes_or_unknown():
    free = cli.available_memory()
    assert free is None or (isinstance(free, int) and free > 0)


def test_train_lsh_takes_more_bits_than_dimensions(tmp_path):
    base_path, _ = _write_data(tmp_path, "b.fvecs", D=8, n=100, seed=3)
    model = tmp_path / "m.ajb"
    assert main(["train", "--input", str(base_path), "--bits", "12", "--method", "lsh",
                 "--out", str(model)]) == 0
    assert matrix_io.read_model(model).w1.shape == (12, 8)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_train_rejects_fewer_than_one_iteration(tmp_path, n, capsys):
    base_path, _ = _write_data(tmp_path, "i.fvecs", n=60, seed=3)
    model = tmp_path / "m.ajb"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--input", str(base_path), "--bits", "4", "--method", "autobin",
              "--batch", "60", "--iterations", n, "--out", str(model)])
    assert exc.value.code == 2
    assert f"argument --iterations: must be at least 1, got {n}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("method", ["autobin", "lsh"])
@pytest.mark.parametrize("flag, value, low", [
    ("--bits", "0", 1), ("--batch", "0", 1), ("--epochs", "-1", 0),
    ("--iterations", "0", 1), ("--alpha", "-1.0", 0), ("--lambda-c", "-1.0", 0),
    # bounds other than "at least": the words after "must be"
    ("--epsilon", "0.0", "above 0"), ("--corrupt-t", "2.0", "at most 1"),
    ("--alpha", "nan", "finite")])
def test_train_rejects_bad_numeric_flags_as_usage_errors(tmp_path, capsys, method,
                                                          flag, value, low):
    base_path, _ = _write_data(tmp_path, "u.fvecs", n=60, seed=3)
    model = tmp_path / "m.ajb"
    good = {"--bits": "4", "--batch": "60", "--epochs": "1", "--iterations": "2"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}={value}\n")
    need = f"at least {low}" if isinstance(low, int) else low
    # the value as a flag, then from the config file
    for config, flags in (([], {**good, flag: value}),
                          (["--config", str(cfg)], {k: v for k, v in good.items()
                                                    if k != flag})):
        with pytest.raises(SystemExit) as exc:
            main(config + ["train", "--input", str(base_path), "--method", method,
                           "--out", str(model)]
                 + [x for pair in flags.items() for x in pair])
        assert exc.value.code == 2
        assert f"argument {flag}: must be {need}, got {value}" in \
            capsys.readouterr().err
        assert not model.exists()


@pytest.mark.parametrize("argv, flag, value, low", [
    (["toy", "--batch", "0"], "--batch", "0", 1),
    (["toy", "--epochs", "-1"], "--epochs", "-1", 0),
    (["toy", "--points", "3"], "--points", "3", 6),
    (["toy", "--points", "0"], "--points", "0", 6),
    (["gradcheck", "--bits", "0"], "--bits", "0", 1),
    (["gradcheck", "--points", "0"], "--points", "0", 1),
    (["gradcheck", "--dims", "0"], "--dims", "0", 1),
    (["toy", "--alpha", "-1.0"], "--alpha", "-1.0", 0)])
def test_toy_and_gradcheck_reject_bad_numeric_flags_as_usage_errors(
        tmp_path, capsys, argv, flag, value, low):
    out_dir = tmp_path / "toy"
    if argv[0] == "toy":
        argv = argv + ["--out-dir", str(out_dir)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least {low}, got {value}" in \
        capsys.readouterr().err
    assert not out_dir.exists()


def _lsh_model(tmp_path, D):
    train, _ = _write_data(tmp_path, "train.fvecs", D=D, n=50, seed=7)
    model = tmp_path / "m.ajb"
    assert main(["train", "--input", str(train), "--bits", "8", "--method", "lsh",
                 "--out", str(model)]) == 0
    return model


@pytest.mark.parametrize("flag", ["--input", "--base", "--query"])
def test_encode_and_eval_reject_a_wrong_dimension_before_any_encoding(
        tmp_path, monkeypatch, flag):
    model = _lsh_model(tmp_path, D=6)
    good, _ = _write_data(tmp_path, "good.fvecs", D=6, n=40, seed=1)
    bad, _ = _write_data(tmp_path, "bad.fvecs", D=5, n=40, seed=2)

    def no_encode(*args, **kwargs):
        raise AssertionError("encode called")

    monkeypatch.setattr(hamming, "encode", no_encode)
    out = tmp_path / "out"
    if flag == "--input":
        argv = ["encode", "--model", str(model), "--input", str(bad), "--out", str(out)]
    else:
        paths = {"--base": good, "--query": good, flag: bad}
        argv = ["eval", "--model", str(model), "--base", str(paths["--base"]),
                "--query", str(paths["--query"]), "--k", "1", "--max-retrieve", "10",
                "--out-dir", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == (f"{flag} {bad} has dimension D=5, but the model "
                              f"{model} takes D=6")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--input", "--base", "--query"])
def test_encode_and_eval_reject_an_empty_input(tmp_path, flag):
    model = _lsh_model(tmp_path, D=6)
    good, _ = _write_data(tmp_path, "good.fvecs", D=6, n=40, seed=1)
    empty = tmp_path / "empty.fvecs"
    empty.write_bytes(b"")
    if flag == "--input":
        argv = ["encode", "--model", str(model), "--input", str(empty),
                "--out", str(tmp_path / "out")]
    else:
        paths = {"--base": good, "--query": good, flag: empty}
        argv = ["eval", "--model", str(model), "--base", str(paths["--base"]),
                "--query", str(paths["--query"]), "--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"empty input {empty}"
    assert not (tmp_path / "out").exists()


def test_encode_dimension_error_is_one_line_without_a_traceback(tmp_path):
    model = _lsh_model(tmp_path, D=6)
    bad, _ = _write_data(tmp_path, "bad.fvecs", D=5, n=4, seed=2)
    r = subprocess.run([sys.executable, "-m", "autojacobin.cli", "encode", "--model",
                        str(model), "--input", str(bad), "--out", str(tmp_path / "c")],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr.splitlines() == [f"--input {bad} has dimension D=5, but the model "
                                     f"{model} takes D=6"]


def _malformed_encode_input(tmp_path):
    bad, _ = _write_data(tmp_path, "cut.fvecs", D=6, n=4, seed=2)
    bad.write_bytes(bad.read_bytes()[:-3])
    argv = ["encode", "--model", str(_lsh_model(tmp_path, D=6)), "--input", str(bad),
            "--out", str(tmp_path / "c")]
    return argv, f"{bad}: truncated record payload at byte 88"


def _malformed_eval_query(tmp_path):
    base, _ = _write_data(tmp_path, "base.fvecs", D=6, n=20, seed=2)
    bad = tmp_path / "cut.fvecs"
    bad.write_bytes(base.read_bytes()[:30])
    model = _lsh_model(tmp_path, D=6)
    argv = ["eval", "--model", str(model), "--base", str(base), "--query", str(bad),
            "--max-retrieve", "20", "--out-dir", str(tmp_path / "e")]
    return argv, f"{bad}: truncated dimension header at byte 28"


def _malformed_model(tmp_path):
    data, _ = _write_data(tmp_path, "x.fvecs", D=6, n=4, seed=2)
    foreign = tmp_path / "codes.ajb"
    matrix_io.write_codes(foreign, hamming.BinaryCodes(8, 1, np.zeros((1, 1), np.uint8)))
    argv = ["encode", "--model", str(foreign), "--input", str(data),
            "--out", str(tmp_path / "c")]
    return argv, f"{foreign}: bad model magic b'AJBC'"


def _malformed_train_text(tmp_path):
    bad = tmp_path / "x.txt"
    bad.write_text("1 2\n3 nan\n")
    argv = ["train", "--input", str(bad), "--bits", "1", "--method", "lsh",
            "--out", str(tmp_path / "m2.ajb")]
    return argv, f"{bad}: matrix has 1 non-finite entries (NaN or inf)"


def _convert_to_bvecs_out_of_range(tmp_path):
    src = tmp_path / "neg.fvecs"
    matrix_io.write_fvecs(src, np.array([[1.0, 2.0], [-1.0, 3.0]]))
    argv = ["convert", "--input", str(src), "--output", str(tmp_path / "neg.bvecs")]
    return argv, f"{src}: bvecs entries must lie in [0, 255]"


def _missing_plot_csv(tmp_path):
    missing = tmp_path / "missing.csv"
    argv = ["plot", "--out", str(tmp_path / "x.svg"), str(missing)]
    return argv, f"[Errno 2] No such file or directory: '{missing}'"


def _plot_csv_row_with_one_field(tmp_path):
    bad = tmp_path / "one.csv"
    bad.write_text("i,recall\n1,0.5\n2\n")
    argv = ["plot", "--out", str(tmp_path / "x.svg"), str(bad)]
    return argv, f"{bad}:3: a data row needs a numeric second field, got '2'"


def _plot_csv_non_numeric_y(tmp_path):
    bad = tmp_path / "text.csv"
    bad.write_text("i,recall\n1,high\n")
    argv = ["plot", "--out", str(tmp_path / "x.svg"), str(bad)]
    return argv, f"{bad}:2: a data row needs a numeric second field, got '1,high'"


def _convert_to_fvecs_past_float32(tmp_path):
    src = tmp_path / "big.txt"
    src.write_text("1 1e39\n")
    argv = ["convert", "--input", str(src), "--output", str(tmp_path / "big.fvecs")]
    return argv, (f"{src}: fvecs entries must lie in float32's range "
                  f"[-3.4028235e+38, 3.4028235e+38]")


def _plot_csv_non_finite(tmp_path):
    bad = tmp_path / "nan.csv"
    bad.write_text("i,recall\n1,0.5\n2,nan\n3,inf\n")
    argv = ["plot", "--out", str(tmp_path / "x.svg"), str(bad)]
    return argv, f"{bad}:3: non-finite value in row '2,nan'"


@pytest.mark.parametrize("case", [_malformed_encode_input, _malformed_eval_query,
                                  _malformed_model, _malformed_train_text,
                                  _convert_to_bvecs_out_of_range,
                                  _convert_to_fvecs_past_float32, _missing_plot_csv,
                                  _plot_csv_row_with_one_field, _plot_csv_non_numeric_y,
                                  _plot_csv_non_finite])
def test_a_malformed_input_file_is_one_line_without_a_traceback(tmp_path, case):
    argv, message = case(tmp_path)
    before = set(tmp_path.rglob("*"))
    r = subprocess.run([sys.executable, "-m", "autojacobin.cli", *argv],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr.splitlines() == [message]
    assert set(tmp_path.rglob("*")) == before  # no output and no manifest


def _lsh_eval_setup(tmp_path, n):
    base_path, _ = _write_data(tmp_path, "k.fvecs", n=n, seed=5)
    query_path, _ = _write_data(tmp_path, "kq.fvecs", n=12, seed=6)
    model = tmp_path / "m.ajb"
    main(["train", "--input", str(base_path), "--bits", "4", "--method", "lsh",
          "--out", str(model)])
    return ["eval", "--model", str(model), "--base", str(base_path),
            "--query", str(query_path), "--max-retrieve", str(n)]


@pytest.mark.parametrize("k", ["0", "a", "", "1,0", "5,-2", "1,,5"])
def test_eval_rejects_bad_k_as_usage_error(tmp_path, capsys, k):
    argv = _lsh_eval_setup(tmp_path, 60)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--k", k, "--out-dir", str(tmp_path / "e")])
    assert exc.value.code == 2
    assert "argument --k: " in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_rejects_k_above_the_base_size(tmp_path):
    argv = _lsh_eval_setup(tmp_path, 60)
    with pytest.raises(SystemExit, match="k=61 exceeds base size 60"):
        main(argv + ["--k", "5,61", "--out-dir", str(tmp_path / "e")])


def test_eval_builds_the_ground_truth_once_at_the_largest_k(tmp_path):
    argv = _lsh_eval_setup(tmp_path, 150)
    assert main(argv + ["--out-dir", str(tmp_path / "all")]) == 0
    caches = list(tmp_path.glob("k.fvecs.*.ajbg"))
    assert [c.name.rsplit(".", 2)[1] for c in caches] == ["k100"]
    for k in (1, 5, 10, 50, 100):  # each from its own k's ground truth
        assert main(argv + ["--k", str(k), "--out-dir", str(tmp_path / f"k{k}")]) == 0
        name = f"recall_k{k}.csv"
        assert (tmp_path / "all" / name).read_bytes() == \
            (tmp_path / f"k{k}" / name).read_bytes()


def test_eval_ranks_each_query_once_for_every_k(tmp_path, monkeypatch):
    argv = _lsh_eval_setup(tmp_path, 150)
    curves, ranked = [], []

    def counting_curve(gt, base_codes, query_codes, K):
        curves.append((base_codes.count, query_codes.count))
        return recall_curve(gt, base_codes, query_codes, K)

    def spy_map(fn, starts, block_bytes, buffers=None, meanwhile=None):
        if fn.__qualname__.startswith("recall_curve."):  # its query blocks
            ranked.extend(j for lo, hi in starts for j in range(lo, hi))
        return ordered_map(fn, starts, block_bytes, buffers, meanwhile)

    recall_curve, ordered_map = hamming.recall_curve, parallel.ordered_map
    monkeypatch.setattr(hamming, "recall_curve", counting_curve)
    monkeypatch.setattr(parallel, "ordered_map", spy_map)
    assert main(argv + ["--out-dir", str(tmp_path / "all")]) == 0
    assert curves == [(150, 12)]  # 12 queries against 150 codes, in one pass
    assert ranked == list(range(12))  # whose blocks rank each query once
    # each k's CSV as one recall_curve call on the k-prefix wrote it
    p = matrix_io.read_model(tmp_path / "m.ajb")
    base_codes, query_codes = (hamming.encode(p, matrix_io.read_fvecs(tmp_path / f))
                               for f in ("k.fvecs", "kq.fvecs"))
    (cache,) = tmp_path.glob("k.fvecs.*.k100.ajbg")
    gt = matrix_io.read_groundtruth(cache)
    for k in (1, 5, 10, 50, 100):
        curve = recall_curve(gt[:, :k], base_codes, query_codes, 150)
        rows = "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(curve.values, 1))
        expect = f"i,recall\n{rows}m_recall,{float(curve.m_recall)!r}\n"
        assert (tmp_path / "all" / f"recall_k{k}.csv").read_text() == expect


def test_cold_and_warm_eval_write_the_same_curves_and_hash_once_each(tmp_path,
                                                                     monkeypatch):
    argv = _lsh_eval_setup(tmp_path, 150)
    keys, builds = [], []

    def counting_key(*args):
        keys.append(args[3])
        return groundtruth_cache(*args)

    def counting_build(*args):
        builds.append(args[2])
        return build_groundtruth(*args)

    groundtruth_cache = cli._groundtruth_cache
    build_groundtruth = hamming.build_groundtruth
    monkeypatch.setattr(cli, "_groundtruth_cache", counting_key)
    monkeypatch.setattr(hamming, "build_groundtruth", counting_build)
    for run in ("cold", "warm"):
        assert main(argv + ["--k", "1,10", "--out-dir", str(tmp_path / run)]) == 0
    assert keys == [10, 10]  # one key per eval, at the largest k
    assert builds == [10]  # the warm eval read the cold one's cache
    names = sorted(f.name for f in (tmp_path / "cold").glob("*.csv"))
    assert names == ["m_recall.csv", "recall_k1.csv", "recall_k10.csv"]
    for name in names:
        assert (tmp_path / "cold" / name).read_bytes() == \
            (tmp_path / "warm" / name).read_bytes()


def test_interrupted_eval_leaves_no_cache_and_the_next_builds_it(tmp_path, monkeypatch):
    argv = _lsh_eval_setup(tmp_path, 150)

    def killed(src, dst):
        raise KeyboardInterrupt  # after the bytes are written, before the rename

    with monkeypatch.context() as m:
        m.setattr(matrix_io.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--out-dir", str(tmp_path / "cut")])
    assert [p.name for p in tmp_path.iterdir() if ".fvecs." in p.name] == []
    builds = []
    build = hamming.build_groundtruth
    monkeypatch.setattr(hamming, "build_groundtruth",
                        lambda *a: builds.append(a[2]) or build(*a))
    assert main(argv + ["--out-dir", str(tmp_path / "e")]) == 0
    assert builds == [100]
    (cache,) = tmp_path.glob("k.fvecs.*.k100.ajbg")
    assert matrix_io.read_groundtruth(cache).shape == (12, 100)


def _bad_cut(cache, gt):
    cache.write_bytes(cache.read_bytes()[:6])  # cut inside the header


def _bad_foreign(cache, gt):
    matrix_io.write_codes(cache, hamming.BinaryCodes(8, 12, np.zeros((12, 1), np.uint8)))


def _bad_shape(cache, gt):
    matrix_io.write_groundtruth(cache, gt[:, :50])  # a whole file of the wrong k


def _bad_index(cache, gt):
    matrix_io.write_groundtruth(cache, gt + 150)  # every index past the base


@pytest.mark.parametrize("spoil, reason", [
    (_bad_cut, "ground-truth header cut at 6 of 12 bytes"),
    (_bad_foreign, "bad ground-truth magic b'AJBC'"),
    (_bad_shape, "not a (12, 100) table of indices below 150"),
    (_bad_index, "not a (12, 100) table of indices below 150")])
def test_eval_rebuilds_a_bad_groundtruth_cache(tmp_path, monkeypatch, capsys, spoil,
                                               reason):
    argv = _lsh_eval_setup(tmp_path, 150)
    assert main(argv + ["--out-dir", str(tmp_path / "ref")]) == 0
    (cache,) = tmp_path.glob("k.fvecs.*.k100.ajbg")
    good = cache.read_bytes()
    spoil(cache, matrix_io.read_groundtruth(cache))
    builds = []
    build = hamming.build_groundtruth
    monkeypatch.setattr(hamming, "build_groundtruth",
                        lambda *a: builds.append(a[2]) or build(*a))
    capsys.readouterr()
    assert main(argv + ["--out-dir", str(tmp_path / "e")]) == 0
    err = capsys.readouterr().err
    assert f"rebuilding the ground-truth cache: {cache}: {reason}" in err
    assert builds == [100]
    assert cache.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []
    for name in ("m_recall.csv", "recall_k10.csv"):
        assert (tmp_path / "e" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    assert main(argv + ["--out-dir", str(tmp_path / "again")]) == 0
    assert builds == [100]  # the rebuilt cache is read as it is


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    base_path, _ = _write_data(tmp_path, "c.fvecs", n=60, seed=3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bits=0\nmethod=lsh\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "train", "--input", str(base_path),
              "--out", str(tmp_path / "m.ajb")])
    assert exc.value.code == 2
    assert "argument --bits: must be at least 1, got 0" in capsys.readouterr().err
    cfg.write_text("bits=four\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "train", "--input", str(base_path),
              "--out", str(tmp_path / "m.ajb")])
    assert exc.value.code == 2
    assert "argument --bits: invalid int value: 'four'" in capsys.readouterr().err


def test_config_values_are_checked_against_choices(tmp_path, capsys):
    base_path, _ = _write_data(tmp_path, "c.fvecs", n=60, seed=3)
    cfg = tmp_path / "run.cfg"
    train = ["train", "--input", str(base_path), "--out", str(tmp_path / "m.ajb")]
    cfg.write_text("method=bogus\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + train)
    assert exc.value.code == 2
    # the prefix only: the quoting of "(choose from ...)" varies by Python version
    assert "argument --method: invalid choice: 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "m.ajb").exists()
    # choices are the command's own: lsh trains, but gradcheck has no lsh
    cfg.write_text("method=lsh\nbits=4\n")
    assert main(["--config", str(cfg)] + train) == 0
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "gradcheck"])
    assert exc.value.code == 2
    assert "argument --method: invalid choice: 'lsh'" in capsys.readouterr().err
    # a flag still overrides a good config value
    cfg.write_text("method=autobin\n")
    assert main(["--config", str(cfg), "gradcheck", "--method", "cautobin"]) == 0
    assert "cautobin" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["bitz=4", "sede=9", "command=gradcheck"])
def test_a_config_key_that_names_no_flag_is_a_usage_error(tmp_path, capsys, line):
    base_path, _ = _write_data(tmp_path, "c.fvecs", n=60, seed=3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    model = tmp_path / "m.ajb"
    # the command comes only from the command line
    command = [] if line.startswith("command=") else [
        "train", "--input", str(base_path), "--bits", "4", "--method", "lsh",
        "--out", str(model)]
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + command)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert ("the following arguments are required: command" if not command
            else f"unrecognized arguments: --{line}") in out.err
    assert not out.out
    assert not model.exists()


def test_trailing_config_is_a_usage_error(capsys):
    for argv in (["--config"], ["train", "--config"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--config: expected the path of a key=value config file" in \
            capsys.readouterr().err


def test_gradcheck_exit_codes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
    assert main(["gradcheck", "--method", "cautobin"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["recon", "contractive", "binary", "total"]


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


def test_toy_init_row_is_the_untrained_start_of_training(tmp_path):
    out_dir = tmp_path / "toy"
    assert main(["toy", "--points", "120", "--epochs", "2", "--batch", "60",
                 "--seed", "4", "--out-dir", str(out_dir)]) == 0
    X = synth.simplex_points(120, np.random.default_rng(4))
    Xn = X * matrix_io.fit_normalizer(X)
    p0 = trainer.init_params(Xn, 3, 4)
    codes = hamming.encode(p0, Xn)
    distinct = len({bytes(row) for row in codes.packed})
    mean_abs = float(np.mean(np.abs(forward_batch(p0, Xn)[0])))
    init_row = (out_dir / "toy_summary.csv").read_text().splitlines()[1]
    assert init_row == f"init,{distinct},{mean_abs!r}"


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


def test_config_equals_path_takes_effect(tmp_path):
    base_path, _ = _write_data(tmp_path, "d.fvecs", n=60, seed=6)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bits=4\nmethod=lsh\nseed=9\n")
    model = tmp_path / "m.ajb"
    assert main([f"--config={cfg}", "train", "--input", str(base_path),
                 "--out", str(model)]) == 0
    from autojacobin.variants import lsh_generate
    np.testing.assert_array_equal(matrix_io.read_model(model).w1,
                                  lsh_generate(6, 4, 9).w1)


def test_abbreviated_config_is_a_usage_error(tmp_path, capsys):
    base_path, _ = _write_data(tmp_path, "d.fvecs", n=60, seed=6)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method=lsh\nseed=9\n")
    model = tmp_path / "m.ajb"
    for argv in (["--conf", str(cfg)], [f"--conf={cfg}"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["train", "--input", str(base_path), "--bits", "4",
                         "--out", str(model)])
        assert exc.value.code == 2
        capsys.readouterr()
    assert not model.exists()


def test_config_values_stay_text_and_switches_read_true_or_false(tmp_path, capsys):
    csv = tmp_path / "recall_k1.csv"
    csv.write_text("i,recall\n1,0.1\n2,0.4\n")
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "chart.svg"
    for title in ("2024", "-x"):  # a value that starts with - is the value
        cfg.write_text(f"title={title}\n")
        assert main(["--config", str(cfg), "plot", "--out", str(out), str(csv)]) == 0
        assert f">{title}</text>" in out.read_text()

    base_path, X = _write_data(tmp_path, "e.fvecs", n=60, seed=7)
    model, codes = tmp_path / "m.ajb", tmp_path / "c.ajbc"
    main(["train", "--input", str(base_path), "--bits", "4", "--method", "lsh",
          "--out", str(model)])
    params = matrix_io.read_model(model)
    encode = ["encode", "--model", str(model), "--input", str(base_path),
              "--out", str(codes)]
    for value, use_bias in (("true", True), ("False", False)):
        cfg.write_text(f"use-bias={value}\n")
        expected = hamming.encode(params, matrix_io.read_fvecs(base_path),
                                  use_bias=use_bias)
        # from the config file, then as the flag's value
        for argv in (["--config", str(cfg)] + encode, encode + [f"--use-bias={value}"]):
            assert main(argv) == 0
            assert matrix_io.read_codes(codes).packed.tobytes() == \
                expected.packed.tobytes()
    cfg.write_text("use_bias=yes\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + encode)
    assert exc.value.code == 2
    assert "argument --use-bias: a switch is true or false, got 'yes'" in \
        capsys.readouterr().err


def test_train_with_zero_epochs_reports_the_untrained_start(tmp_path, capsys):
    base_path, _ = _write_data(tmp_path, "z.fvecs", n=60, seed=8)
    assert main(["train", "--input", str(base_path), "--bits", "3", "--method",
                 "autobin", "--epochs", "0", "--out", str(tmp_path / "m.ajb")]) == 0
    out = capsys.readouterr().out
    assert "trained autobin: 0 iterations, the model is the untrained start, " in out
    assert "nan" not in out


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


# a fresh interpreter that runs CLI commands (a JSON list of argv lists)
# one after another, pinned to one CPU before numpy loads unless the CPU
# is "all"
_CHILD = """\
import json, os, sys
if sys.argv[1] != "all":
    os.sched_setaffinity(0, {int(sys.argv[1])})
from autojacobin.cli import main
for argv in json.loads(sys.argv[2]):
    if main(argv) != 0:
        sys.exit(f"exit status 1 from {argv}")
"""


def _run_cli(cpu, *commands):
    """Run commands in one child interpreter with one BLAS thread: on
    every CPU of this process when cpu is None, else on that CPU alone."""
    src = str(Path(autojacobin.__file__).parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", _CHILD, "all" if cpu is None else str(cpu),
                        json.dumps([[str(a) for a in argv] for argv in commands])],
                       env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr


def _same_bytes(first, *others):
    want = first.read_bytes()
    for path in others:
        assert path.read_bytes() == want, f"{path} differs from {first}"


# the CPUs this process may run on; none where a child cannot be pinned
_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()


@pytest.mark.skipif(len(_CPUS) < 2, reason="needs 2 usable CPUs")
def test_outputs_have_the_same_bytes_in_any_process_and_at_any_worker_count(tmp_path):
    # every blocked loop of train, eval and encode runs on 2 workers at
    # these shapes (their blocks pass the pool's 256 KiB gate) and on 1
    # in a child pinned to one CPU; each command runs in a process of
    # its own, but for the 128-D baselines, and the encode/eval sequence
    # again in one interpreter, whose pools live across its commands
    one = min(_CPUS)
    rng = np.random.default_rng(0)
    # 600 training points: the tangent kNN's blocks of 60 queries against
    # them take 281 KiB of distances
    X, manifold = synth.curved_manifold(600, 8, 64, rng)
    data, base, query = (tmp_path / f"cm{s}.fvecs" for s in ("", "-base", "-query"))
    matrix_io.write_fvecs(data, X)
    # the 17000-point base spans eight 2048-column kNN tiles and a ragged
    # last one
    for path, n in ((base, 17000), (query, 200)):
        matrix_io.write_fvecs(path, synth.curved_manifold_more(n, manifold, rng))
    runs = (("a", None), ("b", None), ("one", one))

    # the same model bits on every run and on one CPU: the tangent kNN
    # and PCA, the baselines' per-batch gathers and DAutoBin's mask
    for method in ("auto-jacobin", "dautobin", "cautobin"):
        for run, cpu in runs:
            _run_cli(cpu, ["train", "--input", data, "--bits", 16, "--epochs", 2,
                           "--batch", 200, "--method", method,
                           "--out", tmp_path / f"{method}-{run}.ajb"])
        _same_bytes(*(tmp_path / f"{method}-{run}.ajb" for run, _ in runs))
    model = tmp_path / "auto-jacobin-a.ajb"

    # the baselines on a 1200 x 128 set taken as one batch: the objective's
    # three row chunks of 400 points; the three trainings of a run share
    # one child
    wide = tmp_path / "cm128.fvecs"
    matrix_io.write_fvecs(wide, synth.curved_manifold(1200, 8, 128,
                                                      np.random.default_rng(1))[0])
    baselines = ("autobin", "dautobin", "cautobin")
    for run, cpu in runs:
        _run_cli(cpu, *[["train", "--input", wide, "--bits", 16, "--epochs", 2,
                         "--batch", 1200, "--method", method,
                         "--out", tmp_path / f"{method}-128-{run}.ajb"]
                        for method in baselines])
    for method in baselines:
        _same_bytes(*(tmp_path / f"{method}-128-{run}.ajb" for run, _ in runs))

    # the same ground truth and recall curves at any worker count, cold
    # and warm: the ground truth's tiled query blocks and the recall
    # curve's query blocks
    ev = ["eval", "--model", model, "--base", base, "--query", query,
          "--max-retrieve", 1000]
    curves = ["m_recall.csv"] + [f"recall_k{k}.csv" for k in (1, 5, 10, 50, 100)]

    def cache():  # the one ground-truth cache file beside the base
        [path] = tmp_path.glob("cm-base.fvecs.*.ajbg")
        return path

    for run, cpu in (("two", None), ("one", one)):
        for path in tmp_path.glob("cm-base.fvecs.*.ajbg"):
            path.unlink()
        for warmth in ("cold", "warm"):
            _run_cli(cpu, ev + ["--out-dir", tmp_path / f"ev-{run}-{warmth}"])
        cache().rename(tmp_path / f"gt-{run}.ajbg")
    _same_bytes(tmp_path / "gt-two.ajbg", tmp_path / "gt-one.ajbg")
    for name in curves:
        _same_bytes(*(tmp_path / f"ev-{run}-{warmth}" / name for run in ("two", "one")
                      for warmth in ("cold", "warm")))

    # the same codes on every run and at any worker count, with and
    # without the bias: encode's 2048-point tiles
    enc = ["encode", "--model", model, "--input", base]
    for bias in ([], ["--use-bias"]):
        for run, cpu in runs:
            _run_cli(cpu, enc + bias + ["--out", tmp_path / f"codes-{run}.ajbc"])
        _same_bytes(*(tmp_path / f"codes-{run}.ajbc" for run, _ in runs))
    biased = tmp_path / "codes-a.ajbc"

    # the same outputs from one interpreter: the base encoded twice, then
    # eval cold and warm, on 2 workers and then on 1
    for run, cpu in (("two", None), ("one", one)):
        for path in tmp_path.glob("cm-base.fvecs.*.ajbg"):
            path.unlink()
        _run_cli(cpu, *[enc + ["--use-bias", "--out", tmp_path / f"in-{run}-{i}.ajbc"]
                        for i in (1, 2)],
                 *[ev + ["--out-dir", tmp_path / f"in-{run}-{warmth}"]
                   for warmth in ("cold", "warm")])
        _same_bytes(biased, *(tmp_path / f"in-{run}-{i}.ajbc" for i in (1, 2)))
        _same_bytes(tmp_path / "gt-two.ajbg", cache())
        for name in curves:
            _same_bytes(tmp_path / "ev-two-cold" / name,
                        *(tmp_path / f"in-{run}-{warmth}" / name
                          for warmth in ("cold", "warm")))

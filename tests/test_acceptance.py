"""End-to-end acceptance gate.

Each test covers one numbered criterion and records a single PASS/FAIL
verdict line (printed in the terminal summary). Tolerances and sizes
are pinned; do not loosen them to make a run green.
"""

import time

import numpy as np
import pytest

from autojacobin import hamming, matrix_io, synth, tangent
from autojacobin.checks import check_gradients
from autojacobin.cli import main
from autojacobin.hamming import BinaryCodes, pack_bits
from autojacobin.network import ObjectiveConfig, objective
from autojacobin.tangent import (
    ProjectionOracle,
    oracle_jacobian_fd,
    oracle_project,
    oracle_tangent_projector,
    projector,
)
from autojacobin.trainer import TrainConfig, init_params, train
from autojacobin.variants import VariantConfig

pytestmark = pytest.mark.filterwarnings(
    "ignore:training data rank below bit count")

VERDICTS = []


def _verdict(num, label, ok, detail):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    VERDICTS.append(line)
    print(line)
    assert ok, line


# -- criterion 1: analytic gradients vs central differences -----------------

def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in ("auto-jacobin", "autobin", "dautobin", "cautobin"):
        for seed in range(20):
            errs = check_gradients(kind, D=8, d=4, n=5, seed=seed,
                                   alpha=0.1, epsilon=1e-4, h=1e-6)
            worst = max(worst, max(errs.values()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _verdict(1, "gradient correctness", ok,
             f"max rel error {worst:.2e} over 20 instances x 4 variants, "
             f"{elapsed:.1f}s")


# -- criterion 2: projection Jacobian equals the tangent projector ----------

def test_criterion_2_projection_jacobian_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        D = int(rng.integers(2, 11))
        r = int(rng.integers(1, min(5, D - 1) + 1))
        B, _ = np.linalg.qr(rng.standard_normal((D, r)))
        o = ProjectionOracle(kind="affine-subspace",
                             mean=rng.standard_normal(D), basis=B)
        m = oracle_project(o, rng.standard_normal(D))
        J = oracle_jacobian_fd(o, m, h=1e-5)
        worst = max(worst, float(np.max(np.abs(J - oracle_tangent_projector(o, m)))))
    for _ in range(10):
        D = int(rng.integers(3, 11))
        m = rng.standard_normal(D)
        m /= np.linalg.norm(m)
        o = ProjectionOracle(kind="unit-sphere")
        J = oracle_jacobian_fd(o, m, h=1e-5)
        worst = max(worst, float(np.max(np.abs(J - oracle_tangent_projector(o, m)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    _verdict(2, "projection Jacobian oracle", ok,
             f"max abs error {worst:.2e} over 10 subspaces + 10 sphere points, "
             f"{elapsed:.1f}s")


# -- criterion 3: local-PCA tangent estimation on a noisy plane -------------

def test_criterion_3_tangent_estimation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    B, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    mean = rng.standard_normal(5)
    X = mean[:, None] + B @ rng.uniform(-1, 1, size=(2, 1000))
    X += 1e-4 * rng.standard_normal(X.shape)
    true_P = B @ B.T
    worst = 0.0
    for tb in tangent.estimate_all_tangents(X.T, 5):
        worst = max(worst, float(np.linalg.norm(projector(tb) - true_P)))
    elapsed = time.perf_counter() - t0
    ok = worst < 0.05 and elapsed < 30.0
    _verdict(3, "tangent estimation", ok,
             f"max projector error {worst:.4f} over 1000 points, {elapsed:.1f}s")


# -- criterion 4: toy simplex warping, default settings ---------------------

def _read_toy_summary(out_dir):
    lines = (out_dir / "toy_summary.csv").read_text().strip().splitlines()
    rows = {}
    for line in lines[1:]:
        phase, distinct, mean_abs = line.split(",")
        rows[phase] = (int(distinct), float(mean_abs))
    return rows


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    t0 = time.perf_counter()
    runs = []
    for seed in range(5):
        out = root / f"seed{seed}"
        assert main(["toy", "--seed", str(seed), "--out-dir", str(out)]) == 0
        runs.append(_read_toy_summary(out))
    return runs, time.perf_counter() - t0, root


def test_criterion_4_toy_simplex(toy_runs):
    runs, elapsed, _ = toy_runs
    distinct = [r["trained"][0] for r in runs]
    good = sum(1 for c in distinct if c >= 6)
    mean_abs = [r["trained"][1] for r in runs]
    init_abs = [r["init"][1] for r in runs]
    grew = all(t > i for t, i in zip(mean_abs, init_abs))
    over = all(t > 0.7 for t in mean_abs)
    ok = good >= 4 and grew and over and elapsed < 120.0
    _verdict(4, "toy simplex warping", ok,
             f"distinct codes {distinct} ({good}/5 runs >= 6), "
             f"mean |y| {[round(v, 3) for v in mean_abs]} "
             f"(init {[round(v, 3) for v in init_abs]}, all > 0.7: {over}), "
             f"{elapsed:.1f}s")


# -- criterion 5: cost decreases and flattens -------------------------------

def test_criterion_5_cost_behavior():
    rng = np.random.default_rng(0)
    X_raw = synth.simplex_points(1000, rng)
    nz = matrix_io.fit_normalizer(X_raw)
    Xn = X_raw * nz
    projs = [projector(t) for t in tangent.estimate_all_tangents(Xn, 3)]
    cfg = TrainConfig(bits=3, epochs=300, batch_size=1000, seed=0,
                      method=VariantConfig(kind="auto-jacobin", alpha=0.1))
    p0 = init_params(Xn, 3, np.random.default_rng(0))
    ocfg = ObjectiveConfig(alpha=0.1, epsilon=1e-4)
    initial = objective(p0, Xn, projs, ocfg)[1].total
    _, report = train(Xn, projs, cfg)
    costs = [c for _, c in report.epoch_costs]
    final = costs[-1]
    rel = abs(costs[-1] - costs[-2]) / abs(costs[-2])
    ok = final < initial and rel < 0.05
    _verdict(5, "cost behavior", ok,
             f"full-set cost {initial:.1f} -> {final:.1f}, "
             f"last-epoch relative change {rel:.2e}")


# -- criterion 6: retrieval engines match naive oracles ---------------------

def _naive_hamming_order(packed, q, bits):
    b = np.unpackbits(packed, axis=1, bitorder="little")[:, :bits]
    qb = np.unpackbits(q[None, :], axis=1, bitorder="little")[0, :bits]
    d = (b != qb).sum(axis=1)
    return np.argsort(d, kind="stable")


def test_criterion_6_retrieval_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(50):
        N = int(rng.integers(10, 2001))
        bits = int(rng.integers(1, 129))
        D = int(rng.integers(2, 65))
        k = int(rng.integers(1, N + 1))
        signs = rng.integers(0, 2, size=(N, bits)).astype(bool)
        codes = BinaryCodes(bits=bits, count=N, packed=pack_bits(signs))
        q = pack_bits(rng.integers(0, 2, size=(1, bits)).astype(bool))[0]
        np.testing.assert_array_equal(
            hamming.hamming_topk(codes, q, k),
            _naive_hamming_order(codes.packed, q, bits)[:k])
        base = rng.standard_normal((D, N))
        qv = rng.standard_normal(D)
        d = np.sum((base - qv[:, None]) ** 2, axis=0)
        np.testing.assert_array_equal(
            hamming.euclid_topk(base.T, qv, k),
            np.argsort(d, kind="stable")[:k])
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _verdict(6, "retrieval oracle equivalence", ok,
             f"50 instances exact including tie-breaks, {elapsed:.1f}s")


# -- criterion 7: recall metric properties ----------------------------------

def test_criterion_7_metric_properties():
    rng = np.random.default_rng(3)
    # generic curve: non-decreasing and hits 1 at K = N
    base_pts = rng.standard_normal((6, 500)).T
    query_pts = rng.standard_normal((6, 50)).T
    w1 = rng.standard_normal((16, 6))
    from autojacobin.network import NetworkParams
    p = NetworkParams(w1=w1, w2=np.zeros((6, 16)), b1=np.zeros(16),
                      b2=np.zeros(6))
    gt = hamming.build_groundtruth(base_pts, query_pts, 5)
    curve = hamming.recall_curve(gt, hamming.encode(p, base_pts),
                                 hamming.encode(p, query_pts), 500)
    monotone = bool(np.all(np.diff(curve.values) >= 0.0))
    ends_at_one = curve.values[-1] == 1.0

    # constant curve: m-recall equals the constant exactly
    const = hamming.RecallCurve(values=np.full(64, 0.375), k=1, K=64)
    const_exact = hamming.m_recall(const) == 0.375

    # random codes, k = 1: curve stays inside the 3-sigma binomial band
    N, Q = 2000, 200
    base_pts = rng.standard_normal((8, N)).T
    query_pts = rng.standard_normal((8, Q)).T
    gt = hamming.build_groundtruth(base_pts, query_pts, 1)
    bc = BinaryCodes(bits=32, count=N,
                     packed=pack_bits(rng.integers(0, 2, (N, 32)).astype(bool)))
    qc = BinaryCodes(bits=32, count=Q,
                     packed=pack_bits(rng.integers(0, 2, (Q, 32)).astype(bool)))
    rand_curve = hamming.recall_curve(gt, bc, qc, N)
    i = np.arange(1, N + 1)
    expect = i / N
    sigma = np.sqrt(expect * (1 - expect) / Q)
    in_band = bool(np.all(np.abs(rand_curve.values - expect) <= 3 * sigma + 1e-12))

    ok = monotone and ends_at_one and const_exact and in_band
    _verdict(7, "metric properties", ok,
             f"monotone={monotone}, recall@N=1: {ends_at_one}, "
             f"constant m-recall exact: {const_exact}, "
             f"random-code curve in 3-sigma band: {in_band}")


# -- criterion 8: method ordering on a desk-scale proxy ---------------------

def _proxy_train_eval(data, run_dir):
    run_dir.mkdir(parents=True, exist_ok=True)
    train_f, base_f, query_f = data
    results = {}
    for name, extra in (("ajb", ["--epochs", "25", "--batch", "1000"]),
                        ("lsh", ["--method", "lsh"])):
        model = run_dir / f"{name}.ajb"
        assert main(["train", "--input", str(train_f), "--bits", "32",
                     "--seed", "7", "--out", str(model)] + extra) == 0
        out_dir = run_dir / f"{name}_eval"
        assert main(["eval", "--model", str(model), "--base", str(base_f),
                     "--query", str(query_f), "--k", "10",
                     "--max-retrieve", "2000", "--out-dir", str(out_dir)]) == 0
        line = (out_dir / "m_recall.csv").read_text().strip().splitlines()[1]
        results[name] = float(line.split(",")[1])
    return results


@pytest.fixture(scope="module")
def proxy_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("proxy")
    rng = np.random.default_rng(7)
    Xtr, mp = synth.curved_manifold(2000, 8, 64, rng, noise=0.01)
    base = synth.curved_manifold_more(20000, mp, rng)
    queries = synth.curved_manifold_more(200, mp, rng)
    paths = (root / "train.fvecs", root / "base.fvecs", root / "query.fvecs")
    for path, X in zip(paths, (Xtr, base, queries)):
        matrix_io.write_fvecs(path, X)
    return root, paths


@pytest.fixture(scope="module")
def proxy_run(proxy_data):
    root, paths = proxy_data
    t0 = time.perf_counter()
    results = _proxy_train_eval(paths, root / "run1")
    return results, time.perf_counter() - t0


def test_criterion_8_method_ordering(proxy_run):
    results, elapsed = proxy_run
    ok = results["ajb"] >= results["lsh"] and elapsed < 900.0
    _verdict(8, "method ordering", ok,
             f"m-Recall auto-jacobin {results['ajb']:.4f} >= "
             f"lsh {results['lsh']:.4f} (32 bits, 20000 base / 200 query, "
             f"k=10, K=2000), {elapsed:.0f}s")


# -- criterion 9: bitwise determinism of repeated runs ----------------------

def test_criterion_9_determinism(tmp_path, proxy_data, proxy_run):
    toy_files = ("toy.ajb", "toy.ajbc", "toy_summary.csv", "toy_trace.csv")
    dirs = (tmp_path / "toy_a", tmp_path / "toy_b")
    for d in dirs:
        assert main(["toy", "--seed", "0", "--out-dir", str(d)]) == 0
    toy_same = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
                   for f in toy_files)

    root, paths = proxy_data
    results2 = _proxy_train_eval(paths, root / "run2")
    proxy_same = True
    for f in ("ajb.ajb", "lsh.ajb", "ajb_eval/recall_k10.csv",
              "ajb_eval/m_recall.csv", "lsh_eval/recall_k10.csv",
              "lsh_eval/m_recall.csv"):
        proxy_same &= (root / "run1" / f).read_bytes() == \
                      (root / "run2" / f).read_bytes()
    ok = toy_same and proxy_same
    _verdict(9, "determinism", ok,
             f"toy reruns byte-identical: {toy_same}, "
             f"proxy reruns byte-identical: {proxy_same} "
             f"(m-Recall rerun {results2['ajb']:.4f})")

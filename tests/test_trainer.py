import sys
import warnings

import numpy as np
import pytest

from autojacobin import network, synth, tangent, matrix_io
from autojacobin.network import ObjectiveConfig, objective, pack_params
from autojacobin.trainer import (
    LineSearchError,
    TrainConfig,
    _lbfgs_direction,
    init_params,
    train,
    wolfe_step,
    write_trace_csv,
)
from autojacobin.variants import VariantConfig


def _toy_setup(seed=0, n=200):
    rng = np.random.default_rng(seed)
    X = synth.simplex_points(n, rng)
    nz = matrix_io.fit_normalizer(X)
    Xn = matrix_io.apply_normalizer(nz, X)
    projs = [tangent.projector(t) for t in tangent.estimate_all_tangents(Xn, 3)]
    return Xn, projs


def test_init_params_shapes_and_relations():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 100))
    p = init_params(X, 4, 0)
    assert p.w1.shape == (4, 6) and p.w2.shape == (6, 4)
    np.testing.assert_allclose(p.w2, p.w1.T)
    mu = X.mean(axis=1)
    np.testing.assert_allclose(p.b1, -p.w1 @ mu)
    np.testing.assert_allclose(p.b2, mu)
    # rows of W1 orthonormal (rotation times orthonormal PCA rows)
    np.testing.assert_allclose(p.w1 @ p.w1.T, np.eye(4), atol=1e-10)


def test_init_params_full_rank_square_is_orthogonal():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 80))
    p = init_params(X - X.mean(axis=1, keepdims=True), 5, 1)
    np.testing.assert_allclose(p.w2 @ p.w1, np.eye(5), atol=1e-10)


def test_init_params_mean_point_maps_to_zero_hidden():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 60)) + 3.0
    p = init_params(X, 2, 2)
    np.testing.assert_allclose(p.w1 @ X.mean(axis=1) + p.b1, 0.0, atol=1e-10)


def test_init_params_deterministic():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 50))
    a, b = init_params(X, 3, 7), init_params(X, 3, 7)
    assert a.w1.tobytes() == b.w1.tobytes()
    assert a.b1.tobytes() == b.b1.tobytes()


def test_init_params_low_rank_warns():
    X = np.zeros((3, 50))
    X[0] = np.linspace(0, 1, 50)
    with pytest.warns(UserWarning):
        init_params(X, 3, 0)


def test_init_params_rejects_more_bits_than_dimensions():
    # d > D is an error, raised before any rank warning
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4, 50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            init_params(X, 5, 0)


def test_wolfe_on_quadratic():
    # f(theta) = 0.5 ||theta||^2: exact minimizing step is 1
    def f(t):
        return 0.5 * float(t @ t), t

    theta = np.array([1.0, 0.0])
    step, evals, fallback = wolfe_step(theta, theta.copy(), f)
    assert not fallback
    val = 0.5 * float(np.sum((theta - step * theta) ** 2))
    g0 = float(theta @ theta)
    assert val <= 0.5 * g0 - 1e-4 * step * g0  # sufficient decrease


def test_wolfe_conditions_hold_on_convex_1d():
    def f(t):
        x = t[0]
        return x * x + x, np.array([2 * x + 1])

    theta = np.array([1.0])
    f0, g0 = f(theta)
    step, evals, fallback = wolfe_step(theta, g0, f, c1=1e-4, c2=0.9)
    assert not fallback and step > 0
    v, g = f(theta - step * g0)
    gg = float(g0 @ g0)
    assert v <= f0 - 1e-4 * step * gg
    assert abs(float(g @ g0)) <= 0.9 * gg


def test_wolfe_zero_gradient_is_noop():
    step, evals, fallback = wolfe_step(np.ones(3), np.zeros(3),
                                       lambda t: (0.0, np.zeros(3)))
    assert step == 0.0 and not fallback


def test_wolfe_nonfinite_everywhere_raises():
    def f(t):
        return np.inf, np.ones(1)

    with pytest.raises(LineSearchError):
        wolfe_step(np.zeros(1), np.ones(1), f, f0=1.0)


def test_lbfgs_direction_matches_dense_bfgs():
    # the two-loop recursion equals -H g for the inverse-Hessian estimate
    # built by dense BFGS updates from H0 = (s'y / y'y) I of the newest pair
    rng = np.random.default_rng(0)
    n = 5
    M = rng.standard_normal((n, n))
    A = M @ M.T + n * np.eye(n)
    pairs = []
    for _ in range(3):
        s = rng.standard_normal(n)
        y = A @ s
        pairs.append((s, y, 1.0 / float(s @ y)))
    s, y, _ = pairs[-1]
    H = float(s @ y) / float(y @ y) * np.eye(n)
    for s, y, rho in pairs:
        V = np.eye(n) - rho * np.outer(y, s)
        H = V.T @ H @ V + rho * np.outer(s, s)
    g = rng.standard_normal(n)
    np.testing.assert_allclose(_lbfgs_direction(g, pairs), -H @ g, rtol=1e-10)


def test_wolfe_along_newton_direction_takes_unit_step():
    A = np.diag([1.0, 10.0])

    def f(t):
        return 0.5 * float(t @ A @ t), A @ t

    theta = np.array([1.0, 1.0])
    g = A @ theta
    step, evals, fallback = wolfe_step(theta, g, f,
                                       direction=-np.linalg.solve(A, g))
    assert step == 1.0 and evals == 2 and not fallback


def test_wolfe_rejects_ascent_direction():
    def f(t):
        return 0.5 * float(t @ t), t

    theta = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        wolfe_step(theta, theta.copy(), f, direction=theta.copy())


def test_wolfe_without_sufficient_decrease_stays_put():
    # the reported slope promises descent, but every trial costs more
    def f(t):
        return 1.0 + float(np.abs(t - 1.0).sum()), np.ones(1)

    step, evals, fallback = wolfe_step(np.ones(1), np.ones(1), f, f0=1.0)
    assert step == 0.0 and fallback and evals == 20


def test_train_zero_epochs_returns_init():
    Xn, projs = _toy_setup()
    cfg = TrainConfig(bits=3, epochs=0, batch_size=100, seed=0)
    p, report = train(Xn, projs, cfg)
    ref = init_params(Xn, 3, np.random.default_rng(0))
    np.testing.assert_array_equal(p.w1, ref.w1)
    assert report.cost_trace == []


def test_train_cost_decreases_on_toy():
    Xn, projs = _toy_setup()
    cfg = TrainConfig(bits=3, epochs=5, batch_size=20, total_iterations=50, seed=0,
                      method=VariantConfig(kind="auto-jacobin"))
    p, report = train(Xn, projs, cfg)
    assert len(report.cost_trace) == 50
    p0 = init_params(Xn, 3, np.random.default_rng(0))
    ocfg = ObjectiveConfig(alpha=0.1, epsilon=1e-4)
    f0, _, _ = objective(p0, Xn, projs, ocfg)
    f1, _, _ = objective(p, Xn, projs, ocfg)
    assert f1 < f0


def test_train_same_seed_identical_trace():
    Xn, projs = _toy_setup()
    cfg = TrainConfig(bits=3, epochs=2, batch_size=50, seed=4)
    p1, r1 = train(Xn, projs, cfg)
    p2, r2 = train(Xn, projs, cfg)
    assert pack_params(p1).tobytes() == pack_params(p2).tobytes()
    assert [t.total for t in r1.cost_trace] == [t.total for t in r2.cost_trace]
    assert r1.epoch_costs == r2.epoch_costs


def test_train_accepted_steps_satisfy_sufficient_decrease():
    Xn, projs = _toy_setup(seed=1)
    cfg = TrainConfig(bits=3, epochs=2, batch_size=100, seed=1)
    _, report = train(Xn, projs, cfg)
    # rows without the fallback flag must reflect an actual decrease of the
    # batch objective; the trace records the pre-step cost per iteration
    totals = [r.total for r in report.cost_trace]
    assert any(not r.fallback for r in report.cost_trace)
    assert totals[-1] < totals[0]


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_train_reaches_autobin_minimum_on_toy():
    # AutoBin on the full 1000-point toy: 300 full-batch iterations of
    # steepest descent stall near cost 283, a quasi-Newton trainer gets
    # below 50. Every accepted step satisfies sufficient decrease, so the
    # traced cost never rises; the columns are reshuffled each epoch, so
    # equal costs may differ by summation-order rounding.
    rng = np.random.default_rng(0)
    X = synth.simplex_points(1000, rng)
    Xn = matrix_io.apply_normalizer(matrix_io.fit_normalizer(X), X)
    cfg = TrainConfig(bits=3, epochs=300, batch_size=1000, seed=0,
                      method=VariantConfig(kind="autobin"))
    _, report = train(Xn, None, cfg)
    assert len(report.cost_trace) <= 300
    assert report.epoch_costs[-1][1] < 100.0
    totals = [r.total for r in report.cost_trace]
    rises = [(i + 1, a, b) for i, (a, b) in enumerate(zip(totals, totals[1:]))
             if b > a * (1.0 + 1e-12)]
    assert rises == []


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_full_batch_run_stops_once_no_step_lowers_the_cost():
    # AutoBin on 30 toy points converges within 400 full-batch iterations.
    # Once neither the L-BFGS direction nor -g lowers the cost, every later
    # iteration would repeat that search (same batch, same point), using the
    # whole line-search budget each time.
    rng = np.random.default_rng(0)
    X = synth.simplex_points(30, rng)
    Xn = matrix_io.apply_normalizer(matrix_io.fit_normalizer(X), X)
    cfg = TrainConfig(bits=3, epochs=400, batch_size=30, seed=0,
                      method=VariantConfig(kind="autobin"))
    _, report = train(Xn, None, cfg)
    n = len(report.cost_trace)
    assert n < 400
    assert len(report.epoch_costs) == n  # the last epoch is still costed
    full = [r.iteration for r in report.cost_trace
            if r.evals >= cfg.wolfe_max_evals]
    assert len(full) <= 5
    # mini-batches differ from one iteration to the next: no early stop
    cfg_mb = TrainConfig(bits=3, epochs=60, batch_size=15, seed=0,
                         method=VariantConfig(kind="autobin"))
    assert len(train(Xn, None, cfg_mb)[1].cost_trace) == 120


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_train_weights_jacobian_term_by_region_variance():
    # tangent bases carry their neighborhoods, and so the weight of the
    # Jacobian term; plain projectors get the unit weight of objective()
    rng = np.random.default_rng(1)
    X = synth.simplex_points(80, rng)
    Xn = matrix_io.apply_normalizer(matrix_io.fit_normalizer(X), X)
    bases = tangent.estimate_all_tangents(Xn, 3)
    projs = [tangent.projector(t) for t in bases]
    cfg = TrainConfig(bits=3, epochs=1, batch_size=80, seed=3,
                      method=VariantConfig(kind="auto-jacobin"))
    w = tangent.region_variance(bases)
    row_b = train(Xn, bases, cfg)[1].cost_trace[0]
    row_p = train(Xn, projs, cfg)[1].cost_trace[0]
    assert 0.0 < w < 1.0
    assert row_b.recon == row_p.recon and row_b.binary == row_p.binary
    assert row_b.jacobian == pytest.approx(w * row_p.jacobian, rel=1e-12)
    p0 = init_params(Xn, 3, np.random.default_rng(3))
    unit = objective(p0, Xn, projs, ObjectiveConfig(alpha=0.1, epsilon=1e-4))[1]
    assert row_p.jacobian == pytest.approx(unit.jacobian, rel=1e-12)


def test_train_variants_run():
    Xn, _ = _toy_setup(seed=2, n=120)
    for kind in ("autobin", "dautobin", "cautobin"):
        cfg = TrainConfig(bits=3, epochs=2, batch_size=60, seed=2,
                          method=VariantConfig(kind=kind))
        p, report = train(Xn, None, cfg)
        assert len(report.cost_trace) == 4
        assert np.all(np.isfinite(p.w1))


@pytest.mark.parametrize("kind", ["auto-jacobin", "dautobin"])
def test_train_runs_one_forward_pass_per_evaluation(monkeypatch, kind):
    # value and gradient come from one pass: one per iteration start, per
    # line-search evaluation, per accepted point not already evaluated,
    # and per epoch cost
    Xn, projs = _toy_setup(seed=3, n=120)
    calls = []
    forward_batch = network.forward_batch

    def counting(p, X):
        calls.append(X.shape[1])
        return forward_batch(p, X)

    # every module that bound the function by name
    for name, mod in list(sys.modules.items()):
        if (name.startswith("autojacobin")
                and getattr(mod, "forward_batch", None) is forward_batch):
            monkeypatch.setattr(mod, "forward_batch", counting)
    cfg = TrainConfig(bits=3, epochs=3, batch_size=40, seed=3,
                      method=VariantConfig(kind=kind))
    _, report = train(Xn, projs if kind == "auto-jacobin" else None, cfg)
    evals = sum(r.evals for r in report.cost_trace)
    iterations = len(report.cost_trace)
    assert iterations == 9 and evals > iterations
    assert len(calls) <= evals + 2 * iterations + len(report.epoch_costs)


def test_train_batch_size_validation():
    Xn, projs = _toy_setup(n=50)
    with pytest.raises(ValueError):
        train(Xn, projs, TrainConfig(bits=3, epochs=1, batch_size=51))
    with pytest.raises(ValueError):
        TrainConfig(bits=3, epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(bits=3, wolfe_c1=0.5, wolfe_c2=0.1)


def test_train_requires_tangents_for_jacobian_method():
    Xn, _ = _toy_setup(n=60)
    with pytest.raises(ValueError):
        train(Xn, None, TrainConfig(bits=3, epochs=1, batch_size=30))


def test_every_point_in_exactly_one_batch_per_epoch():
    # shuffle partition property, recovered from a tiny instrumented run
    rng = np.random.default_rng(5)
    N, bs = 37, 10
    perm = rng.permutation(N)
    m = N // bs
    bounds = [bs * j for j in range(m)] + [N]
    seen = np.concatenate([perm[bounds[j]:bounds[j + 1]] for j in range(m)])
    assert sorted(seen.tolist()) == list(range(N))


def test_trace_csv_format(tmp_path):
    Xn, projs = _toy_setup(n=60)
    cfg = TrainConfig(bits=3, epochs=1, batch_size=30, seed=0)
    _, report = train(Xn, projs, cfg)
    out = tmp_path / "trace.csv"
    write_trace_csv(out, report)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,total,recon,jacobian,binary,step,evals,fallback"
    assert len(lines) == 1 + len(report.cost_trace)
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(report.cost_trace[0].total)

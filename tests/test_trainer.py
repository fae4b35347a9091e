import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from autojacobin import network, synth, tangent, matrix_io, trainer
from autojacobin.network import ObjectiveConfig, objective, pack_params
from autojacobin.trainer import (
    LineSearchError,
    TrainConfig,
    _lbfgs_direction,
    fit,
    init_params,
    train,
    wolfe_step,
    write_trace_csv,
)
from autojacobin.variants import VariantConfig, lsh_generate


def _toy_setup(seed=0, n=200):
    rng = np.random.default_rng(seed)
    X = synth.simplex_points(n, rng)
    nz = matrix_io.fit_normalizer(X)
    Xn = matrix_io.apply_normalizer(nz, X)
    projs = [tangent.projector(t) for t in tangent.estimate_all_tangents(Xn, 3)]
    return Xn, projs


def test_init_params_shapes_and_relations():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 100)).T
    p = init_params(X, 4, 0)
    assert p.w1.shape == (4, 6) and p.w2.shape == (6, 4)
    np.testing.assert_allclose(p.w2, p.w1.T)
    mu = X.mean(axis=0)
    np.testing.assert_allclose(p.b1, -p.w1 @ mu)
    np.testing.assert_allclose(p.b2, mu)
    # rows of W1 orthonormal (rotation times orthonormal PCA rows)
    np.testing.assert_allclose(p.w1 @ p.w1.T, np.eye(4), atol=1e-10)


def test_init_params_full_rank_square_is_orthogonal():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 80)).T
    p = init_params(X - X.mean(axis=0), 5, 1)
    np.testing.assert_allclose(p.w2 @ p.w1, np.eye(5), atol=1e-10)


def test_init_params_mean_point_maps_to_zero_hidden():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 60)).T + 3.0
    p = init_params(X, 2, 2)
    np.testing.assert_allclose(p.w1 @ X.mean(axis=0) + p.b1, 0.0, atol=1e-10)


def test_init_params_deterministic():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 50)).T
    a, b = init_params(X, 3, 7), init_params(X, 3, 7)
    assert a.w1.tobytes() == b.w1.tobytes()
    assert a.b1.tobytes() == b.b1.tobytes()


def test_init_params_low_rank_warns():
    X = np.zeros((50, 3))
    X[:, 0] = np.linspace(0, 1, 50)
    with pytest.warns(UserWarning):
        init_params(X, 3, 0)


def test_init_params_rejects_more_bits_than_dimensions():
    # d > D is an error, raised before any rank warning
    rng = np.random.default_rng(4)
    X = rng.standard_normal((4, 50)).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            init_params(X, 5, 0)


def test_wolfe_on_quadratic():
    # f(theta) = 0.5 ||theta||^2: exact minimizing step is 1
    def f(t):
        return 0.5 * float(t @ t), t

    theta = np.array([1.0, 0.0])
    step, evals, fallback, value, grad = wolfe_step(theta, theta.copy(), f, f0=0.5)
    assert not fallback
    val = 0.5 * float(np.sum((theta - step * theta) ** 2))
    assert value == val
    np.testing.assert_array_equal(grad, theta - step * theta)
    g0 = float(theta @ theta)
    assert val <= 0.5 * g0 - 1e-4 * step * g0  # sufficient decrease


def test_wolfe_conditions_hold_on_convex_1d():
    def f(t):
        x = t[0]
        return x * x + x, np.array([2 * x + 1])

    theta = np.array([1.0])
    f0, g0 = f(theta)
    step, evals, fallback, value, grad = wolfe_step(theta, g0, f, f0=f0)
    assert not fallback and step > 0
    v, g = f(theta - step * g0)
    assert value == v and grad.tobytes() == g.tobytes()
    gg = float(g0 @ g0)
    assert v <= f0 - 1e-4 * step * gg
    assert abs(float(g @ g0)) <= 0.9 * gg


def test_wolfe_zero_gradient_is_noop():
    g = np.zeros(3)
    step, evals, fallback, value, grad = wolfe_step(
        np.ones(3), g, lambda t: (0.0, np.zeros(3)), f0=2.0)
    assert step == 0.0 and not fallback and evals == 0
    assert value == 2.0 and grad is g


def test_wolfe_nonfinite_everywhere_raises():
    def f(t):
        return np.inf, np.ones(1)

    with pytest.raises(LineSearchError) as err:
        wolfe_step(np.zeros(1), np.ones(1), f, f0=1.0)
    assert err.value.evals == 20  # the error carries its evaluation count


def test_wolfe_fallback_returns_value_and_gradient_of_its_best_trial():
    # phi(a) = -a up to a = 4 and NaN beyond: the slope never flattens, the
    # bracket ends at [4, 8] and every later trial is NaN, so the best
    # sufficient decrease (a = 4) is not the last trial
    def f(t):
        a = -t[0]
        return (-a if a <= 4.0 else np.nan), np.array([1.0, a])

    step, evals, fallback, value, grad = wolfe_step(
        np.zeros(2), np.array([1.0, 0.0]), f, f0=0.0)
    assert (step, evals, fallback, value) == (4.0, 20, True, -4.0)
    np.testing.assert_array_equal(grad, [1.0, 4.0])


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
    step, evals, fallback, value, _ = wolfe_step(theta, g, f, f0=f(theta)[0],
                                                 direction=-np.linalg.solve(A, g))
    assert step == 1.0 and evals == 1 and not fallback and value == 0.0


def test_wolfe_rejects_ascent_direction():
    def f(t):
        return 0.5 * float(t @ t), t

    theta = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        wolfe_step(theta, theta.copy(), f, f0=0.5, direction=theta.copy())


def test_wolfe_without_sufficient_decrease_stays_put():
    # the reported slope promises descent, but every trial costs more
    def f(t):
        return 1.0 + float(np.abs(t - 1.0).sum()), np.ones(1)

    g = np.ones(1)
    step, evals, fallback, value, grad = wolfe_step(np.ones(1), g, f, f0=1.0)
    assert step == 0.0 and fallback and evals == 20
    assert value == 1.0 and grad is g  # the point it stays at: (f0, g)


def _piecewise_linear(knots, slopes):
    """phi(a) -> (value, slope): 0 at a = 0, slope slopes[i] up to
    knots[i], the last slope beyond the last knot."""

    def phi(a):
        v, x = 0.0, 0.0
        for k, s in zip(knots + [np.inf], slopes):
            if a <= k:
                return v + s * (a - x), s
            v, x = v + s * (k - x), k

    return phi


# one 1-D search per branch of wolfe_step: (phi(a) -> (value, slope), the
# first trial step, every trial step in order, (step, evals, fallback, value))
_WOLFE_PINS = {
    # curvature fails with the slope still down: double, then accept
    "expand": (lambda a: ((a - 3.0) ** 2 - 9.0, 2.0 * (a - 3.0)), 0.25,
               [0.25, 0.5], (0.5, 2, False, -2.75)),
    # sufficient decrease but a steep upward slope: the bracket is [0, 1]
    # from its far end, and the interpolant finds the minimum
    "slope_turns_up": (lambda a: ((a - 0.51) ** 2 - 0.2601, 2.0 * (a - 0.51)), 1.0,
                       [1.0, 0.51], (0.51, 2, False, -0.2601)),
    # no sufficient decrease: interpolate inside [0, 1]
    "no_decrease": (lambda a: ((a - 0.3) ** 2 - 0.09, 2.0 * (a - 0.3)), 1.0,
                    [1.0, 0.30000000000000004], (0.30000000000000004, 2, False, -0.09)),
    # a non-finite trial ends the bracket; its midpoint is tried next
    "non_finite": (lambda a: ((a - 0.3) ** 2 - 0.09, 2.0 * (a - 0.3)) if a < 0.6
                   else (np.nan, np.nan), 1.0,
                   [1.0, 0.5], (0.5, 2, False, -0.04999999999999999)),
    # the second trial decreases enough but lies above the first
    "rise_while_expanding": (_piecewise_linear([0.3], [-1.0, 0.5]), 0.25,
                             [0.25, 0.5, 0.35416666666666663],
                             (0.35416666666666663, 3, False, -0.2729166666666667)),
    # a zoom trial past the kink slopes up, so the bracket's far end moves
    # to its near end; the next trial lies above the new near end
    "zoom_swaps_then_rises": (_piecewise_linear([0.17, 0.2], [-1.0, -0.1, 2.0]), 1.0,
                              [1.0, 0.20601565718994644, 0.13194506206358425,
                               0.1750475832004876],
                              (0.1750475832004876, 4, False, -0.17050475832004877)),
}


@pytest.mark.parametrize("case", _WOLFE_PINS)
def test_wolfe_trial_steps_are_pinned(case):
    phi, initial_step, trials, result = _WOLFE_PINS[case]
    seen = []

    def f(t):
        seen.append(float(t[0]))
        v, dv = phi(float(t[0]))
        return v, np.array([dv])

    v0, dv0 = phi(0.0)
    step, evals, fallback, value, grad = wolfe_step(
        np.zeros(1), np.array([dv0]), f, f0=v0, initial_step=initial_step,
        direction=np.ones(1))
    assert seen == trials
    assert (step, evals, fallback, value) == result
    assert grad[0] == phi(step)[1]


def test_wolfe_never_compares_its_first_trial_with_the_start():
    # phi is flat and the sufficient-decrease margin 1e-4 * 1e-13 rounds
    # away next to 1.0, so the first trial passes both conditions; only a
    # later trial is tested against the value before it
    seen = []

    def f(t):
        seen.append(float(t[0]))
        return 1.0, np.zeros(1)

    step, evals, fallback, value, grad = wolfe_step(
        np.zeros(1), np.array([np.sqrt(1e-13)]), f, f0=1.0)
    assert seen == [-np.sqrt(1e-13)]
    assert (step, evals, fallback, value) == (1.0, 1, False, 1.0)


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
    full = [r.iteration for r in report.cost_trace if r.evals >= trainer.WOLFE_MAX_EVALS]
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
    w = bases.region_variance
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


@pytest.mark.parametrize("kind,batch_size", [
    pytest.param("auto-jacobin", 40, id="auto-jacobin"),
    pytest.param("dautobin", 40, id="dautobin"),
    pytest.param("autobin", 120, id="autobin-full-batch"),
])
def test_train_runs_one_forward_pass_per_evaluation(monkeypatch, kind, batch_size):
    # value and gradient come from one pass: one per iteration start and
    # one per line-search evaluation, writing each row chunk of the batch
    # once (these batches are one chunk each); the search returns its
    # accepted point, and no epoch runs a pass of its own
    Xn, projs = _toy_setup(seed=3, n=120)
    calls = []
    forward_rows = network._forward_rows

    def counting(p, X, f):
        calls.append(len(X))
        return forward_rows(p, X, f)

    monkeypatch.setattr(network, "_forward_rows", counting)
    cfg = TrainConfig(bits=3, epochs=3, batch_size=batch_size, seed=3,
                      method=VariantConfig(kind=kind))
    _, report = train(Xn, projs if kind == "auto-jacobin" else None, cfg)
    evals = sum(r.evals for r in report.cost_trace)
    iterations = len(report.cost_trace)
    assert iterations == 3 * (120 // batch_size) and evals > iterations
    assert calls == [batch_size] * (evals + iterations)


def test_train_objective_finite_only_at_start_raises_after_one_search(monkeypatch):
    # f is deterministic, so a failed search along -g is not repeated
    Xn, _ = _toy_setup(seed=3, n=60)
    calls = []
    objective_ = trainer.objective

    def finite_once(*args, **kwargs):
        calls.append(1)
        total, parts, grad = objective_(*args, **kwargs)
        return (total if len(calls) == 1 else np.nan), parts, grad

    monkeypatch.setattr(trainer, "objective", finite_once)
    cfg = TrainConfig(bits=3, epochs=1, batch_size=60, method=VariantConfig(kind="autobin"))
    with pytest.raises(LineSearchError) as err:
        train(Xn, None, cfg)
    assert len(calls) == 1 + 20 and err.value.evals == 20


def test_train_counts_evaluations_of_a_failed_quasi_newton_search(monkeypatch):
    # a quasi-Newton search that finds no finite value still spent its
    # evaluations; the iteration's trace row counts them with the -g search
    Xn, _ = _toy_setup(seed=3, n=60)
    searches = []
    wolfe = trainer.wolfe_step

    def failing_qn(theta, g, f, **kwargs):
        if kwargs.get("direction") is not None:
            searches.append(None)
            raise LineSearchError("no finite objective value", 20)
        result = wolfe(theta, g, f, **kwargs)
        searches.append(result[1])
        return result

    monkeypatch.setattr(trainer, "wolfe_step", failing_qn)
    cfg = TrainConfig(bits=3, epochs=3, batch_size=60, method=VariantConfig(kind="autobin"))
    _, report = train(Xn, None, cfg)
    assert None in searches  # None: a failed quasi-Newton search
    expected, row = [], 0  # every iteration ends with a search along -g
    for e in searches:
        row += 20 if e is None else e
        if e is not None:
            expected.append(row)
            row = 0
    assert [r.evals for r in report.cost_trace] == expected


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_train_clears_the_memory_after_a_non_descent_direction(monkeypatch):
    # the second iteration's L-BFGS direction ascends: its pair is dropped,
    # the search goes along -g, and the memory restarts from that step
    Xn, _ = _toy_setup(seed=0, n=200)
    lengths = []
    lbfgs_direction = trainer._lbfgs_direction

    def ascent_once(g, pairs):
        lengths.append(len(pairs))
        return g.copy() if len(lengths) == 1 else lbfgs_direction(g, pairs)

    monkeypatch.setattr(trainer, "_lbfgs_direction", ascent_once)
    cfg = TrainConfig(bits=3, epochs=4, batch_size=200, method=VariantConfig(kind="autobin"))
    _, report = train(Xn, None, cfg)
    assert len(report.cost_trace) == 4
    assert lengths == [1, 1, 2]


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_full_batch_epoch_costs_are_the_full_set_cost_at_epoch_end():
    Xn, projs = _toy_setup(seed=1, n=120)
    ocfg = ObjectiveConfig(alpha=0.1, epsilon=1e-4)
    method = VariantConfig(kind="auto-jacobin")
    costs = train(Xn, projs, TrainConfig(bits=3, epochs=3, batch_size=120, seed=1,
                                         method=method))[1].epoch_costs
    assert [e for e, _ in costs] == [1, 2, 3]
    for epochs, (_, cost) in enumerate(costs, start=1):
        # the same seed replays the same first epochs
        p, _ = train(Xn, projs, TrainConfig(bits=3, epochs=epochs, batch_size=120,
                                            seed=1, method=method))
        assert cost == pytest.approx(objective(p, Xn, projs, ocfg)[0], rel=1e-12)


def test_mini_batch_epoch_costs_sum_the_accepted_batch_costs(monkeypatch):
    # each iteration's last search returns the point it accepts
    Xn, projs = _toy_setup(seed=2, n=120)
    accepted = {}  # one entry per iteration, keyed by its start point
    wolfe = trainer.wolfe_step

    def recording(theta, g, f, **kwargs):
        result = wolfe(theta, g, f, **kwargs)
        accepted[theta.tobytes()] = result[3]
        return result

    monkeypatch.setattr(trainer, "wolfe_step", recording)
    cfg = TrainConfig(bits=3, epochs=2, batch_size=40, seed=2,
                      method=VariantConfig(kind="auto-jacobin"))
    _, report = train(Xn, projs, cfg)
    values = list(accepted.values())
    assert len(values) == len(report.cost_trace) == 6
    for epoch, cost in report.epoch_costs:
        assert cost == pytest.approx(sum(values[3 * epoch - 3:3 * epoch]), rel=1e-12)


def test_train_holds_one_copy_of_the_tangent_factors():
    # train reads the TangentSet's (N, r, D) stack in place: each 64-point
    # chunk of the Jacobian term gathers only its own rows. The peak is
    # the batch's gathered rows, forward pass and work arrays (0.03x
    # each) and the chunks' work arrays: 0.22x on numpy 2.4, above the
    # 1/r of init_params' centred copy of the data. A batch-sized gather
    # of the stack's rows (0.25x) would pass 0.4x, a whole-stack copy 1x
    rng = np.random.default_rng(6)
    N, D, r = 8000, 16, 8
    X = rng.standard_normal((D, N)).T
    Q = np.linalg.qr(rng.standard_normal((N, D, r)))[0].transpose(0, 2, 1).copy()
    bases = tangent.TangentSet(Q, np.full(N, r), region_variance=0.01)
    cfg = TrainConfig(bits=4, epochs=1, batch_size=N // 4, seed=6,
                      total_iterations=2, method=VariantConfig(kind="auto-jacobin"))
    tracemalloc.start()
    try:
        train(X, bases, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = N * D * r * 8
    assert peak < 0.4 * stack, (peak, stack)


@pytest.mark.parametrize("kind", ["autobin", "dautobin", "cautobin"])
def test_train_epochs_hold_no_copy_of_the_training_data(monkeypatch, kind):
    # each mini-batch is gathered when it is used, and DAutoBin's epoch
    # corruption is a one-byte mask, so past init_params (whose centered
    # copy of X is its own) the peak is the permutation, the 0.125x mask
    # and the batch's work arrays: 0.23x for autobin and cautobin, 0.38x
    # for dautobin on numpy 2.4. A shuffled copy of X per epoch read 1.2x,
    # and DAutoBin's float draws and corrupted copy beside it 3.2x
    rng = np.random.default_rng(10)
    D, N = 32, 16000
    X = np.ascontiguousarray(rng.standard_normal((D, N)).T)
    init = trainer.init_params

    def init_then_reset_peak(*args):
        params = init(*args)
        tracemalloc.reset_peak()
        return params

    monkeypatch.setattr(trainer, "init_params", init_then_reset_peak)
    cfg = TrainConfig(bits=8, epochs=1, batch_size=500, seed=10, total_iterations=3,
                      method=VariantConfig(kind=kind))
    tracemalloc.start()
    try:
        train(X, None, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * X.nbytes, (peak, X.nbytes)


def test_train_batch_size_validation():
    Xn, projs = _toy_setup(n=50)
    with pytest.raises(ValueError):
        train(Xn, projs, TrainConfig(bits=3, epochs=1, batch_size=51))
    with pytest.raises(ValueError):
        TrainConfig(bits=3, epochs=1, batch_size=0)


def test_train_requires_tangents_for_jacobian_method():
    Xn, _ = _toy_setup(n=60)
    with pytest.raises(ValueError):
        train(Xn, None, TrainConfig(bits=3, epochs=1, batch_size=30))


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_train_takes_a_tangent_set_or_one_factor_array_only():
    # a list of TangentBasis, factors of another D, or too few factors
    Xn, projs = _toy_setup(n=60)
    bases = tangent.estimate_all_tangents(Xn, 3)
    cfg = TrainConfig(bits=3, epochs=1, batch_size=60)
    for bad in (list(bases), [np.eye(4)] * 60, projs[:59]):
        with pytest.raises(ValueError, match=r"shape \(N, r, D\) = \(60, r, 3\)"):
            train(Xn, bad, cfg)


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_train_names_the_shape_for_a_ragged_list_of_factors():
    Xn, _ = _toy_setup(n=60)
    ragged = [np.eye(3)[:1 + i % 2] for i in range(60)]  # (1, 3), (2, 3), ...
    cfg = TrainConfig(bits=3, epochs=1, batch_size=60)
    with pytest.raises(ValueError, match=r"shape \(N, r, D\) = \(60, r, 3\), "
                                         "got factors of unequal shapes"):
        train(Xn, ragged, cfg)


def test_train_makes_no_batch_sized_copy_of_the_tangent_factors(with_workers):
    # each 64-point chunk of the Jacobian term gathers its own rows of the
    # stack, so no batch's (1000, 32, 64) gather of it, 16.4 MB, is made;
    # with one, the traced peak above the inputs was 34 MB
    rng = np.random.default_rng(9)
    N, D, r, batch = 2000, 64, 32, 1000
    X = 0.3 * rng.standard_normal((D, N)).T
    Q = np.linalg.qr(rng.standard_normal((N, D, r)))[0].transpose(0, 2, 1).copy()
    bases = tangent.TangentSet(Q, np.full(N, r), region_variance=0.01)
    cfg = TrainConfig(bits=32, epochs=1, batch_size=batch, seed=9,
                      total_iterations=2, method=VariantConfig(kind="auto-jacobin"))
    tracemalloc.start()
    try:
        with_workers(1, lambda: train(X, bases, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gather = batch * D * r * 8
    assert peak < gather, (peak, gather)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_rejects_non_finite_input(bad):
    Xn, _ = _toy_setup(n=60)
    Xn[5, 1] = bad
    Xn[7, 2] = -np.inf
    cfg = TrainConfig(bits=2, epochs=1, batch_size=60, method=VariantConfig(kind="autobin"))
    with pytest.raises(ValueError, match="2 non-finite"):
        train(Xn, None, cfg)


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_train_from_bases_forms_no_projector(monkeypatch):
    # the Jacobian term reads the (D, r) bases; no D x D projector is built
    rng = np.random.default_rng(4)
    X = synth.simplex_points(90, rng)
    Xn = matrix_io.apply_normalizer(matrix_io.fit_normalizer(X), X)
    bases = tangent.estimate_all_tangents(Xn, 3)
    projector = tangent.projector

    def refuse(*args, **kwargs):
        raise AssertionError("tangent.projector called during training")

    for name, mod in list(sys.modules.items()):
        if name.startswith("autojacobin") and getattr(mod, "projector", None) is projector:
            monkeypatch.setattr(mod, "projector", refuse)
    cfg = TrainConfig(bits=3, epochs=2, batch_size=45, seed=4,
                      method=VariantConfig(kind="auto-jacobin"))
    params, report = train(Xn, bases, cfg)
    assert len(report.cost_trace) == 4 and report.jacobian_weight > 0.0
    assert all(np.isfinite(r.jacobian) and r.jacobian > 0.0 for r in report.cost_trace)
    assert np.all(np.isfinite(params.w1))


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


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
@pytest.mark.parametrize("kind", ["auto-jacobin", "autobin"])
def test_fit_sets_the_scale_on_the_model_and_its_untrained_start(kind):
    X = 5.0 * synth.simplex_points(120, np.random.default_rng(3))
    scale = matrix_io.fit_normalizer(X)
    Xn = matrix_io.apply_normalizer(scale, X)
    cfg = TrainConfig(bits=3, epochs=1, batch_size=500, seed=3,
                      method=VariantConfig(kind=kind))
    params, report = fit(X, cfg)
    assert params.scale == report.initial.scale == scale != 1.0
    # report.initial is train's start: init_params from the seed's stream
    p0 = init_params(Xn, 3, 3)
    for name in ("w1", "w2", "b1", "b2"):
        np.testing.assert_array_equal(getattr(report.initial, name), getattr(p0, name))
    # the batch is clamped to N, so this equals training on the whole set
    ref, _ = train(Xn, tangent.estimate_all_tangents(Xn, 3)
                   if kind == "auto-jacobin" else None,
                   TrainConfig(bits=3, epochs=1, batch_size=120, seed=3,
                               method=VariantConfig(kind=kind)))
    np.testing.assert_array_equal(params.w1, ref.w1)


@pytest.mark.parametrize("kind", ["autobin", "lsh"])
def test_fit_drops_a_handed_over_matrix_once_normalized(monkeypatch, kind):
    # the pop of a one-item list hands the matrix over: fit empties the
    # list, and with no reference left the matrix is gone before
    # init_params runs, on any CPython; a matrix passed as itself is left
    # as it was
    X = np.random.default_rng(4).standard_normal((6, 200)).T
    before = X.copy()
    cfg = TrainConfig(bits=4, epochs=1, batch_size=100, seed=4,
                      method=VariantConfig(kind=kind))
    kept, _ = fit(X, cfg)
    np.testing.assert_array_equal(X, before)

    alive, init = [], trainer.init_params
    monkeypatch.setattr(trainer, "init_params",
                        lambda *args: alive.append(raw() is not None) or init(*args))
    handed, raw = [X], weakref.ref(X)
    del X
    params, _ = fit(handed.pop, cfg)
    assert handed == [] and raw() is None
    assert alive == ([False] if kind == "autobin" else [])
    for name in ("w1", "w2", "b1", "b2", "scale"):
        np.testing.assert_array_equal(getattr(params, name), getattr(kept, name))


def test_fit_lsh_is_the_scaled_random_projection():
    X = np.random.default_rng(1).standard_normal((7, 40)).T
    params, report = fit(X, TrainConfig(bits=5, seed=9, method=VariantConfig(kind="lsh")))
    ref = lsh_generate(7, 5, 9, scale=matrix_io.fit_normalizer(X))
    assert report is None
    assert params.scale == ref.scale
    for name in ("w1", "w2", "b1", "b2"):
        np.testing.assert_array_equal(getattr(params, name), getattr(ref, name))


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_fit_sets_the_scale_on_the_parameters_of_a_failed_search(monkeypatch):
    X = 5.0 * synth.simplex_points(60, np.random.default_rng(2))
    scale = matrix_io.fit_normalizer(X)

    def non_finite(*args, **kwargs):
        total, parts, g = objective(*args, **kwargs)
        return np.nan, parts, g

    monkeypatch.setattr(trainer, "objective", non_finite)
    with pytest.raises(LineSearchError) as exc:
        fit(X, TrainConfig(bits=3, epochs=1, batch_size=60,
                           method=VariantConfig(kind="autobin")))
    assert exc.value.params.scale == scale != 1.0

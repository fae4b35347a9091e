import numpy as np
import pytest

from autojacobin import matrix_io, network, synth, tangent
from autojacobin.checks import check_gradients, fd_gradient, random_instance
from autojacobin.network import (
    _JAC_CHUNK,
    FactorRows,
    NetworkParams,
    ObjectiveConfig,
    _factor_rows,
    _jacobian_chunk,
    _jacobian_term,
    _kron_rows,
    forward_batch,
    gram_norms,
    objective,
    pack_params,
    unpack_params,
)
from autojacobin.trainer import init_params
from autojacobin.variants import VariantConfig


def _projectors(factors):
    """The D x D targets T T' of an (n, D, r) stack of factors."""
    return factors @ np.swapaxes(factors, 1, 2)


def _zero_params(D, d):
    return NetworkParams(w1=np.zeros((d, D)), w2=np.zeros((D, d)),
                         b1=np.zeros(d), b2=np.zeros(D))


def _forward(p, x):
    """(y, z) of one point: forward_batch on one row."""
    Y, Z = forward_batch(p, np.asarray(x, dtype=np.float64)[None, :])
    return Y[0], Z[0]


def _jacobian(p, x):
    """Dense input-output Jacobian of one point, J(i, j) = d z_j / d x_i."""
    y, z = _forward(p, x)
    return p.w1.T @ (p.w2.T * np.outer(1.0 - y**2, 1.0 - z**2))


def _fd_error(p, batch, tangents, cfg, h=1e-6):
    """Max |analytic - fd| / max(1, |fd|) of the objective's gradient."""
    analytic = objective(p, batch, tangents, cfg)[2]
    fd = fd_gradient(lambda t: objective(unpack_params(t, p), batch, tangents, cfg)[0],
                     pack_params(p), h)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))


def test_forward_zero_params():
    y, z = _forward(_zero_params(3, 2), [0.4, -0.1, 2.0])
    np.testing.assert_array_equal(y, np.zeros(2))
    np.testing.assert_array_equal(z, np.zeros(3))


def test_forward_scalar_chain():
    p = NetworkParams(w1=np.array([[1.0]]), w2=np.array([[1.0]]),
                      b1=np.zeros(1), b2=np.zeros(1))
    y, z = _forward(p, [0.5])
    assert y[0] == pytest.approx(np.tanh(0.5), abs=1e-12)
    assert z[0] == pytest.approx(np.tanh(np.tanh(0.5)), abs=1e-12)


def test_forward_linearizes_at_small_weights():
    rng = np.random.default_rng(0)
    c = 1e-4
    p = NetworkParams(w1=c * rng.standard_normal((3, 4)),
                      w2=c * rng.standard_normal((4, 3)),
                      b1=np.zeros(3), b2=np.zeros(4))
    x = rng.standard_normal(4)
    z = _forward(p, x)[1]
    np.testing.assert_allclose(z, p.w2 @ (p.w1 @ x), atol=1e-10)


def test_forward_batch_matches_single():
    # each row of a batch is computed as if it were alone
    p, batch, _ = random_instance(5, 3, 7, seed=1)
    Y, Z = forward_batch(p, batch)
    assert Y.shape == (7, 3) and Z.shape == (7, 5)
    for j in range(7):
        y, z = _forward(p, batch[j])
        np.testing.assert_allclose(Y[j], y, atol=1e-14)
        np.testing.assert_allclose(Z[j], z, atol=1e-14)
    assert np.all(np.abs(Y) < 1) and np.all(np.abs(Z) < 1)


def test_jacobian_zero_params():
    J = _jacobian(_zero_params(4, 2), np.zeros(4))
    np.testing.assert_array_equal(J, np.zeros((4, 4)))


def test_jacobian_linear_regime():
    rng = np.random.default_rng(2)
    c = 1e-4
    p = NetworkParams(w1=c * rng.standard_normal((3, 5)),
                      w2=c * rng.standard_normal((5, 3)),
                      b1=np.zeros(3), b2=np.zeros(5))
    x = 0.05 * rng.standard_normal(5)  # keep tanh curvature negligible
    J = _jacobian(p, x)
    ref = (p.w2 @ p.w1).T
    assert np.max(np.abs(J - ref)) / np.max(np.abs(ref)) < 1e-10


def test_jacobian_matches_finite_differences():
    p, batch, _ = random_instance(6, 3, 1, seed=3)
    x = batch[0]
    J = _jacobian(p, x)
    h = 1e-6
    fd = np.empty((6, 6))
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        fd[i] = (_forward(p, x + e)[1] - _forward(p, x - e)[1]) / (2 * h)
    assert np.max(np.abs(J - fd)) < 1e-7


def test_objective_alpha_zero_drops_binary():
    p, batch, factors = random_instance(5, 3, 4, seed=4)
    total, parts, _ = objective(p, batch, factors, ObjectiveConfig(alpha=0.0))
    assert parts.binary == 0.0
    assert total == pytest.approx(parts.recon + parts.jacobian)


def test_objective_closed_form_at_zero():
    d, D, alpha, eps = 3, 4, 0.1, 1e-4
    p = _zero_params(D, d)
    batch = np.zeros((1, D))
    total, parts, _ = objective(p, batch, [np.zeros((D, D))],
                             ObjectiveConfig(alpha=alpha, epsilon=eps))
    assert parts.recon == 0.0 and parts.jacobian == 0.0
    expect = alpha * (d * np.sqrt(1 + eps) + d * (d - 1) * np.sqrt(eps))
    assert parts.binary == pytest.approx(expect, rel=1e-12)


def test_objective_matches_naive_loop():
    p, batch, factors = random_instance(6, 3, 5, seed=5)
    projs = _projectors(factors)
    cfg = ObjectiveConfig(alpha=0.1, epsilon=1e-4)
    total, _, _ = objective(p, batch, factors, cfg)

    # independent scalar-loop reference
    ref = 0.0
    Ys = []
    for j in range(5):
        y, z = _forward(p, batch[j])
        Ys.append(y)
        ref += float(np.sum((batch[j] - z) ** 2))
        ref += float(np.sum((_jacobian(p, batch[j]) - projs[j]) ** 2))
    Y = np.stack(Ys, axis=1)
    S = Y @ Y.T - 5 * np.eye(3)
    for a in S.ravel():
        ref += cfg.alpha * np.sqrt(a * a + cfg.epsilon)
    assert total == pytest.approx(ref, rel=1e-10)


def _dense_jacobian_term(p, Xin, Y, Z, targets, weight):
    """w sum_n ||J_n - A_n||_F^2 and its gradient on stacked D x D targets
    A_n, by dense einsums over (n, D, D) arrays: the reference for the
    factored network._jacobian_term."""
    value = 0.0
    total = [np.zeros_like(p.w1), np.zeros_like(p.w2), np.zeros_like(p.b1),
             np.zeros_like(p.b2)]
    for lo in range(0, Xin.shape[1], 256):
        A3 = targets[lo:lo + 256]
        Xc, Yc, Zc = Xin[:, lo:lo + 256], Y[:, lo:lo + 256], Z[:, lo:lo + 256]
        At, Ct = (1.0 - Yc * Yc).T, (1.0 - Zc * Zc).T
        K = np.einsum("ki,nk,jk->nij", p.w1, At, p.w2, optimize=True)
        J = K * Ct[:, None, :]
        R = 2.0 * weight * (J - A3)
        value += weight * float(np.sum((J - A3) ** 2))
        P = R * Ct[:, None, :]
        dw1 = np.einsum("nk,jk,nij->ki", At, p.w2, P, optimize=True)
        dw2 = np.einsum("nji,kj,nk->ik", P, p.w1, At, optimize=True)
        gu = -2.0 * Yc.T * At * np.einsum("ki,nij,jk->nk", p.w1, P, p.w2, optimize=True)
        gv = -2.0 * Zc.T * Ct * np.sum(R * K, axis=1)
        du2 = (p.w2.T @ gv.T) * At.T
        for i, g in enumerate((dw1 + gu.T @ Xc.T + du2 @ Xc.T, dw2 + gv.T @ Yc.T,
                               gu.sum(axis=0) + du2.sum(axis=1), gv.sum(axis=0))):
            total[i] += g
    return value, np.concatenate([g.ravel() for g in total])


def _jacobian_value_and_grad(p, X, factors, weight):
    """(value, gradient laid out like pack_params) of _jacobian_term alone."""
    grad = np.zeros_like(pack_params(p))
    value = _jacobian_term(p, X, network._forward(p, X),
                           _factor_rows(factors, *X.shape), weight, grad)
    return value, grad


def _assert_factored_matches_dense(p, X, factors, targets, weight):
    Y, Z = forward_batch(p, X)
    value, g = _jacobian_value_and_grad(p, X, factors, weight)
    ref_value, ref_g = _dense_jacobian_term(p, X.T, Y.T, Z.T, targets, weight)
    assert value == pytest.approx(ref_value, rel=1e-12)
    np.testing.assert_allclose(g, ref_g, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref_g)))


def _ragged_bases(D, ranks, seed):
    """A TangentSet of random orthonormal bases of the given ranks."""
    rng = np.random.default_rng(seed)
    ranks = np.asarray(ranks, dtype=int)
    factors = np.zeros((len(ranks), D, max(1, ranks.max())))
    for i, r in enumerate(ranks):
        factors[i, :, :r] = np.linalg.qr(rng.standard_normal((D, r)))[0]
    return tangent.TangentSet(factors, ranks, region_variance=0.05)


@pytest.mark.filterwarnings("ignore:training data rank below bit count")
def test_factored_jacobian_term_matches_dense_on_proxy_tangents():
    X, _ = synth.curved_manifold(2000, 8, 64, np.random.default_rng(7), noise=0.01)
    Xn = matrix_io.apply_normalizer(matrix_io.fit_normalizer(X), X)
    bases = tangent.estimate_all_tangents(Xn, 32)
    factors, weight = bases.factors, bases.region_variance
    assert factors.shape == (2000, 64, max(t.rank for t in bases))
    p = init_params(Xn, 32, 7)
    rng = np.random.default_rng(8)
    p.w2 = p.w2 + 0.1 * rng.standard_normal(p.w2.shape)  # W2 != W1'
    p.b1 = p.b1 + 0.1 * rng.standard_normal(p.b1.shape)
    targets = np.stack([tangent.projector(t) for t in bases])
    _assert_factored_matches_dense(p, Xn, factors, targets, weight)


def test_factored_jacobian_term_takes_projectors_as_their_own_factors():
    for seed in range(3):
        p, batch, factors = random_instance(8, 4, 300, seed=seed)  # crosses a chunk
        projs = _projectors(factors)
        _assert_factored_matches_dense(p, batch, factors, projs, 0.5)
        _assert_factored_matches_dense(p, batch, projs, projs, 0.5)


@pytest.mark.parametrize("D, d", [(6, 6), (7, 1)])  # d = D, and one bit
def test_factored_jacobian_term_matches_dense_at_extreme_bit_counts(D, d):
    p, batch, factors = random_instance(D, d, 70, seed=D + d)  # crosses a chunk
    bases = _ragged_bases(D, np.random.default_rng(D).integers(0, D + 1, size=70),
                          seed=D)
    targets = np.stack([tangent.projector(t) for t in bases])
    _assert_factored_matches_dense(p, batch, bases.factors, targets, 0.5)
    projs = _projectors(factors)
    _assert_factored_matches_dense(p, batch, factors, projs, 0.5)
    _assert_factored_matches_dense(p, batch, projs, projs, 0.5)


def test_objective_on_projectors_equals_the_rows_of_a_stack():
    # the trainer's path: a batch's rows of the whole stack, with
    # ||T'T||_F^2 computed once for the stack
    p, X, factors = random_instance(8, 4, 200, seed=19)
    stack = _projectors(factors)
    rows = np.random.default_rng(20).permutation(200)[:130]
    cfg = ObjectiveConfig(jacobian_weight=0.5)
    total, parts, g = objective(p, X[rows], [stack[i] for i in rows], cfg)
    total_r, parts_r, g_r = objective(p, X[rows],
                                      FactorRows(stack, rows, gram_norms(stack)), cfg)
    assert parts_r.jacobian == pytest.approx(parts.jacobian, rel=1e-13)
    assert total_r == pytest.approx(total, rel=1e-13)
    np.testing.assert_allclose(g_r, g, rtol=1e-13, atol=1e-13 * np.max(np.abs(g)))
    np.testing.assert_allclose(gram_norms(stack), [np.sum(P * P) for P in stack],
                               rtol=1e-13)


def test_factored_jacobian_term_matches_dense_on_zero_padded_ragged_ranks():
    ranks = [0, 1, 3, 5, 2, 0, 4, 5, 1]
    bases = _ragged_bases(12, ranks, seed=12)
    factors, weight = bases.factors, bases.region_variance
    assert factors.shape == (9, 12, 5) and weight == 0.05
    np.testing.assert_array_equal(factors[0], 0.0)  # rank 0: zero target
    p, batch, _ = random_instance(12, 5, 9, seed=13)
    targets = np.stack([tangent.projector(t) for t in bases])
    _assert_factored_matches_dense(p, batch, factors, targets, weight)
    # all ranks 0: one zero column each
    zeros = _ragged_bases(12, [0] * 9, seed=14).factors
    assert zeros.shape == (9, 12, 1)
    _assert_factored_matches_dense(p, batch, zeros, np.zeros((9, 12, 12)), 1.0)


def test_fd_gradient_on_zero_padded_bases():
    factors = _ragged_bases(8, [0, 2, 3, 1, 3], seed=15).factors
    assert factors.shape[2] < 8
    for seed in range(5):
        p, batch, _ = random_instance(8, 4, 5, seed=seed)
        assert _fd_error(p, batch, factors, ObjectiveConfig(jacobian_weight=0.5)) < 1e-6


@pytest.mark.parametrize("workers", [1, 5])
@pytest.mark.parametrize("kind", ["stack", "projectors", "ragged"])
def test_objective_has_the_same_bits_at_any_worker_count(workers, kind, with_workers):
    n = 300  # 5 chunks, the last one short
    p, batch, factors = random_instance(8, 4, n, seed=16)
    if kind == "projectors":
        factors = _projectors(factors)
    elif kind == "ragged":
        ranks = np.random.default_rng(17).integers(0, 5, size=n)
        factors = _ragged_bases(8, ranks, seed=18).factors
    cfg = ObjectiveConfig(jacobian_weight=0.5)
    # the reference: a plain loop over the chunks, summed in order
    f = network._forward(p, batch)
    kron = _kron_rows(p)
    gram = gram_norms(factors)
    ref_value, ref_g = 0.0, np.zeros_like(pack_params(p))
    for lo in range(0, n, _JAC_CHUNK):
        hi = lo + _JAC_CHUNK
        v, g = _jacobian_chunk(p, kron, batch[lo:hi], f.cols(lo, hi),
                               FactorRows(factors, np.arange(lo, min(hi, n)), gram), 0.5)
        ref_value += v
        ref_g += g
    value, g = with_workers(
        workers, lambda: _jacobian_value_and_grad(p, batch, factors, 0.5))
    assert value == ref_value
    assert g.tobytes() == ref_g.tobytes()
    total, parts, grad = with_workers(workers, lambda: objective(p, batch, factors, cfg))
    assert parts.jacobian == ref_value
    total1, _, grad1 = with_workers(1, lambda: objective(p, batch, factors, cfg))
    assert total == total1
    assert grad.tobytes() == grad1.tobytes()


def _out_of_place_objective(p, batch, factors, cfg, lambda_c=None, corrupted=None):
    """(value, gradient) of objective from the out-of-place expressions of
    forward_batch and the recon, contractive and binary terms, each term
    forming its own slopes 1 - Y^2 and 1 - Z^2 and each Jacobian chunk
    its own from its columns, as the terms did before they shared them.
    The expressions are those of one point per column, on the (D, n)
    transposed views of the (n, D) batch and input."""
    Xin = (batch if corrupted is None else corrupted).T
    batch = batch.T
    D, n = batch.shape
    Y = np.tanh(p.w1 @ Xin + p.b1[:, None])
    Z = np.tanh(p.w2 @ Y + p.b2[:, None])
    grad = np.zeros_like(pack_params(p))
    gw1, gw2, gb1, gb2 = network._blocks(grad, p)
    diff = Z - batch
    recon = float(np.sum(diff * diff))
    d2 = 2.0 * diff * (1.0 - Z * Z)
    d1 = (p.w2.T @ d2) * (1.0 - Y * Y)
    for g, dg in zip((gw1, gw2, gb1, gb2), (d1 @ Xin.T, d2 @ Y.T, d1.sum(axis=1),
                                             d2.sum(axis=1))):
        g += dg
    middle = 0.0
    if factors is not None:
        rows, kron = _factor_rows(factors, n, D), _kron_rows(p)
        total = np.zeros_like(grad)
        for lo in range(0, n, _JAC_CHUNK):
            hi = lo + _JAC_CHUNK
            Yc, Zc = Y[:, lo:hi], Z[:, lo:hi]
            v, g = _jacobian_chunk(p, kron, Xin[:, lo:hi].T,
                                   network.Forward(Yc, Zc, 1.0 - Yc * Yc, 1.0 - Zc * Zc),
                                   rows._replace(rows=rows.rows[lo:hi]), cfg.jacobian_weight)
            middle += v
            total += g
        grad += total
    if lambda_c is not None:
        At = (1.0 - Y * Y).T
        s = np.sum(p.w1 * p.w1, axis=1)
        middle = float(lambda_c * np.sum(At * At * s[None, :]))
        dw1 = 2.0 * lambda_c * np.sum(At * At, axis=0)[:, None] * p.w1
        gu = -4.0 * lambda_c * At * At * Y.T * s[None, :]
        dw1 += gu.T @ Xin.T
        gw1 += dw1
        gb1 += gu.sum(axis=0)
    S = Y @ Y.T - n * np.eye(Y.shape[0])
    binary = float(cfg.alpha * np.sum(np.sqrt(S * S + cfg.epsilon)))
    G = cfg.alpha * S / np.sqrt(S * S + cfg.epsilon)
    dU = (2.0 * G @ Y) * (1.0 - Y * Y)
    gw1 += dU @ Xin.T
    gb1 += dU.sum(axis=1)
    return network.ObjectiveParts(recon, middle, binary).total, grad


@pytest.mark.parametrize("D, d, n, layout", [
    (8, 4, 70, "C"),  # a short last Jacobian chunk; rows contiguous, as train gathers them
    (20, 6, 129, "F"),  # a one-point last chunk
])
@pytest.mark.parametrize("kind", ["auto-jacobin", "autobin", "dautobin", "cautobin"])
def test_in_place_objective_has_the_bits_of_the_out_of_place_expressions(
        D, d, n, layout, kind):
    p, batch, factors = random_instance(D, d, n, seed=19)
    batch = np.asarray(batch, order=layout)
    method = VariantConfig(kind=kind, corruption_t=0.3)
    mask = method.corrupt(batch.shape, np.random.default_rng(20))
    inputs = dict(lambda_c=method.contraction,
                  corrupted=None if mask is None else np.where(mask, 0.0, batch))
    factors = factors if method.needs_tangents else None
    cfg = ObjectiveConfig(alpha=0.2, jacobian_weight=0.5)
    before = [a.copy() for a in (batch, inputs["corrupted"]) if a is not None]
    value, _, grad = objective(p, batch, factors, cfg, **inputs)
    ref_value, ref_grad = _out_of_place_objective(p, batch, factors, cfg, **inputs)
    assert value == ref_value
    assert grad.tobytes() == ref_grad.tobytes()
    # the terms update only their own work arrays, never their inputs
    after = [a for a in (batch, inputs["corrupted"]) if a is not None]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))


def test_jacobian_weight_scales_term_and_gradient():
    p, batch, factors = random_instance(6, 3, 5, seed=6)
    parts = {w: objective(p, batch, factors, ObjectiveConfig(jacobian_weight=w))[1]
             for w in (0.0, 0.25, 1.0)}
    assert parts[0.0].jacobian == 0.0
    assert parts[0.25].jacobian == pytest.approx(0.25 * parts[1.0].jacobian, rel=1e-12)
    assert parts[0.25].recon == parts[1.0].recon
    g = {w: objective(p, batch, factors, ObjectiveConfig(jacobian_weight=w))[2]
         for w in (0.0, 0.25, 1.0)}
    np.testing.assert_allclose(g[0.25] - g[0.0], 0.25 * (g[1.0] - g[0.0]),
                               rtol=1e-10, atol=1e-12)
    with pytest.raises(ValueError):
        ObjectiveConfig(jacobian_weight=-1.0)


def test_objective_parts_nonnegative_and_sum():
    for seed in range(4):
        p, batch, factors = random_instance(5, 4, 6, seed=seed)
        total, parts, _ = objective(p, batch, factors, ObjectiveConfig())
        assert parts.recon >= 0 and parts.jacobian >= 0 and parts.binary >= 0
        assert total == parts.recon + parts.jacobian + parts.binary


@pytest.mark.parametrize("bad, got", [
    (lambda projs: projs[:-1], r"\(2, 4, 4\)"),  # too few factors
    (lambda projs: [np.eye(5)] * 3, r"\(3, 5, 5\)"),  # D x D factors of the wrong D
    (lambda projs: [np.eye(4)[:, :1 + i] for i in range(3)], "factors of unequal shapes"),
    (lambda projs: np.zeros((3, 4)), r"\(3, 4\)"),  # a 2-D array
    (lambda projs: FactorRows(np.stack(projs), np.arange(2), np.ones(3)), r"\(2, 4, 4\)"),
], ids=["too-few", "wrong-D", "ragged", "2-D", "too-few-rows"])
def test_objective_projector_count_mismatch(bad, got):
    # every malformed tangent form fails at the one converter, naming (N, D, r)
    p, batch, factors = random_instance(4, 2, 3, seed=6)
    projs = list(_projectors(factors))
    with pytest.raises(ValueError, match=r"tangent factors of shape \(N, D, r\) = "
                                         r"\(3, 4, r\), got " + got):
        objective(p, batch, bad(projs), ObjectiveConfig())


def test_objective_gradient_is_laid_out_like_the_parameters():
    p, batch, factors = random_instance(6, 3, 5, seed=7)
    theta = pack_params(p)
    for tangents, lambda_c in ((factors, None), (None, None), (None, 0.01)):
        grad = objective(p, batch, tangents, ObjectiveConfig(), lambda_c=lambda_c)[2]
        assert grad.shape == theta.shape and grad.dtype == theta.dtype == np.float64


def test_smoothed_norm_bounds():
    # 0 <= smoothed 1-norm minus exact 1-norm <= entries * sqrt(eps)
    rng = np.random.default_rng(7)
    eps = 1e-4
    for _ in range(5):
        M = rng.standard_normal((4, 4)) * rng.uniform(0.1, 10)
        smooth = np.sum(np.sqrt(M * M + eps))
        exact = np.sum(np.abs(M))
        assert 0.0 <= smooth - exact <= M.size * np.sqrt(eps)


def test_frobenius_gap_transpose_invariant_for_symmetric_target():
    rng = np.random.default_rng(8)
    J = rng.standard_normal((5, 5))
    A = rng.standard_normal((5, 5))
    A = (A + A.T) / 2
    assert np.sum((J - A) ** 2) == pytest.approx(np.sum((J.T - A) ** 2), rel=1e-12)


def test_grad_check_passes_on_correct_gradients():
    p, batch, factors = random_instance(8, 4, 5, seed=9)
    assert _fd_error(p, batch, factors, ObjectiveConfig()) < 1e-6
    assert max(check_gradients("auto-jacobin", seed=9).values()) < 1e-6


def test_grad_check_detects_perturbation():
    p, batch, factors = random_instance(8, 4, 5, seed=10)
    cfg = ObjectiveConfig()

    theta = pack_params(p)
    analytic = objective(p, batch, factors, cfg)[2]
    broken = analytic.copy()
    broken[0] += 1e-3
    fd = fd_gradient(lambda t: objective(unpack_params(t, p), batch, factors, cfg)[0],
                     theta, 1e-6)
    err = np.max(np.abs(broken - fd) / np.maximum(1.0, np.abs(fd)))
    assert err > 1e-4


def test_grad_check_zero_network_finite():
    D, d, n = 4, 2, 3
    p = _zero_params(D, d)
    batch = np.zeros((n, D))
    projs = [np.zeros((D, D))] * n
    assert np.isfinite(_fd_error(p, batch, projs, ObjectiveConfig()))


@pytest.mark.parametrize("D, d, n, seed", [(8, 4, 5, 0), (6, 3, 7, 1), (3, 5, 6, 2)])
def test_random_instance_stacks_the_qr_bases_of_its_projectors(D, d, n, seed):
    # item i of the stack is the QR basis Q of the i-th draw, zero-padded,
    # so T T' is the projector Q Q' of that draw; d > D included
    rng = np.random.default_rng(seed)
    w1, w2 = 0.5 * rng.standard_normal((d, D)), 0.5 * rng.standard_normal((D, d))
    b1, b2 = 0.1 * rng.standard_normal(d), 0.1 * rng.standard_normal(D)
    batch = rng.uniform(-0.8, 0.8, size=(D, n)).T
    bases = [np.linalg.qr(rng.standard_normal((D, int(rng.integers(1, d + 1)))))[0]
             for _ in range(n)]
    p, got_batch, factors = random_instance(D, d, n, seed)
    for a, b in ((p.w1, w1), (p.w2, w2), (p.b1, b1), (p.b2, b2), (got_batch, batch)):
        np.testing.assert_array_equal(a, b)
    assert factors.shape == (n, D, min(d, D))
    for T, Q in zip(factors, bases):
        np.testing.assert_array_equal(T[:, :Q.shape[1]], Q)
        np.testing.assert_array_equal(T[:, Q.shape[1]:], 0.0)
        np.testing.assert_array_equal(T @ T.T, Q @ Q.T)


def test_pack_unpack_round_trip():
    p, _, _ = random_instance(5, 3, 2, seed=11)
    q = unpack_params(pack_params(p), p)
    np.testing.assert_array_equal(q.w1, p.w1)
    np.testing.assert_array_equal(q.w2, p.w2)
    np.testing.assert_array_equal(q.b1, p.b1)
    np.testing.assert_array_equal(q.b2, p.b2)
    assert q.scale == p.scale


def test_objective_config_validation():
    with pytest.raises(ValueError):
        ObjectiveConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        ObjectiveConfig(alpha=-0.1)
    for field in ("alpha", "epsilon", "jacobian_weight"):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ObjectiveConfig(**{field: float("nan")})


@pytest.mark.parametrize("c, rises", [(0.1428, False), (0.1430, True)])
def test_binary_term_grows_with_the_scale_of_y_past_cosine_one_over_d_minus_1(c, rises):
    # rows of Y with squared norm rho2 and every pairwise cosine c: per unit
    # of s^2 rho2 (below n), scaling Y by s takes d off the diagonal of
    # S(YY' - nI) and adds d (d - 1) c to the rest, so the term rises with
    # the scale iff c > 1/(d - 1) = 0.142857 at d = 8
    d, n, rho2 = 8, 200, 20.0
    rng = np.random.default_rng(0)
    gram = rho2 * ((1.0 - c) * np.eye(d) + c * np.ones((d, d)))
    Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
    Y = np.linalg.cholesky(gram) @ Q.T
    p = _zero_params(4, d)

    def term(s):
        f = network.Forward(s * Y, None, 1.0 - (s * Y) ** 2, None)
        grad = np.zeros_like(pack_params(p))
        return network._binary_term(p, np.zeros((n, 4)), f, 1.0, 1e-4, n, grad)

    assert (term(1.01) > term(1.0)) == rises

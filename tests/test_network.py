import numpy as np
import pytest

from autojacobin.checks import random_instance
from autojacobin.network import (
    NetworkParams,
    ObjectiveConfig,
    forward,
    forward_batch,
    grad_check,
    jacobian,
    objective,
    pack_gradient,
    pack_params,
    unpack_params,
)


def _zero_params(D, d):
    return NetworkParams(w1=np.zeros((d, D)), w2=np.zeros((D, d)),
                         b1=np.zeros(d), b2=np.zeros(D))


def test_forward_zero_params():
    c = forward(_zero_params(3, 2), np.array([0.4, -0.1, 2.0]))
    np.testing.assert_array_equal(c.y, np.zeros(2))
    np.testing.assert_array_equal(c.z, np.zeros(3))


def test_forward_scalar_chain():
    p = NetworkParams(w1=np.array([[1.0]]), w2=np.array([[1.0]]),
                      b1=np.zeros(1), b2=np.zeros(1))
    c = forward(p, np.array([0.5]))
    assert c.y[0] == pytest.approx(np.tanh(0.5), abs=1e-12)
    assert c.z[0] == pytest.approx(np.tanh(np.tanh(0.5)), abs=1e-12)


def test_forward_rejects_nonfinite():
    with pytest.raises(ValueError):
        forward(_zero_params(2, 2), np.array([np.nan, 0.0]))


def test_forward_linearizes_at_small_weights():
    rng = np.random.default_rng(0)
    c = 1e-4
    p = NetworkParams(w1=c * rng.standard_normal((3, 4)),
                      w2=c * rng.standard_normal((4, 3)),
                      b1=np.zeros(3), b2=np.zeros(4))
    x = rng.standard_normal(4)
    z = forward(p, x).z
    np.testing.assert_allclose(z, p.w2 @ (p.w1 @ x), atol=1e-10)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(1)
    p, batch, _ = random_instance(5, 3, 7, seed=1)
    Y, Z = forward_batch(p, batch)
    for j in range(7):
        c = forward(p, batch[:, j])
        np.testing.assert_allclose(Y[:, j], c.y, atol=1e-14)
        np.testing.assert_allclose(Z[:, j], c.z, atol=1e-14)
    assert np.all(np.abs(Y) < 1) and np.all(np.abs(Z) < 1)


def test_jacobian_zero_params():
    J = jacobian(_zero_params(4, 2), np.zeros(4))
    np.testing.assert_array_equal(J, np.zeros((4, 4)))


def test_jacobian_linear_regime():
    rng = np.random.default_rng(2)
    c = 1e-4
    p = NetworkParams(w1=c * rng.standard_normal((3, 5)),
                      w2=c * rng.standard_normal((5, 3)),
                      b1=np.zeros(3), b2=np.zeros(5))
    x = 0.05 * rng.standard_normal(5)  # keep tanh curvature negligible
    J = jacobian(p, x)
    ref = (p.w2 @ p.w1).T
    assert np.max(np.abs(J - ref)) / np.max(np.abs(ref)) < 1e-10


def test_jacobian_matches_finite_differences():
    p, batch, _ = random_instance(6, 3, 1, seed=3)
    x = batch[:, 0]
    J = jacobian(p, x)
    h = 1e-6
    fd = np.empty((6, 6))
    for i in range(6):
        e = np.zeros(6)
        e[i] = h
        fd[i] = (forward(p, x + e).z - forward(p, x - e).z) / (2 * h)
    assert np.max(np.abs(J - fd)) < 1e-7


def test_objective_alpha_zero_drops_binary():
    p, batch, projs = random_instance(5, 3, 4, seed=4)
    total, parts, _ = objective(p, batch, projs, ObjectiveConfig(alpha=0.0))
    assert parts.binary == 0.0
    assert total == pytest.approx(parts.recon + parts.jacobian)


def test_objective_closed_form_at_zero():
    d, D, alpha, eps = 3, 4, 0.1, 1e-4
    p = _zero_params(D, d)
    batch = np.zeros((D, 1))
    total, parts, _ = objective(p, batch, [np.zeros((D, D))],
                             ObjectiveConfig(alpha=alpha, epsilon=eps))
    assert parts.recon == 0.0 and parts.jacobian == 0.0
    expect = alpha * (d * np.sqrt(1 + eps) + d * (d - 1) * np.sqrt(eps))
    assert parts.binary == pytest.approx(expect, rel=1e-12)


def test_objective_matches_naive_loop():
    p, batch, projs = random_instance(6, 3, 5, seed=5)
    cfg = ObjectiveConfig(alpha=0.1, epsilon=1e-4)
    total, _, _ = objective(p, batch, projs, cfg)

    # independent scalar-loop reference
    ref = 0.0
    Ys = []
    for j in range(5):
        c = forward(p, batch[:, j])
        Ys.append(c.y)
        ref += float(np.sum((batch[:, j] - c.z) ** 2))
        ref += float(np.sum((jacobian(p, batch[:, j]) - projs[j]) ** 2))
    Y = np.stack(Ys, axis=1)
    S = Y @ Y.T - 5 * np.eye(3)
    for a in S.ravel():
        ref += cfg.alpha * np.sqrt(a * a + cfg.epsilon)
    assert total == pytest.approx(ref, rel=1e-10)


def test_jacobian_weight_scales_term_and_gradient():
    p, batch, projs = random_instance(6, 3, 5, seed=6)
    parts = {w: objective(p, batch, projs, ObjectiveConfig(jacobian_weight=w))[1]
             for w in (0.0, 0.25, 1.0)}
    assert parts[0.0].jacobian == 0.0
    assert parts[0.25].jacobian == pytest.approx(0.25 * parts[1.0].jacobian, rel=1e-12)
    assert parts[0.25].recon == parts[1.0].recon
    g = {w: pack_gradient(objective(p, batch, projs, ObjectiveConfig(jacobian_weight=w))[2])
         for w in (0.0, 0.25, 1.0)}
    np.testing.assert_allclose(g[0.25] - g[0.0], 0.25 * (g[1.0] - g[0.0]),
                               rtol=1e-10, atol=1e-12)
    with pytest.raises(ValueError):
        ObjectiveConfig(jacobian_weight=-1.0)


def test_objective_parts_nonnegative_and_sum():
    for seed in range(4):
        p, batch, projs = random_instance(5, 4, 6, seed=seed)
        total, parts, _ = objective(p, batch, projs, ObjectiveConfig())
        assert parts.recon >= 0 and parts.jacobian >= 0 and parts.binary >= 0
        assert total == parts.recon + parts.jacobian + parts.binary


def test_objective_projector_count_mismatch():
    p, batch, projs = random_instance(4, 2, 3, seed=6)
    with pytest.raises(ValueError):
        objective(p, batch, projs[:-1], ObjectiveConfig())


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
    p, batch, projs = random_instance(8, 4, 5, seed=9)
    assert grad_check(p, batch, projs, ObjectiveConfig(), h=1e-6) < 1e-6


def test_grad_check_detects_perturbation():
    p, batch, projs = random_instance(8, 4, 5, seed=10)
    cfg = ObjectiveConfig()

    theta = pack_params(p)
    analytic = pack_gradient(objective(p, batch, projs, cfg)[2])
    broken = analytic.copy()
    broken[0] += 1e-3
    from autojacobin.network import fd_gradient
    fd = fd_gradient(lambda t: objective(unpack_params(t, p), batch, projs, cfg)[0],
                     theta, 1e-6)
    err = np.max(np.abs(broken - fd) / np.maximum(1.0, np.abs(fd)))
    assert err > 1e-4


def test_grad_check_zero_network_finite():
    D, d, n = 4, 2, 3
    p = _zero_params(D, d)
    batch = np.zeros((D, n))
    projs = [np.zeros((D, D))] * n
    err = grad_check(p, batch, projs, ObjectiveConfig(), h=1e-6)
    assert np.isfinite(err)


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

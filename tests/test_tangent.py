import numpy as np
import pytest

from autojacobin import tangent
from autojacobin.tangent import (
    ProjectionOracle,
    estimate_all_tangents,
    knn_bruteforce,
    oracle_jacobian_fd,
    oracle_project,
    oracle_tangent_projector,
    projector,
    region_variance,
)


def test_knn_collinear():
    X = np.array([[0.0, 1.0, 3.0]])
    np.testing.assert_array_equal(knn_bruteforce(X, 0, 2), [0, 1])


def test_knn_duplicates_self_first():
    X = np.zeros((2, 4))
    assert knn_bruteforce(X, 2, 1)[0] == 0  # all tied, ascending index wins
    order = knn_bruteforce(X, 2, 4)
    np.testing.assert_array_equal(order, [0, 1, 2, 3])


def test_knn_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 50))
    for i in range(0, 50, 7):
        d = np.sum((X - X[:, [i]]) ** 2, axis=0)
        full = np.argsort(d, kind="stable")
        for k in (1, 5, 50):
            np.testing.assert_array_equal(knn_bruteforce(X, i, k), full[:k])


def test_knn_bad_k():
    X = np.zeros((2, 3))
    with pytest.raises(ValueError):
        knn_bruteforce(X, 0, 4)
    with pytest.raises(ValueError):
        knn_bruteforce(X, 0, 0)


def test_estimate_tangent_plane():
    # points exactly on span{e1, e2} in R^3
    rng = np.random.default_rng(1)
    X = np.zeros((3, 40))
    X[:2] = rng.standard_normal((2, 40))
    t = estimate_all_tangents(X, 2)[0]
    assert t.rank == 2
    np.testing.assert_allclose(projector(t), np.diag([1.0, 1.0, 0.0]), atol=1e-8)


def test_estimate_tangent_degenerate():
    X = np.ones((3, 10))
    t = estimate_all_tangents(X, 2)[4]
    assert t.degenerate and t.rank == 0
    np.testing.assert_array_equal(projector(t), np.zeros((3, 3)))


def test_estimate_tangent_sphere_orthogonal_to_radius():
    rng = np.random.default_rng(2)
    m = np.array([0.0, 0.0, 1.0])
    # tight cap of on-sphere neighbors around m
    pts = [m]
    while len(pts) < 30:
        v = m + 1e-2 * rng.standard_normal(3)
        pts.append(v / np.linalg.norm(v))
    X = np.stack(pts, axis=1)
    t = estimate_all_tangents(X, 2)[0]
    assert t.rank == 2
    # basis directions nearly orthogonal to m
    assert np.max(np.abs(m @ t.basis)) < 1e-2


def test_tangent_variance_is_neighborhood_variance():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((4, 40))
    tbs = estimate_all_tangents(X, 2)
    for i in (0, 17, 39):
        nbrs = X[:, knn_bruteforce(X, i, 5)]  # the D+1 nearest points
        expect = float(np.mean(nbrs.var(axis=1)))  # per-coordinate variance
        assert tbs[i].variance == pytest.approx(expect, rel=1e-12)
    assert region_variance(tbs) == pytest.approx(
        np.mean([t.variance for t in tbs]), rel=1e-12)
    # the neighborhood does not grow with the code length d
    for d in (1, 4):
        assert [t.variance for t in estimate_all_tangents(X, d)] == \
            [t.variance for t in tbs]
    with pytest.raises(ValueError):
        region_variance([])


def test_estimate_tangent_needs_enough_points():
    with pytest.raises(ValueError, match="N >= D\\+d = 6"):
        estimate_all_tangents(np.zeros((4, 5)), 2)
    with pytest.raises(ValueError, match="d >= 1"):
        estimate_all_tangents(np.zeros((4, 5)), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_rejects_non_finite_before_any_distance_work(bad, monkeypatch):
    def no_distances(*args):
        raise AssertionError("distance work started")

    monkeypatch.setattr(tangent, "_knn_blocks", no_distances)
    X = np.random.default_rng(7).standard_normal((4, 40))
    X[2, 17] = bad
    with pytest.raises(ValueError, match="1 non-finite"):
        estimate_all_tangents(X, 2)


def test_estimate_rejects_norms_that_overflow():
    X = np.random.default_rng(7).standard_normal((4, 40))
    X[0, 3] = 1e200
    with pytest.raises(ValueError, match="overflow"):
        estimate_all_tangents(X, 2)


def _blocked_knn(X, k):
    return np.vstack([nbr for _, nbr in tangent._knn_blocks(X, k)])


def _assert_knn_matches_bruteforce(X, k):
    got = _blocked_knn(X, k)
    assert got.shape == (X.shape[1], k)
    for i in range(X.shape[1]):
        np.testing.assert_array_equal(got[i], knn_bruteforce(X, i, k), err_msg=f"point {i}")


def _planted_ties(rng, D, N, k):
    """Rounded data where copies of point 4's k-th neighbor, at lower and
    higher indices, tie with it at the k-th boundary."""
    X = np.round(rng.standard_normal((D, N)), 1)
    j = knn_bruteforce(X, 4, k)[k - 1]
    X[:, [1, N // 2, N - 1]] = X[:, [j]]
    return X


@pytest.mark.parametrize("seed", range(20))
def test_blocked_knn_matches_bruteforce_with_planted_boundary_ties(seed):
    rng = np.random.default_rng(seed)
    D, N = 6, 90
    k = D + 3
    X = _planted_ties(rng, D, N, k)
    order = knn_bruteforce(X, 4, N)
    dist = tangent._sq_dist(X, 4, order)
    assert dist[k - 1] == dist[k]  # the k-th boundary is tied
    _assert_knn_matches_bruteforce(X, k)


def test_blocked_knn_matches_bruteforce_on_rounded_data():
    X = np.round(np.random.default_rng(0).standard_normal((16, 300)), 1)
    for k in (17, 40):
        _assert_knn_matches_bruteforce(X, k)


def test_blocked_knn_matches_bruteforce_far_from_origin():
    # |x|^2 ~ 8e6 against distances ~ 2e-5: the GEMM form cancels about 12 digits
    rng = np.random.default_rng(1)
    X = 1e3 + 1e-3 * rng.standard_normal((8, 120))
    _assert_knn_matches_bruteforce(X, 12)
    _assert_knn_matches_bruteforce(np.round(X, 6), 12)


def test_blocked_knn_ragged_last_block(monkeypatch):
    monkeypatch.setattr(tangent, "_BLOCK", 7)
    X = np.round(np.random.default_rng(2).standard_normal((5, 53)), 1)
    blocks = list(tangent._knn_blocks(X, 8))
    assert [lo for lo, _ in blocks] == list(range(0, 53, 7))
    assert blocks[-1][1].shape == (53 % 7, 8)
    _assert_knn_matches_bruteforce(X, 8)


@pytest.mark.parametrize("k", [1, 2, 37])
def test_blocked_knn_extreme_k(k):
    X = np.round(np.random.default_rng(3).standard_normal((4, 37)), 1)
    X[:, 10] = X[:, 20]  # a duplicate point: k = 1 still returns self first
    _assert_knn_matches_bruteforce(X, k)


def _per_point_tangent(X, i, d):
    """The one-point-at-a-time local PCA that the blocked path replaced."""
    D = X.shape[0]
    order = knn_bruteforce(X, i, D + d)
    variance = float(np.mean(X[:, order[:D + 1]].var(axis=1)))
    nbrs = X[:, order]
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    evals, evecs = np.linalg.eigh(centered @ centered.T / (D + d))
    evals = np.maximum(evals[::-1], 0.0)
    if evals.sum() <= 0.0:
        return np.zeros((D, 0)), variance
    r = min(int(np.searchsorted(np.cumsum(evals) / evals.sum(),
                                tangent.ENERGY_FRACTION) + 1), d)
    return evecs[:, ::-1][:, :r], variance


@pytest.mark.parametrize("layout", ["C", "F"])
def test_batched_pca_equals_per_point_pca_bit_for_bit(layout, monkeypatch):
    monkeypatch.setattr(tangent, "_BLOCK", 16)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 70)) * np.linspace(1.0, 1e-3, 6)[:, None]
    X[:, 50:] = 0.25  # 20 equal points: degenerate neighborhoods
    X = np.asfortranarray(X) if layout == "F" else X
    for i, t in enumerate(estimate_all_tangents(X, 3)):
        basis, variance = _per_point_tangent(X, i, 3)
        assert t.point_index == i
        assert t.degenerate == (basis.shape[1] == 0)
        assert t.variance == variance
        np.testing.assert_array_equal(t.basis, basis)


def test_blocked_knn_all_points_equal():
    X = np.ones((3, 10))
    np.testing.assert_array_equal(_blocked_knn(X, 5), np.tile(np.arange(5), (10, 1)))


def test_basis_orthonormal_and_projector_idempotent():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 60))
    for t in estimate_all_tangents(X, 3):
        r = t.rank
        gram = t.basis.T @ t.basis
        assert np.max(np.abs(gram - np.eye(r))) < 1e-10
        A = projector(t)
        np.testing.assert_allclose(A @ A, A, atol=1e-12)
        np.testing.assert_allclose(A.T, A, atol=1e-12)
        assert np.trace(A) == pytest.approx(r, abs=1e-9)


def test_oracle_project_affine():
    o = ProjectionOracle(kind="affine-subspace", mean=np.zeros(3),
                         basis=np.eye(3)[:, :2])
    np.testing.assert_allclose(oracle_project(o, np.array([1.0, 2.0, 3.0])),
                               [1.0, 2.0, 0.0])


def test_oracle_project_sphere():
    o = ProjectionOracle(kind="unit-sphere")
    np.testing.assert_allclose(oracle_project(o, np.array([0.0, 0.0, 2.0])),
                               [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        oracle_project(o, np.zeros(3))


def test_oracle_project_fixes_manifold_points():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    mu = rng.standard_normal(6)
    o = ProjectionOracle(kind="affine-subspace", mean=mu, basis=Q)
    m = mu + Q @ rng.standard_normal(2)
    np.testing.assert_allclose(oracle_project(o, m), m, atol=1e-12)


def test_oracle_rejects_bad_kind_and_basis():
    with pytest.raises(ValueError):
        ProjectionOracle(kind="torus")
    with pytest.raises(ValueError):
        ProjectionOracle(kind="affine-subspace", mean=np.zeros(3),
                         basis=np.ones((3, 2)))


def test_jacobian_fd_affine_plane():
    o = ProjectionOracle(kind="affine-subspace", mean=np.zeros(3),
                         basis=np.eye(3)[:, :2])
    J = oracle_jacobian_fd(o, np.array([0.5, -0.2, 0.0]), h=1e-5)
    np.testing.assert_allclose(J, np.diag([1.0, 1.0, 0.0]), atol=1e-9)


def test_jacobian_fd_sphere_pole_and_random():
    o = ProjectionOracle(kind="unit-sphere")
    m = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(oracle_jacobian_fd(o, m, 1e-5),
                               np.diag([1.0, 1.0, 0.0]), atol=1e-6)
    rng = np.random.default_rng(5)
    m = rng.standard_normal(4)
    m /= np.linalg.norm(m)
    np.testing.assert_allclose(oracle_jacobian_fd(o, m, 1e-5),
                               np.eye(4) - np.outer(m, m), atol=1e-6)


def test_fd_jacobian_matches_analytic_projector():
    rng = np.random.default_rng(6)
    for D in (3, 5, 8):
        Q, _ = np.linalg.qr(rng.standard_normal((D, 2)))
        mu = rng.standard_normal(D)
        o = ProjectionOracle(kind="affine-subspace", mean=mu, basis=Q)
        m = mu + Q @ rng.standard_normal(2)
        err = np.max(np.abs(oracle_jacobian_fd(o, m, 1e-5)
                            - oracle_tangent_projector(o, m)))
        assert err < 1e-5

import itertools

import numpy as np
import pytest

from autojacobin import neighbors, tangent
from autojacobin.neighbors import knn, knn_bruteforce
from autojacobin.tangent import (
    ProjectionOracle,
    estimate_all_tangents,
    oracle_jacobian_fd,
    oracle_project,
    oracle_tangent_projector,
    projector,
    region_variance,
)


def test_knn_collinear():
    X = np.array([[0.0, 1.0, 3.0]])
    np.testing.assert_array_equal(knn_bruteforce(X, X[:, 0], 2), [0, 1])


def test_knn_duplicates_self_first():
    X = np.zeros((2, 4))
    assert knn_bruteforce(X, X[:, 2], 1)[0] == 0  # all tied, ascending index wins
    order = knn_bruteforce(X, X[:, 2], 4)
    np.testing.assert_array_equal(order, [0, 1, 2, 3])


def test_knn_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 50))
    for i in range(0, 50, 7):
        d = np.sum((X - X[:, [i]]) ** 2, axis=0)
        full = np.argsort(d, kind="stable")
        for k in (1, 5, 50):
            np.testing.assert_array_equal(knn_bruteforce(X, X[:, i], k), full[:k])


def test_knn_bad_k():
    X = np.zeros((2, 3))
    with pytest.raises(ValueError):
        knn_bruteforce(X, X[:, 0], 4)
    with pytest.raises(ValueError):
        knn_bruteforce(X, X[:, 0], 0)


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
        nbrs = X[:, knn_bruteforce(X, X[:, i], 5)]  # the D+1 nearest points
        expect = float(np.mean(nbrs.var(axis=1)))  # per-coordinate variance
        assert tbs[i].variance == pytest.approx(expect, rel=1e-12)
    assert region_variance(tbs) == pytest.approx(
        np.mean([t.variance for t in tbs]), rel=1e-12)
    # the neighborhood does not grow with the code length d
    for d in (1, 4):
        assert [t.variance for t in estimate_all_tangents(X, d)] == \
            [t.variance for t in tbs]


def test_estimate_tangent_needs_enough_points():
    with pytest.raises(ValueError, match="N >= D\\+d = 6"):
        estimate_all_tangents(np.zeros((4, 5)), 2)
    with pytest.raises(ValueError, match="d >= 1"):
        estimate_all_tangents(np.zeros((4, 5)), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_rejects_non_finite_before_any_distance_work(bad, monkeypatch):
    def no_distances(*args):
        raise AssertionError("distance work started")

    monkeypatch.setattr(neighbors, "_knn_block", no_distances)
    X = np.random.default_rng(7).standard_normal((4, 40))
    X[2, 17] = bad
    with pytest.raises(ValueError, match="1 non-finite"):
        estimate_all_tangents(X, 2)


def test_estimate_rejects_norms_that_overflow():
    X = np.random.default_rng(7).standard_normal((4, 40))
    X[0, 3] = 1e200
    with pytest.raises(ValueError, match="overflow"):
        estimate_all_tangents(X, 2)


def _assert_knn_matches_bruteforce(X, k, queries=None):
    queries = X if queries is None else queries
    got = knn(X, queries, k)
    assert got.shape == (queries.shape[1], k)
    for i in range(queries.shape[1]):
        np.testing.assert_array_equal(got[i], knn_bruteforce(X, queries[:, i], k),
                                      err_msg=f"query {i}")


def _planted_ties(rng, D, N, k):
    """Rounded data where copies of point 4's k-th neighbor, at lower and
    higher indices, tie with it at the k-th boundary."""
    X = np.round(rng.standard_normal((D, N)), 1)
    j = knn_bruteforce(X, X[:, 4], k)[k - 1]
    X[:, [1, N // 2, N - 1]] = X[:, [j]]
    return X


@pytest.mark.parametrize("seed", range(20))
def test_blocked_knn_matches_bruteforce_with_planted_boundary_ties(seed):
    rng = np.random.default_rng(seed)
    D, N = 6, 90
    k = D + 3
    X = _planted_ties(rng, D, N, k)
    order = knn_bruteforce(X, X[:, 4], N)
    dist = neighbors._sq_dist(X, X[:, 4], order)
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


def _spy_blocks(monkeypatch):
    """Record the number of queries in each block knn computes."""
    sizes = []
    block = neighbors._knn_block

    def spy(base, sq, queries, *args):
        sizes.append(queries.shape[1])
        return block(base, sq, queries, *args)

    monkeypatch.setattr(neighbors, "_knn_block", spy)
    return sizes


def test_blocked_knn_ragged_last_block(monkeypatch):
    monkeypatch.setattr(neighbors, "_BLOCK", 7)
    sizes = _spy_blocks(monkeypatch)
    X = np.round(np.random.default_rng(2).standard_normal((5, 53)), 1)
    _assert_knn_matches_bruteforce(X, 8)
    assert sizes == [7] * (53 // 7) + [53 % 7]


@pytest.mark.parametrize("k", [1, 2, 37])
def test_blocked_knn_extreme_k(k):
    X = np.round(np.random.default_rng(3).standard_normal((4, 37)), 1)
    X[:, 10] = X[:, 20]  # a duplicate point: k = 1 still returns self first
    _assert_knn_matches_bruteforce(X, k)


# queries that are not the base, as in ground truth


def _planted_query_ties(rng, D, N, k):
    """Rounded base and queries where copies of query 0's k-th nearest base
    point, at lower and higher indices, tie with it at the k-th boundary."""
    base = np.round(rng.standard_normal((D, N)), 1)
    queries = np.round(rng.standard_normal((D, 9)), 1)
    j = knn_bruteforce(base, queries[:, 0], k)[k - 1]
    base[:, [1, N // 2, N - 1]] = base[:, [j]]
    return base, queries


@pytest.mark.parametrize("seed", range(10))
def test_knn_queries_match_bruteforce_with_planted_boundary_ties(seed):
    rng = np.random.default_rng(seed)
    k = 7
    base, queries = _planted_query_ties(rng, 6, 90, k)
    dist = neighbors._sq_dist(base, queries[:, 0], knn_bruteforce(base, queries[:, 0], 90))
    assert dist[k - 1] == dist[k]  # the k-th boundary is tied
    _assert_knn_matches_bruteforce(base, k, queries)


def test_knn_queries_match_bruteforce_far_from_origin():
    rng = np.random.default_rng(5)
    base = 1e3 + 1e-3 * rng.standard_normal((8, 120))
    queries = 1e3 + 1e-3 * rng.standard_normal((8, 30))
    _assert_knn_matches_bruteforce(base, 12, queries)
    _assert_knn_matches_bruteforce(np.round(base, 6), 12, np.round(queries, 6))


@pytest.mark.parametrize("k", [1, 41])
def test_knn_queries_extreme_k(k):
    rng = np.random.default_rng(6)
    base = np.round(rng.standard_normal((4, 41)), 1)
    base[:, 30] = base[:, 12]
    queries = np.round(rng.standard_normal((4, 11)), 1)
    queries[:, 5] = base[:, 30]  # its nearest points tie at distance 0
    _assert_knn_matches_bruteforce(base, k, queries)
    assert knn(base, queries, k)[5, 0] == 12


def test_knn_queries_ragged_last_block_from_byte_budget(monkeypatch):
    N = 50
    monkeypatch.setattr(neighbors, "_BLOCK_BYTES", 6 * 8 * N)  # 6 queries per block
    sizes = _spy_blocks(monkeypatch)
    rng = np.random.default_rng(7)
    base = np.round(rng.standard_normal((5, N)), 1)
    queries = np.round(rng.standard_normal((5, 27)), 1)
    _assert_knn_matches_bruteforce(base, 8, queries)
    assert sizes == [6, 6, 6, 6, 3]


def test_knn_block_rows_follow_byte_budget(monkeypatch):
    # 64 queries per block at most, and 2 MiB of distances: 8 rows at N = 30k
    sizes = _spy_blocks(monkeypatch)
    rng = np.random.default_rng(8)
    for N, Q in ((2000, 70), (30000, 20)):
        base = rng.standard_normal((2, N))
        knn(base, rng.standard_normal((2, Q)), 1)
    assert sizes == [64, 6, 8, 8, 4]


def _per_point_tangent(X, i, d):
    """The one-point-at-a-time local PCA that the blocked path replaced."""
    D = X.shape[0]
    order = knn_bruteforce(X, X[:, i], D + d)
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


def _serial_tangents(X, d):
    """(factors, ranks, variance, degenerate) from a plain loop over the
    local-PCA blocks, with the factors cut to the largest rank (at least 1)."""
    D = X.shape[0]
    nbr = knn(X, X, D + d)
    blocks = [tangent._pca_block(X, nbr[lo:lo + tangent._BLOCK], d)
              for lo in range(0, X.shape[1], tangent._BLOCK)]
    factors, ranks, variance, degenerate = (np.concatenate(a) for a in zip(*blocks))
    return factors[:, :, :max(1, ranks.max())], ranks, variance, degenerate


@pytest.mark.parametrize("workers", [1, 5])
def test_tangents_have_the_same_bits_at_any_worker_count(workers, with_workers,
                                                          monkeypatch):
    monkeypatch.setattr(tangent, "_BLOCK", 16)
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 300)) * np.linspace(1.0, 1e-3, 6)[:, None]
    X[:, 250:] = X[:, [3]]  # equal points: degenerate neighborhoods
    ts = with_workers(workers, lambda: estimate_all_tangents(X, 3))
    ref = _serial_tangents(X, 3)
    assert ts.degenerate.sum() == 51
    for got, want in zip((ts.factors, ts.ranks, ts.variance, ts.degenerate), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_tangent_set_stack_holds_each_basis_zero_padded():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((5, 60)) * np.array([1.0, 1.0, 1e-3, 1e-3, 1e-3])[:, None]
    X[:, 40:] = 0.5  # rank 0 points
    ts = estimate_all_tangents(X, 4)
    assert len(ts) == 60 and ts.factors.shape == (60, 5, max(ts.ranks))
    assert [t.rank for t in ts] == ts.ranks.tolist()
    assert 0 in ts.ranks and max(ts.ranks) < 4  # ragged, cut below d
    for i, t in enumerate(ts):
        assert t.point_index == i and t.basis.base is ts.factors  # a view
        np.testing.assert_array_equal(ts.factors[i, :, t.rank:], 0.0)
    assert ts[-1].point_index == 59 and [t.point_index for t in ts[57:]] == [57, 58, 59]
    with pytest.raises(IndexError):
        ts[60]


def test_an_error_in_a_pca_block_reaches_the_caller(with_workers, monkeypatch):
    eigh = np.linalg.eigh
    calls = itertools.count(1)

    def fail_second(a):  # one call per block: the second block to run fails
        if next(calls) == 2:
            raise np.linalg.LinAlgError("eigh failed in the second block")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", fail_second)
    monkeypatch.setattr(tangent, "_BLOCK", 16)
    X = np.random.default_rng(10).standard_normal((4, 100))
    with pytest.raises(np.linalg.LinAlgError, match="second block"):
        with_workers(2, lambda: estimate_all_tangents(X, 2))


def test_equal_points_are_degenerate_whatever_their_value():
    # the mean of 21 copies of a random column does not round back to it
    X = np.random.default_rng(0).standard_normal((6, 70))
    X[:, 50:] = X[:, [0]]
    tbs = estimate_all_tangents(X, 3)
    equal = [0] + list(range(50, 70))
    for i, t in enumerate(tbs):
        assert t.degenerate == (i in equal), f"point {i}"
    for i in equal:
        assert tbs[i].rank == 0 and tbs[i].variance == 0.0
        np.testing.assert_array_equal(projector(tbs[i]), np.zeros((6, 6)))


def test_blocked_knn_all_points_equal():
    X = np.ones((3, 10))
    np.testing.assert_array_equal(knn(X, X, 5), np.tile(np.arange(5), (10, 1)))


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

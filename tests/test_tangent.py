import itertools
import tracemalloc

import numpy as np
import pytest

from autojacobin import neighbors, parallel, tangent
from autojacobin.hamming import euclid_topk
from autojacobin.neighbors import knn, knn_bruteforce
from autojacobin.tangent import (
    ProjectionOracle,
    estimate_all_tangents,
    oracle_jacobian_fd,
    oracle_project,
    oracle_tangent_projector,
    projector,
)


def test_knn_collinear():
    X = np.array([[0.0], [1.0], [3.0]])
    np.testing.assert_array_equal(knn_bruteforce(X, X[0], 2), [0, 1])


def test_knn_duplicates_self_first():
    X = np.zeros((4, 2))
    assert knn_bruteforce(X, X[2], 1)[0] == 0  # all tied, ascending index wins
    order = knn_bruteforce(X, X[2], 4)
    np.testing.assert_array_equal(order, [0, 1, 2, 3])


def test_knn_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 50)).T
    for i in range(0, 50, 7):
        d = np.sum((X - X[i]) ** 2, axis=1)
        full = np.argsort(d, kind="stable")
        for k in (1, 5, 50):
            np.testing.assert_array_equal(knn_bruteforce(X, X[i], k), full[:k])


def test_knn_bad_k():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        knn_bruteforce(X, X[0], 4)
    with pytest.raises(ValueError):
        knn_bruteforce(X, X[0], 0)


def test_estimate_tangent_plane():
    # points exactly on span{e1, e2} in R^3
    rng = np.random.default_rng(1)
    X = np.zeros((40, 3))
    X[:, :2] = rng.standard_normal((2, 40)).T
    t = estimate_all_tangents(X, 2)[0]
    assert t.rank == 2
    np.testing.assert_allclose(projector(t), np.diag([1.0, 1.0, 0.0]), atol=1e-8)


def test_a_stack_below_d_is_copied_down_in_place(with_workers):
    # points on an 8-dimensional subspace of R^32 at d = 16: the stack is
    # laid out 16 rows high, and each point's 8 rows move forward inside
    # it before it shrinks: the peak is the 16-high stack, the kNN's
    # indices (0.09x) and one local-PCA block's work arrays, 1.17x on
    # numpy 2.4. A second stack of the 8 rows took it to 1.6x
    rng = np.random.default_rng(14)
    N, D, d, r = 8000, 32, 16, 8
    X = rng.standard_normal((N, r)) @ np.linalg.qr(rng.standard_normal((D, r)))[0].T
    tracemalloc.start()
    try:
        bases = with_workers(1, lambda: estimate_all_tangents(X, d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bases.factors.shape == (N, r, D) and bases.factors.flags.c_contiguous
    assert max(bases.ranks) == r
    stack = 8 * N * d * D
    assert peak < 1.3 * stack, (peak, stack)
    nbr = knn(X, X, D + d)
    for lo in (0, 64, N - 64):
        top = tangent._pca_block(X, nbr[lo:lo + 64], d)[0]
        assert not top[:, r:].any()
        np.testing.assert_array_equal(bases.factors[lo:lo + 64], top[:, :r])


def test_estimate_tangent_degenerate():
    X = np.ones((10, 3))
    t = estimate_all_tangents(X, 2)[4]
    assert t.rank == 0
    np.testing.assert_array_equal(projector(t), np.zeros((3, 3)))


def test_estimate_tangent_sphere_orthogonal_to_radius():
    rng = np.random.default_rng(2)
    m = np.array([0.0, 0.0, 1.0])
    # tight cap of on-sphere neighbors around m
    pts = [m]
    while len(pts) < 30:
        v = m + 1e-2 * rng.standard_normal(3)
        pts.append(v / np.linalg.norm(v))
    X = np.stack(pts)
    t = estimate_all_tangents(X, 2)[0]
    assert t.rank == 2
    # basis directions nearly orthogonal to m
    assert np.max(np.abs(m @ t.basis)) < 1e-2


def test_tangent_variance_is_neighborhood_variance():
    rng = np.random.default_rng(3)
    D, N = 4, 40
    X = rng.standard_normal((D, N)).T
    # the mean over all points of the per-coordinate variance of their
    # D+1 nearest points, by brute force
    expect = np.mean([np.mean(X[knn_bruteforce(X, X[i], D + 1)].var(axis=0))
                      for i in range(N)])
    got = {estimate_all_tangents(X, d).region_variance for d in (1, 2, 4)}
    assert len(got) == 1  # the neighborhood does not grow with the code length d
    assert got.pop() == pytest.approx(expect, rel=1e-12)


def test_estimate_tangent_needs_enough_points():
    with pytest.raises(ValueError, match="N >= D\\+d = 6"):
        estimate_all_tangents(np.zeros((5, 4)), 2)
    with pytest.raises(ValueError, match="d >= 1"):
        estimate_all_tangents(np.zeros((5, 4)), 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_rejects_non_finite_before_any_distance_work(bad, monkeypatch):
    def no_distances(*args):
        raise AssertionError("distance work started")

    monkeypatch.setattr(neighbors, "_knn_block", no_distances)
    X = np.random.default_rng(7).standard_normal((4, 40)).T
    X[17, 2] = bad
    with pytest.raises(ValueError, match="1 non-finite"):
        estimate_all_tangents(X, 2)


def test_estimate_rejects_norms_that_overflow():
    X = np.random.default_rng(7).standard_normal((4, 40)).T
    X[3, 0] = 1e200
    with pytest.raises(ValueError, match="overflow"):
        estimate_all_tangents(X, 2)


def _assert_knn_matches_bruteforce(X, k, queries=None):
    queries = X if queries is None else queries
    got = knn(X, queries, k)
    assert got.shape == (len(queries), k)
    for i in range(len(queries)):
        np.testing.assert_array_equal(got[i], knn_bruteforce(X, queries[i], k),
                                      err_msg=f"query {i}")


def _planted_ties(rng, D, N, k):
    """Rounded data where copies of point 4's k-th neighbor, at lower and
    higher indices, tie with it at the k-th boundary."""
    X = np.round(rng.standard_normal((D, N)), 1).T
    j = knn_bruteforce(X, X[4], k)[k - 1]
    X[[1, N // 2, N - 1]] = X[j]
    return X


@pytest.mark.parametrize("seed", range(20))
def test_blocked_knn_matches_bruteforce_with_planted_boundary_ties(seed):
    rng = np.random.default_rng(seed)
    D, N = 6, 90
    k = D + 3
    X = _planted_ties(rng, D, N, k)
    order = knn_bruteforce(X, X[4], N)
    dist = neighbors._sq_dist(X, X[4], order)
    assert dist[k - 1] == dist[k]  # the k-th boundary is tied
    _assert_knn_matches_bruteforce(X, k)


def test_blocked_knn_matches_bruteforce_on_rounded_data():
    X = np.round(np.random.default_rng(0).standard_normal((16, 300)), 1).T
    for k in (17, 40):
        _assert_knn_matches_bruteforce(X, k)


def test_blocked_knn_matches_bruteforce_far_from_origin():
    # |x|^2 ~ 8e6 against distances ~ 2e-5: the GEMM form cancels about 12 digits
    rng = np.random.default_rng(1)
    X = 1e3 + 1e-3 * rng.standard_normal((8, 120)).T
    _assert_knn_matches_bruteforce(X, 12)
    _assert_knn_matches_bruteforce(np.round(X, 6), 12)


def _spy_blocks(monkeypatch):
    """Record the number of queries in each block knn computes."""
    sizes = []
    block = neighbors._knn_block

    def spy(base, sq, queries, *args):
        sizes.append(len(queries))
        return block(base, sq, queries, *args)

    monkeypatch.setattr(neighbors, "_knn_block", spy)
    return sizes


def _spy_tiles(monkeypatch):
    """Record the tile widths of each block knn computes."""
    widths = []
    tiles = neighbors._tiles

    def spy(N, k):
        got = tiles(N, k)
        widths.append([hi - lo for lo, hi in got])
        return got

    monkeypatch.setattr(neighbors, "_tiles", spy)
    return widths


def test_blocked_knn_ragged_last_block(monkeypatch):
    monkeypatch.setattr(neighbors, "_ROWS", 7)
    sizes = _spy_blocks(monkeypatch)
    X = np.round(np.random.default_rng(2).standard_normal((5, 53)), 1).T
    _assert_knn_matches_bruteforce(X, 8)
    assert sizes == [7] * 7 + [4]  # 8 blocks of at most 7 queries, evened out


def _straddling_ties(rng, D, N, k, tile):
    """Rounded data where copies of point 4's k-th neighbor, on both sides
    of two tile boundaries and at the last column, tie with it at the
    k-th boundary (as _planted_ties)."""
    X = np.round(rng.standard_normal((D, N)), 1).T
    j = knn_bruteforce(X, X[4], k)[k - 1]
    X[[tile - 1, tile, 3 * tile - 1, 3 * tile, N - 1]] = X[j]
    return X


@pytest.mark.parametrize("workers", [1, 5])
def test_knn_blocks_match_bruteforce_at_any_worker_count(workers, with_workers,
                                                         monkeypatch):
    # blocks of at most 7 queries and 16-column tiles, the last ones ragged,
    # with ties at the k-th boundary on both sides of tile boundaries; each
    # block writes its own rows on a worker while the interpreter switches
    # threads every microsecond
    monkeypatch.setattr(neighbors, "_ROWS", 7)
    monkeypatch.setattr(neighbors, "_TILE", 16)
    sizes = _spy_blocks(monkeypatch)
    widths = _spy_tiles(monkeypatch)
    rng = np.random.default_rng(11)
    k = 9
    X = _straddling_ties(rng, 6, 66, k, 16)
    base, queries = _planted_query_ties(rng, 6, 90, k)
    dist = neighbors._sq_dist(X, X[4], knn_bruteforce(X, X[4], 66))
    assert dist[k - 1] == dist[k]  # the k-th boundary is tied
    with_workers(workers, lambda: _assert_knn_matches_bruteforce(X, k))
    assert sorted(sizes) == [3] + [7] * 9  # 66 queries
    assert widths[0] == [16, 16, 16, 16, 2]
    sizes.clear()
    with_workers(workers, lambda: _assert_knn_matches_bruteforce(base, k, queries))
    assert sorted(sizes) == [4, 5]  # 9 queries


@pytest.mark.parametrize("seed", range(10))
def test_tiled_knn_matches_bruteforce_with_ties_straddling_tiles(seed, monkeypatch):
    # 8-column tiles: the candidates grow past twice those kept, so B is
    # updated between tiles as well as after the last
    monkeypatch.setattr(neighbors, "_TILE", 8)
    prunes = []
    prune = neighbors._prune
    monkeypatch.setattr(neighbors, "_prune",
                        lambda *args: prunes.append(1) or prune(*args))
    rng = np.random.default_rng(seed)
    k = 5
    X = _straddling_ties(rng, 4, 61, k, 8)
    order = knn_bruteforce(X, X[4], 61)
    dist = neighbors._sq_dist(X, X[4], order)
    assert dist[k - 1] == dist[k]  # the k-th boundary is tied
    _assert_knn_matches_bruteforce(X, k)  # one block of 61 queries
    assert len(prunes) >= 2  # one update after the last tile at most
    _assert_knn_matches_bruteforce(X, k, X[4:5])  # a single query
    np.testing.assert_array_equal(euclid_topk(X, X[4], k), order[:k])


@pytest.mark.parametrize("k, widths", [(1, [8] * 6 + [5]), (12, [12] + [8] * 5 + [1]),
                                       (40, [40, 8, 5]), (53, [53])])
def test_tiled_knn_with_k_beyond_the_tile(k, widths, monkeypatch):
    # a first tile of max(_TILE, k) points, then 8-point tiles, the last
    # ragged; k = N is one tile
    monkeypatch.setattr(neighbors, "_TILE", 8)
    seen = _spy_tiles(monkeypatch)
    rng = np.random.default_rng(12)
    X = np.round(rng.standard_normal((3, 53)), 1).T
    X[[7, 8, 30]] = X[20]  # equal points, one pair across a tile boundary
    _assert_knn_matches_bruteforce(X, k)
    _assert_knn_matches_bruteforce(X, k, X[20:21])
    assert seen[0] == widths
    np.testing.assert_array_equal(euclid_topk(X, X[20], k),
                                  knn_bruteforce(X, X[20], k))


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("D", [1, 5, 8, 64, 130, 300])
def test_pair_distances_round_as_sq_dist(D, layout, monkeypatch):
    # the re-rank's batched distances, in any pair order and in chunks of
    # either size, equal the ones knn_bruteforce ranks by, bit for bit
    rng = np.random.default_rng(D)
    base = (rng.standard_normal((D, 70)) * 10.0 ** rng.integers(-3, 4, (D, 1))).T
    base = np.asfortranarray(base) if layout == "F" else np.ascontiguousarray(base)
    queries = rng.standard_normal((D, 9)).T
    rows, cols = rng.integers(0, 9, 700), rng.integers(0, 70, 700)
    want = np.array([neighbors._sq_dist(base, queries[i], np.arange(70))[j]
                     for i, j in zip(rows, cols)])
    for entries in (neighbors._PAIR_ENTRIES, 7 * D):
        monkeypatch.setattr(neighbors, "_PAIR_ENTRIES", entries)
        got = neighbors._pair_sq_dist(base, queries, rows, cols)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 37])
def test_blocked_knn_extreme_k(k):
    X = np.round(np.random.default_rng(3).standard_normal((4, 37)), 1).T
    X[10] = X[20]  # a duplicate point: k = 1 still returns self first
    _assert_knn_matches_bruteforce(X, k)


# queries that are not the base, as in ground truth


def _planted_query_ties(rng, D, N, k):
    """Rounded base and queries where copies of query 0's k-th nearest base
    point, at lower and higher indices, tie with it at the k-th boundary."""
    base = np.round(rng.standard_normal((D, N)), 1).T
    queries = np.round(rng.standard_normal((D, 9)), 1).T
    j = knn_bruteforce(base, queries[0], k)[k - 1]
    base[[1, N // 2, N - 1]] = base[j]
    return base, queries


@pytest.mark.parametrize("seed", range(10))
def test_knn_queries_match_bruteforce_with_planted_boundary_ties(seed):
    rng = np.random.default_rng(seed)
    k = 7
    base, queries = _planted_query_ties(rng, 6, 90, k)
    dist = neighbors._sq_dist(base, queries[0], knn_bruteforce(base, queries[0], 90))
    assert dist[k - 1] == dist[k]  # the k-th boundary is tied
    _assert_knn_matches_bruteforce(base, k, queries)


def test_knn_queries_match_bruteforce_far_from_origin():
    rng = np.random.default_rng(5)
    base = 1e3 + 1e-3 * rng.standard_normal((8, 120)).T
    queries = 1e3 + 1e-3 * rng.standard_normal((8, 30)).T
    _assert_knn_matches_bruteforce(base, 12, queries)
    _assert_knn_matches_bruteforce(np.round(base, 6), 12, np.round(queries, 6))


@pytest.mark.parametrize("k", [1, 41])
def test_knn_queries_extreme_k(k):
    rng = np.random.default_rng(6)
    base = np.round(rng.standard_normal((4, 41)), 1).T
    base[30] = base[12]
    queries = np.round(rng.standard_normal((4, 11)), 1).T
    queries[5] = base[30]  # its nearest points tie at distance 0
    _assert_knn_matches_bruteforce(base, k, queries)
    assert knn(base, queries, k)[5, 0] == 12


def test_knn_queries_ragged_last_tile(monkeypatch):
    N = 53
    monkeypatch.setattr(neighbors, "_TILE", 6)
    monkeypatch.setattr(neighbors, "_ROWS", 6)
    sizes = _spy_blocks(monkeypatch)
    widths = _spy_tiles(monkeypatch)
    rng = np.random.default_rng(7)
    base = np.round(rng.standard_normal((5, N)), 1).T
    queries = np.round(rng.standard_normal((5, 27)), 1).T
    _assert_knn_matches_bruteforce(base, 8, queries)
    assert sizes == [6, 6, 6, 6, 3]
    assert widths == [[8] + [6] * 7 + [3]] * 5  # the first tile holds k = 8


def test_knn_blocks_and_tiles_follow_rows_and_tile_width(monkeypatch):
    # at most 64 queries per block, evened out; 2048-point tiles; and the
    # worker gate sees the bytes of a block's first tile of distances
    sizes = _spy_blocks(monkeypatch)
    widths = _spy_tiles(monkeypatch)
    gates = []
    monkeypatch.setattr(parallel, "workers",
                        lambda tasks, block_bytes: gates.append(block_bytes) or 1)
    rng = np.random.default_rng(8)
    for N, Q in ((2000, 70), (30000, 20)):
        base = rng.standard_normal((2, N)).T
        knn(base, rng.standard_normal((2, Q)).T, 1)
    assert sizes == [35, 35, 20]
    assert widths[:2] == [[2000]] * 2
    assert widths[2] == [2048] * 14 + [30000 - 14 * 2048]
    assert gates == [8 * 35 * 2000, 8 * 20 * 2048]


def _per_point_tangent(X, i, d):
    """The one-point-at-a-time local PCA that the blocked path replaced."""
    D = X.shape[1]
    order = knn_bruteforce(X, X[i], D + d)
    variance = float(np.mean(X[order[:D + 1]].var(axis=0)))
    nbrs = X[order]
    centered = nbrs - nbrs.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered.T @ centered / (D + d))
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
    X = (rng.standard_normal((6, 70)) * np.linspace(1.0, 1e-3, 6)[:, None]).T
    X[50:] = 0.25  # 20 equal points: degenerate neighborhoods
    X = np.asfortranarray(X) if layout == "F" else np.ascontiguousarray(X)
    ts = estimate_all_tangents(X, 3)
    variances = []
    for i, t in enumerate(ts):
        basis, variance = _per_point_tangent(X, i, 3)
        variances.append(variance)
        assert t.rank == basis.shape[1]
        np.testing.assert_array_equal(t.basis, basis)
    assert ts.ranks[50:].tolist() == [0] * 20
    assert ts.region_variance == np.mean(variances)


def _serial_tangents(X, d):
    """(factors, ranks, per-point variance) from a plain loop over the
    local-PCA blocks, with the factors cut to the largest rank (at least 1)."""
    D = X.shape[1]
    nbr = knn(X, X, D + d)
    blocks = [tangent._pca_block(X, nbr[lo:lo + tangent._BLOCK], d)
              for lo in range(0, len(X), tangent._BLOCK)]
    factors, ranks, variance = (np.concatenate(a) for a in zip(*blocks))
    return factors[:, :max(1, ranks.max())], ranks, variance


@pytest.mark.parametrize("workers", [1, 5])
def test_tangents_have_the_same_bits_at_any_worker_count(workers, with_workers,
                                                          monkeypatch):
    monkeypatch.setattr(tangent, "_BLOCK", 16)
    rng = np.random.default_rng(8)
    X = (rng.standard_normal((6, 300)) * np.linspace(1.0, 1e-3, 6)[:, None]).T
    X[250:] = X[3]  # equal points: degenerate neighborhoods
    ts = with_workers(workers, lambda: estimate_all_tangents(X, 3))
    factors, ranks, variance = _serial_tangents(X, 3)
    assert (ranks == 0).sum() == 51
    for got, want in zip((ts.factors, ts.ranks), (factors, ranks)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert ts.region_variance == np.mean(variance)


def test_tangent_set_stack_holds_each_basis_zero_padded():
    rng = np.random.default_rng(9)
    X = (rng.standard_normal((5, 60)) * np.array([1.0, 1.0, 1e-3, 1e-3, 1e-3])[:, None]).T
    X[40:] = 0.5  # rank 0 points
    ts = estimate_all_tangents(X, 4)
    assert len(ts) == 60 and ts.factors.shape == (60, max(ts.ranks), 5)
    assert [t.rank for t in ts] == ts.ranks.tolist()
    assert 0 in ts.ranks and max(ts.ranks) < 4  # ragged, cut below d
    def row(t):  # the row of the stack that item t views
        assert t.basis.base is ts.factors
        return (t.basis.ctypes.data - ts.factors.ctypes.data) // ts.factors.strides[0]

    for i, t in enumerate(ts):
        assert row(t) == i
        np.testing.assert_array_equal(ts.factors[i, t.rank:], 0.0)
    assert row(ts[-1]) == 59 and [row(t) for t in ts[57:]] == [57, 58, 59]
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
    X = np.random.default_rng(10).standard_normal((4, 100)).T
    with pytest.raises(np.linalg.LinAlgError, match="second block"):
        with_workers(2, lambda: estimate_all_tangents(X, 2))


def test_an_error_in_every_knn_block_reaches_the_caller(with_workers, monkeypatch):
    # 5 blocks on 2 workers, each failing: every block gives its distance
    # buffer back, so the blocks after the first two do not wait for one
    def fail(*args):
        raise FloatingPointError("a kNN block failed")

    monkeypatch.setattr(neighbors, "_knn_block", fail)
    monkeypatch.setattr(neighbors, "_ROWS", 8)
    X = np.random.default_rng(11).standard_normal((4, 40)).T
    with pytest.raises(FloatingPointError, match="kNN block failed"):
        with_workers(2, lambda: knn(X, X, 3))


def test_equal_points_are_degenerate_whatever_their_value():
    # the mean of 21 copies of a random point does not round back to it
    X = np.random.default_rng(0).standard_normal((6, 70)).T
    X[50:] = X[0]
    tbs = estimate_all_tangents(X, 3)
    equal = [0] + list(range(50, 70))
    for i, t in enumerate(tbs):
        assert (t.rank == 0) == (i in equal), f"point {i}"
    for i in equal:
        np.testing.assert_array_equal(projector(tbs[i]), np.zeros((6, 6)))
    # and the region variance counts their neighborhoods as 0
    _, ranks, variance = tangent._pca_block(X, knn(X, X, 9), 3)
    assert ranks[equal].tolist() == [0] * 21 and variance[equal].tolist() == [0.0] * 21


def test_blocked_knn_all_points_equal():
    X = np.ones((10, 3))
    np.testing.assert_array_equal(knn(X, X, 5), np.tile(np.arange(5), (10, 1)))


def test_basis_orthonormal_and_projector_idempotent():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 60)).T
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

import re

import numpy as np
import pytest

from autojacobin import hamming, neighbors
from autojacobin.hamming import (
    BinaryCodes,
    build_groundtruth,
    encode,
    euclid_topk,
    hamming_distances,
    hamming_topk,
    m_recall,
    pack_bits,
    recall_curve,
)
from autojacobin.network import NetworkParams


def unpack_bits(packed, bits):
    """Inverse of pack_bits: a boolean (N, bits) matrix."""
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :bits].astype(bool)


def _random_codes(rng, n, bits):
    signs = rng.integers(0, 2, size=(n, bits)).astype(bool)
    return BinaryCodes(bits=bits, count=n, packed=pack_bits(signs)), signs


def _params_with_w1(w1):
    d, D = w1.shape
    return NetworkParams(w1=w1, w2=np.zeros((D, d)), b1=np.zeros(d), b2=np.zeros(D))


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    for bits in (1, 7, 8, 9, 64, 65):
        codes, signs = _random_codes(rng, 13, bits)
        np.testing.assert_array_equal(unpack_bits(codes.packed, bits), signs)


def test_packed_shape_validated():
    with pytest.raises(ValueError):
        BinaryCodes(bits=9, count=4, packed=np.zeros((4, 1), dtype=np.uint8))


def test_packed_must_be_uint8_with_zero_padding():
    with pytest.raises(ValueError, match="dtype int64, expected uint8"):
        BinaryCodes(bits=64, count=3, packed=np.zeros((3, 8), dtype=np.int64))
    packed = np.zeros((4, 2), dtype=np.uint8)
    packed[2, 1] = 0b1000_0000  # bit 15 of an 11-bit code
    with pytest.raises(ValueError, match="point 2 has padding bits set after bit 11"):
        BinaryCodes(bits=11, count=4, packed=packed)
    packed[2, 1] = 0b0000_0100  # bit 10: a code bit
    BinaryCodes(bits=11, count=4, packed=packed)


def test_encode_identity_projection():
    p = _params_with_w1(np.eye(2))
    codes = encode(p, np.array([[0.3, -0.2]]))
    np.testing.assert_array_equal(unpack_bits(codes.packed, 2)[0], [True, False])


def test_encode_sign_zero_is_plus_one():
    p = _params_with_w1(np.eye(2))
    codes = encode(p, np.zeros((1, 2)))
    np.testing.assert_array_equal(unpack_bits(codes.packed, 2)[0], [True, True])


def test_encode_scale_invariant_without_bias():
    rng = np.random.default_rng(1)
    p = _params_with_w1(rng.standard_normal((5, 4)))
    X = rng.standard_normal((4, 30)).T
    np.testing.assert_array_equal(encode(p, X).packed, encode(p, 2.0 * X).packed)


def test_encode_bias_flag_changes_threshold():
    w1 = np.array([[1.0]])
    p = NetworkParams(w1=w1, w2=np.zeros((1, 1)), b1=np.array([-0.5]),
                      b2=np.zeros(1))
    X = np.array([[0.2]])
    assert unpack_bits(encode(p, X).packed, 1)[0, 0]          # 0.2 >= 0
    assert not unpack_bits(encode(p, X, use_bias=True).packed, 1)[0, 0]


def test_encode_matches_sign_matrix():
    rng = np.random.default_rng(2)
    p = _params_with_w1(rng.standard_normal((11, 6)))
    X = rng.standard_normal((6, 40)).T
    codes = encode(p, X)
    np.testing.assert_array_equal(unpack_bits(codes.packed, 11),
                                  (p.w1 @ X.T >= 0).T)


def test_encode_dim_mismatch():
    p = _params_with_w1(np.eye(3))
    with pytest.raises(ValueError):
        encode(p, np.zeros((2, 4)))


def test_pack_bits_of_a_transposed_view_equals_its_contiguous_copy():
    rng = np.random.default_rng(6)
    for bits in (7, 8, 63, 64, 300):
        view = (rng.standard_normal((bits, 50)) >= 0).T
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(pack_bits(view),
                                      pack_bits(np.ascontiguousarray(view)))


TILE = hamming._ENCODE_TILE


@pytest.mark.parametrize("workers", [1, 5])
@pytest.mark.parametrize("use_bias", [False, True])
@pytest.mark.parametrize("bits", [1, 7, 8, 63, 64, 300])
def test_tiled_encode_equals_one_product_byte_for_byte(bits, use_bias, workers,
                                                       with_workers):
    rng = np.random.default_rng(bits)
    D = 24
    p = NetworkParams(w1=rng.standard_normal((bits, D)), w2=np.zeros((D, bits)),
                      b1=rng.standard_normal(bits), b2=np.zeros(D))
    Xs = [rng.standard_normal((D, N)).T for N in (1, TILE - 1, TILE, TILE + 1, 3 * TILE + 17)]
    Xs.append(np.ascontiguousarray(Xs[-1]))  # as the readers lay it out
    got = with_workers(workers, lambda: [encode(p, X, use_bias=use_bias) for X in Xs])
    for X, codes in zip(Xs, got):
        proj = p.w1 @ X.T
        if use_bias:
            proj = proj + p.b1[:, None]
        assert codes.count == len(X)
        assert codes.packed.tobytes() == pack_bits((proj >= 0.0).T).tobytes()
        padding = np.unpackbits(codes.packed, axis=1, bitorder="little")[:, bits:]
        assert not padding.any()


@pytest.mark.parametrize("workers", [1, 5])
@pytest.mark.parametrize("use_bias", [False, True])
def test_encode_scales_raw_input_tile_by_tile(use_bias, workers, with_workers):
    rng = np.random.default_rng(41)
    D, bits, s = 24, 64, 0.8 / 7.3
    p = NetworkParams(w1=rng.standard_normal((bits, D)), w2=np.zeros((D, bits)),
                      b1=rng.standard_normal(bits) * 0.3, b2=np.zeros(D), scale=s)
    Xs = [7.0 * rng.standard_normal((D, N)).T for N in (1, 200, 3 * TILE + 17)]
    got = with_workers(workers, lambda: [encode(p, X, use_bias=use_bias) for X in Xs])
    for X, codes in zip(Xs, got):
        proj = p.w1 @ (X * s).T
        if use_bias:
            proj = proj + p.b1[:, None]
        assert codes.packed.tobytes() == pack_bits((proj >= 0.0).T).tobytes()
    if use_bias:  # against the bias, the scale moves the codes
        unscaled = NetworkParams(w1=p.w1, w2=p.w2, b1=p.b1, b2=p.b2)
        assert got[-1].packed.tobytes() != encode(unscaled, Xs[-1], True).packed.tobytes()


def test_encode_tiles_start_at_multiples_of_the_width_and_cover_every_column():
    assert hamming._tiles(0, 8) == [(0, 0)]
    assert hamming._tiles(15, 8) == [(0, 15)]
    assert hamming._tiles(16, 8) == [(0, 8), (8, 16)]
    assert hamming._tiles(41, 8) == [(0, 8), (8, 16), (16, 24), (24, 32), (32, 41)]


@pytest.mark.parametrize("width", [1024, 2048, 3072, 4096])
@pytest.mark.parametrize("d,D,N", [(1, 3, 5000), (7, 5, 9217), (16, 64, 12305),
                                   (64, 64, 30000), (64, 128, 8193),
                                   (300, 128, 9000), (3, 1000, 8200)])
def test_column_tiles_give_the_projection_bits_of_one_product(d, D, N, width):
    # encode's codes equal one product's only if its tiles' products do:
    # BLAS may round a narrow or ragged product differently
    rng = np.random.default_rng(d * D)
    W, X = rng.standard_normal((d, D)), np.ascontiguousarray(rng.standard_normal((D, N)).T)
    full = W @ X.T
    tiles = hamming._tiles(N, width)
    assert tiles[0][0] == 0 and tiles[-1][1] == N
    for lo, hi in tiles:
        proj = np.empty((d, hi - lo))
        np.matmul(W, X[lo:hi].T, out=proj)
        np.testing.assert_array_equal(proj.view(np.uint64),
                                      full[:, lo:hi].view(np.uint64))


def test_encode_rejects_non_finite_input():
    # a NaN point used to get a silent code (every bit 0)
    p = _params_with_w1(np.random.default_rng(5).standard_normal((8, 3)))
    X = np.zeros((4, 3))
    X[2, 1] = np.nan
    X[0, 0] = np.inf
    with pytest.raises(ValueError, match="2 non-finite"):
        encode(p, X)


def _naive_hamming(packed_base, q, bits):
    ref = []
    bbits = np.unpackbits(packed_base, axis=1, bitorder="little")[:, :bits]
    qbits = np.unpackbits(q[None, :], axis=1, bitorder="little")[0, :bits]
    for row in bbits:
        ref.append(int(np.sum(row != qbits)))
    return np.array(ref)


def test_hamming_topk_exact_match_first():
    rng = np.random.default_rng(3)
    codes, signs = _random_codes(rng, 20, 16)
    q = codes.packed[7]
    assert hamming_topk(codes, q, 1)[0] == 7 or _naive_hamming(codes.packed, q, 16)[hamming_topk(codes, q, 1)[0]] == 0


def test_hamming_topk_all_identical_tie_break():
    packed = np.zeros((5, 1), dtype=np.uint8)
    codes = BinaryCodes(bits=8, count=5, packed=packed)
    np.testing.assert_array_equal(hamming_topk(codes, np.zeros(1, dtype=np.uint8), 3),
                                  [0, 1, 2])


def test_hamming_topk_range_check():
    codes, _ = _random_codes(np.random.default_rng(4), 5, 8)
    with pytest.raises(ValueError):
        hamming_topk(codes, codes.packed[0], 6)
    with pytest.raises(ValueError):
        hamming_topk(codes, codes.packed[0], 0)


def test_hamming_topk_matches_naive_oracle_with_ties():
    rng = np.random.default_rng(5)
    codes, _ = _random_codes(rng, 300, 12)  # few bits: many distance ties
    for t in range(5):
        q = codes.packed[rng.integers(0, 300)]
        d = _naive_hamming(codes.packed, q, 12)
        full = np.argsort(d, kind="stable")
        for i in (1, 10, 100):
            np.testing.assert_array_equal(hamming_topk(codes, q, i), full[:i])


def test_hamming_topk_histogram_threshold_inside_a_large_tied_bucket():
    # 6000 codes of 16 bits: about 400 of them lie at distance 5 from a
    # query, so ranks i inside that bucket end inside a run of ties
    rng = np.random.default_rng(6)
    n, bits = 6000, 16
    codes, _ = _random_codes(rng, n, bits)
    for q in (codes.packed[17], rng.integers(0, 256, size=2, dtype=np.uint8)):
        d = _naive_hamming(codes.packed, q, bits)
        full = np.argsort(d, kind="stable")
        counts = np.bincount(d, minlength=bits + 1)
        below = np.cumsum(counts) - counts  # the first rank at each distance
        t = 5
        assert counts[t] >= 300
        for i in (1, below[t] + 1, below[t] + 2, below[t] + counts[t], n):
            np.testing.assert_array_equal(hamming_topk(codes, q, i), full[:i],
                                          err_msg=f"i={i}")


def _reference_ranks(gt, base_codes, query_codes, K):
    """(Q, k) Hamming rank of each ground-truth member, K if not below K,
    from a full stable argsort per query of the lookup-table popcount's
    int64 distances."""
    ranks = np.empty(gt.shape, dtype=np.int64)
    for j in range(gt.shape[0]):
        order = np.argsort(_naive_hamming(base_codes.packed, query_codes.packed[j],
                                          base_codes.bits), kind="stable")
        rank = np.empty(base_codes.count, dtype=np.int64)
        rank[order] = np.arange(base_codes.count)
        ranks[j] = np.minimum(rank[gt[j]], K)
    return ranks


def _reference_recall_curve(gt, base_codes, query_codes, K):
    """Mean Recall@1..K from a full stable argsort per query, as recall_curve
    computed it with the lookup-table popcount (int64 distances)."""
    pos = _reference_ranks(gt, base_codes, query_codes, K)
    return np.cumsum(np.bincount(pos[pos < K], minlength=K)) / gt.size


def _planted_ties(rng, n, bits, n_query):
    """Random base and query codes with duplicate base rows, queries equal
    to a duplicated row, and one base row that is a query's complement."""
    base = rng.integers(0, 2, size=(n, bits)).astype(bool)
    base[10:30] = base[3]           # 21 codes at distance 0 from query 0
    base[40:45] = base[50]
    queries = rng.integers(0, 2, size=(n_query, bits)).astype(bool)
    queries[0] = base[3]
    queries[1] = base[50]
    base[60] = ~queries[2]          # distance `bits`: the uint16 path at 300
    return (BinaryCodes(bits=bits, count=n, packed=pack_bits(base)),
            BinaryCodes(bits=bits, count=n_query, packed=pack_bits(queries)))


RANKING_BITS = (1, 7, 11, 32, 37, 64, 72, 128, 300)


@pytest.mark.parametrize("bits", RANKING_BITS)
def test_hamming_distances_match_unpacked_oracle(bits):
    rng = np.random.default_rng(bits)
    base, queries = _planted_ties(rng, 120, bits, 6)
    for j in range(queries.count):
        d = hamming_distances(base, queries.packed[j])
        assert d.dtype == (np.uint8 if bits <= 255 else np.uint16)
        assert d.shape == (base.count,)
        np.testing.assert_array_equal(
            d, _naive_hamming(base.packed, queries.packed[j], bits))
    assert hamming_distances(base, queries.packed[2])[60] == bits


@pytest.mark.parametrize("bits", RANKING_BITS)
def test_hamming_topk_matches_full_stable_argsort(bits):
    rng = np.random.default_rng(100 + bits)
    n = 120
    base, queries = _planted_ties(rng, n, bits, 6)
    for j in range(queries.count):
        q = queries.packed[j]
        full = np.argsort(_naive_hamming(base.packed, q, bits), kind="stable")
        for i in (1, 2, 15, 25, n - 1, n):
            np.testing.assert_array_equal(hamming_topk(base, q, i), full[:i])


def _assert_topk_is_the_stable_argsort(base, q, ranks):
    full = np.argsort(_naive_hamming(base.packed, q, base.bits), kind="stable")
    for i in ranks:
        np.testing.assert_array_equal(hamming_topk(base, q, i), full[:i],
                                      err_msg=f"i={i}")


def test_hamming_topk_gallops_past_a_lone_nearest_code():
    # one code at distance 0 and every other at 40 or more of 64 bits: the
    # window grows through 0, 1, 3, 7, 15 and 31 before it holds 2 codes
    rng = np.random.default_rng(20)
    n, bits = 200, 64
    query = rng.integers(0, 2, size=bits).astype(bool)
    far = np.tile(~query, (n, 1))
    for row in far:
        row[rng.choice(bits, size=rng.integers(0, 25), replace=False)] ^= True
    far[77] = query
    base = BinaryCodes(bits=bits, count=n, packed=pack_bits(far))
    q = pack_bits(query[None, :])[0]
    d = _naive_hamming(base.packed, q, bits)
    assert d[77] == 0 and np.delete(d, 77).min() >= 40
    _assert_topk_is_the_stable_argsort(base, q, (1, 2, n))


@pytest.mark.parametrize("bits", (7, 64, 300))
def test_hamming_topk_of_a_base_of_one_code_or_its_complement(bits):
    # every code at distance 0, then every code at distance `bits`
    rng = np.random.default_rng(40 + bits)
    n = 50
    query = rng.integers(0, 2, size=(1, bits)).astype(bool)
    q = pack_bits(query)[0]
    for rows in (query, ~query):
        base = BinaryCodes(bits=bits, count=n, packed=pack_bits(np.repeat(rows, n, 0)))
        _assert_topk_is_the_stable_argsort(base, q, (1, 2, n // 2, n))


@pytest.mark.parametrize("bits", RANKING_BITS)
def test_hamming_topk_at_each_window_boundary(bits):
    # i equal to the count within lo, lo + 1, lo + 3 and lo + 7 of the
    # nearest distance lo, one past it, and the whole base
    rng = np.random.default_rng(50 + bits)
    n = 400
    base, queries = _planted_ties(rng, n, bits, 6)
    for q in queries.packed:
        d = _naive_hamming(base.packed, q, bits)
        counts = [np.count_nonzero(d <= d.min() + w) for w in (0, 1, 3, 7)]
        ranks = sorted({min(c + extra, n) for c in counts for extra in (0, 1)} | {n})
        _assert_topk_is_the_stable_argsort(base, q, ranks)


@pytest.mark.parametrize("i", [True, 10.0])
def test_hamming_topk_rejects_an_i_that_is_not_an_integer(i):
    codes, _ = _random_codes(np.random.default_rng(60), 20, 16)
    with pytest.raises(ValueError, match=re.escape(f"i={i!r} is not an integer")):
        hamming_topk(codes, codes.packed[0], i)


def test_hamming_topk_takes_a_numpy_integer_i():
    codes, _ = _random_codes(np.random.default_rng(61), 20, 16)
    _assert_topk_is_the_stable_argsort(codes, codes.packed[3], (np.int64(10), np.uint8(20)))


@pytest.mark.parametrize("bits", RANKING_BITS)
def test_recall_curve_matches_reference(bits):
    rng = np.random.default_rng(200 + bits)
    n, n_query, k = 120, 6, 7
    base, queries = _planted_ties(rng, n, bits, n_query)
    gt = np.stack([rng.permutation(n)[:k] for _ in range(n_query)])
    gt[0, :3] = [29, 3, 10]   # tied at distance 0 from query 0
    gt = gt.astype(np.uint32)
    for K in (1, 20, n):
        curve = recall_curve(gt, base, queries, K)
        np.testing.assert_array_equal(curve.values,
                                      _reference_recall_curve(gt, base, queries, K))
    assert curve.values[-1] == 1.0


@pytest.mark.parametrize("workers", [1, 5])
@pytest.mark.parametrize("bits", [1, 63, 64, 300])
def test_recall_curve_blocks_equal_the_reference(bits, workers, with_workers,
                                                 monkeypatch):
    # 4-query blocks: 11 queries make a ragged last block of 3
    monkeypatch.setattr(hamming, "_RANK_ROWS", 4)
    rng = np.random.default_rng(500 + bits)
    n, n_query, k = 120, 11, 7
    base, queries = _planted_ties(rng, n, bits, n_query)
    gt = np.stack([rng.permutation(n)[:k] for _ in range(n_query)])
    # query 0 is at distance 0 from points 3 and 10..29, which rank 0..20 by
    # index: K = 15 cuts the tie after point 23
    gt[0, :5] = [29, 3, 24, 10, 23]
    gt[2, 0] = 60  # at distance `bits` from query 2, the farthest point
    gt = gt.astype(np.uint32)
    for K in (1, 15, n - 1, n):
        curve = with_workers(workers, lambda: recall_curve(gt, base, queries, K))
        expect = _reference_ranks(gt, base, queries, K)
        np.testing.assert_array_equal(curve.ranks, expect)
        np.testing.assert_array_equal(curve.values,
                                      _reference_recall_curve(gt, base, queries, K))
        if K == 15 and bits > 1:  # a 1-bit code ties with half the base
            assert curve.ranks[0, :5].tolist() == [15, 0, 15, 1, 14]
    if bits > 1:
        assert curve.ranks[2, 0] == n - 1


def test_recall_curve_block_size_follows_the_base(monkeypatch):
    # one query's keys past the byte budget: one-query blocks; a small base:
    # at most _RANK_ROWS queries a block
    starts = []

    def spy(fn, blocks, block_bytes, buffers=None, meanwhile=None):
        starts.append(list(blocks))
        return ordered_map(fn, blocks, block_bytes, buffers, meanwhile)

    ordered_map = hamming.parallel.ordered_map
    monkeypatch.setattr(hamming.parallel, "ordered_map", spy)
    monkeypatch.setattr(hamming, "_RANK_BLOCK_BYTES", 8 * 100)
    rng = np.random.default_rng(3)
    base, queries = _planted_ties(rng, 120, 16, 3)
    gt = np.zeros((3, 2), dtype=np.uint32)
    recall_curve(gt, base, queries, 50)
    monkeypatch.setattr(hamming, "_RANK_BLOCK_BYTES", 1 << 20)
    recall_curve(gt, base, queries, 50)
    assert starts == [[(0, 1), (1, 2), (2, 3)], [(0, 3)]]


def test_recall_curve_rejects_mismatched_inputs():
    rng = np.random.default_rng(4)
    base, queries = _planted_ties(rng, 120, 16, 6)
    gt = np.zeros((6, 3), dtype=np.int64)
    other, _ = _random_codes(rng, 6, 17)
    with pytest.raises(ValueError, match="5 queries of 16 bits for 6 ground-truth rows"):
        recall_curve(gt, base, BinaryCodes(16, 5, queries.packed[:5]), 10)
    with pytest.raises(ValueError, match="6 queries of 17 bits"):
        recall_curve(gt, base, other, 10)
    for bad in (-1, 120):
        gt[4, 2] = bad
        with pytest.raises(ValueError, match="indices outside 0..119"):
            recall_curve(gt, base, queries, 10)


def test_recall_curve_rejects_no_queries_and_no_neighbours():
    rng = np.random.default_rng(4)
    base, queries = _planted_ties(rng, 120, 16, 6)
    none = BinaryCodes(16, 0, queries.packed[:0])
    for gt, q in ((np.zeros((0, 3), dtype=np.int64), none),
                  (np.zeros((6, 0), dtype=np.int64), queries)):
        with pytest.raises(ValueError, match=re.escape(
                f"at least one query and one ground-truth neighbour, got a {gt.shape}")):
            recall_curve(gt, base, q, 10)


def test_recall_curve_ranks_without_hamming_topk(monkeypatch):
    # its depth K is often thousands, where the histogram of hamming_topk
    # measured slower than a full sort of the distances
    def no_topk(*args):
        raise AssertionError("recall_curve called hamming_topk")

    rng = np.random.default_rng(7)
    base, queries = _planted_ties(rng, 120, 16, 6)
    gt = np.stack([rng.permutation(120)[:5] for _ in range(6)]).astype(np.uint32)
    expect = _reference_recall_curve(gt, base, queries, 40)
    monkeypatch.setattr(hamming, "hamming_topk", no_topk)
    np.testing.assert_array_equal(recall_curve(gt, base, queries, 40).values, expect)


@pytest.mark.parametrize("bits", (1, 11, 64))
def test_recall_curve_prefix_equals_the_curve_of_the_prefix(bits):
    rng = np.random.default_rng(300 + bits)
    n, n_query, k = 120, 6, 9
    base, queries = _planted_ties(rng, n, bits, n_query)
    gt = np.stack([rng.permutation(n)[:k] for _ in range(n_query)]).astype(np.uint32)
    for K in (1, 20, n):
        full = recall_curve(gt, base, queries, K)
        for i in (1, 4, k):
            prefix, direct = full.prefix(i), recall_curve(gt[:, :i], base, queries, K)
            assert (prefix.k, prefix.K) == (i, K)
            assert prefix.values.tobytes() == direct.values.tobytes()
            np.testing.assert_array_equal(prefix.ranks, direct.ranks)
    for i in (0, k + 1):
        with pytest.raises(ValueError, match=f"k={i} out of range"):
            full.prefix(i)


def test_query_row_must_match_codes():
    codes, _ = _random_codes(np.random.default_rng(12), 5, 11)
    with pytest.raises(ValueError, match="expected uint8"):
        hamming_distances(codes, codes.packed[0].astype(np.int64))
    with pytest.raises(ValueError, match="expected uint8"):
        hamming_topk(codes, codes.packed[0, :1], 1)
    with pytest.raises(ValueError, match="padding bits"):
        hamming_topk(codes, codes.packed[0] | np.array([0, 0x80], np.uint8), 1)


def test_euclid_topk_line():
    base = np.array([[0.0], [1.0], [3.0]])
    np.testing.assert_array_equal(euclid_topk(base, np.array([0.9]), 2), [1, 0])


def test_euclid_topk_self_first_and_oracle():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((16, 500)).T
    q = base[123]
    assert euclid_topk(base, q, 1)[0] == 123
    d = np.sum((base - q) ** 2, axis=1)
    np.testing.assert_array_equal(euclid_topk(base, q, 40),
                                  np.argsort(d, kind="stable")[:40])


def test_recall_curve_perfect_codes():
    # base codes equal to the query's code ordering by Euclidean rank:
    # one query whose Hamming order equals the true order
    rng = np.random.default_rng(8)
    n, bits, k = 32, 16, 4
    # build codes whose Hamming distance to query grows with index
    signs = np.zeros((n + 1, bits), dtype=bool)
    for i in range(n):
        signs[i + 1, :] = signs[0]
        signs[i + 1, :min(i, bits)] = ~signs[0, :min(i, bits)]
    base = BinaryCodes(bits=bits, count=n, packed=pack_bits(signs[1:]))
    query = BinaryCodes(bits=bits, count=1, packed=pack_bits(signs[:1]))
    gt = np.arange(k, dtype=np.uint32)[None, :]
    curve = recall_curve(gt, base, query, n)
    assert curve.values[k - 1] == pytest.approx(1.0)
    assert np.all(curve.values[k:] == 1.0)


def test_recall_curve_monotone_and_ends_at_one():
    rng = np.random.default_rng(9)
    base_pts = rng.standard_normal((6, 200)).T
    query_pts = rng.standard_normal((6, 20)).T
    p = _params_with_w1(rng.standard_normal((16, 6)))
    bc, qc = encode(p, base_pts), encode(p, query_pts)
    gt = build_groundtruth(base_pts, query_pts, 5)
    curve = recall_curve(gt, bc, qc, 200)
    assert np.all(np.diff(curve.values) >= -1e-15)
    assert curve.values[-1] == pytest.approx(1.0)
    assert curve.values.min() <= m_recall(curve) <= curve.values.max()


def test_recall_curve_k_exceeds_base():
    codes, _ = _random_codes(np.random.default_rng(10), 10, 8)
    with pytest.raises(ValueError):
        recall_curve(np.zeros((1, 2), dtype=np.uint32), codes, codes, 11)


@pytest.mark.parametrize("K", [0, -3])
def test_recall_curve_rejects_k_below_one(K):
    codes, _ = _random_codes(np.random.default_rng(10), 10, 8)
    with pytest.raises(ValueError, match=f"K={K} must be at least 1"):
        recall_curve(np.zeros((1, 2), dtype=np.uint32), codes, codes, K)


def test_m_recall_constant_and_linear():
    c = hamming.RecallCurve(values=np.full(10, 0.37), k=1, K=10)
    assert m_recall(c) == pytest.approx(0.37)
    K = 100
    lin = hamming.RecallCurve(values=np.arange(1, K + 1) / K, k=1, K=K)
    assert m_recall(lin) == pytest.approx((K + 1) / (2 * K))


def test_build_groundtruth_rows_sorted_by_distance():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((5, 80)).T
    queries = rng.standard_normal((5, 7)).T
    gt = build_groundtruth(base, queries, 6)
    assert gt.shape == (7, 6)
    for j in range(7):
        d = np.sum((base[gt[j]] - queries[j]) ** 2, axis=1)
        assert np.all(np.diff(d) >= -1e-12)
        assert len(set(gt[j].tolist())) == 6


@pytest.mark.parametrize("where", ["base", "queries"])
def test_retrieval_rejects_non_finite_before_any_distance_work(where, monkeypatch):
    def no_distances(*args):
        raise AssertionError("distance work started")

    monkeypatch.setattr(neighbors, "_knn_block", no_distances)
    rng = np.random.default_rng(0)
    base = rng.standard_normal((4, 50)).T
    queries = rng.standard_normal((4, 6)).T
    (base if where == "base" else queries)[3, 1] = np.nan
    with pytest.raises(ValueError, match=f"{where} has 1 non-finite"):
        build_groundtruth(base, queries, 5)
    with pytest.raises(ValueError, match=f"{where} has 1 non-finite"):
        euclid_topk(base, queries[3], 5)


def test_retrieval_rejects_norms_that_overflow_and_mismatched_dimensions():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((4, 50)).T
    base[7, 2] = 1e200
    with pytest.raises(ValueError, match="overflow"):
        build_groundtruth(base, rng.standard_normal((4, 6)).T, 5)
    with pytest.raises(ValueError, match="overflow"):
        euclid_topk(base, rng.standard_normal(4), 5)
    with pytest.raises(ValueError, match="queries have 3 dimensions, base 4"):
        build_groundtruth(rng.standard_normal((4, 50)).T, rng.standard_normal((3, 6)).T, 5)

"""Binary encoding, packed Hamming retrieval, Euclidean ground truth
(from neighbors.knn), and recall metrics.

Codes are bit-packed LSB-first: bit j of a point lives in byte j//8 at
bit position j%8; a set bit means +1, and the padding bits after the
last code bit are zero. All ties (equal Hamming or Euclidean distance)
break by ascending index so results are reproducible.

encode works through the points, the rows of its (N, D) input, in tiles
(see _tiles): whole tiles of _ENCODE_TILE points, the last taking the
points left after them, so an input of fewer than 2 _ENCODE_TILE points
is one tile. Each tile copies its raw rows, times the model's scale,
into an (n, D) buffer, so no scaled copy of the whole input is made,
forms their (d, n) projections W1 x (+ b1) from the buffer's transposed
view, and writes their signs as (n, d) rows, which pack_bits packs into
the tile's own rows of the (N, ceil(bits/8)) result. The tiles run on
the thread pool (see the parallel module); a query-sized input, whose
projections take under 256 KiB, is encoded on the calling thread.

The tiles give each projection the bits of one product over all
points, so the codes depend on neither the tiling nor the worker count,
only because every tile starts at a multiple of _ENCODE_TILE and no
tile but a whole input is narrower. BLAS rounds narrow products
differently: with numpy 2.4's OpenBLAS 0.3.31 on an AVX-512 Xeon, tiles
of 1024 points or more matched the one product on all 14 shapes tried,
while tiles of 64-512 points did not on 4 of them, nor did most short
ragged tails or single points (a matrix-vector product). The tests
check the tiling on seven shapes. OpenBLAS packs a tile's transposed
view as it would a C-ordered (D, n) copy, so the projections have the
bits of W1 times that copy, but for a 1-bit code (a matrix-vector
product). The rows' product x W1' rounds differently, and its tiles did
not match its one product at 300 bits, D = 128.

A Hamming scan XORs each base code with the query a machine word at a
time and counts the set bits with np.bitwise_count. The leading whole
8-byte words of a row are read as uint64, and only the bytes after them
in the widest unsigned word that divides their count; both are views of
the packed rows, not copies. Distances come back in the narrowest
unsigned type that holds the bit count: uint8 up to 255 bits, uint16 up
to 65535.

A top-k query reads its threshold from a histogram of the distances:
with only bits+1 possible values, np.bincount gives the smallest
distance t that at least i codes reach, and only the codes at distance
t or less, listed by ascending index, are stable-sorted, so equal
distances keep ascending index order as in a full stable argsort.

Recall curves rank every query to depth K instead, which is often
thousands, where the threshold bucket holds most of the base. They rank
the queries in blocks of at most _RANK_ROWS, fewer where the block's
(b, N) sort keys would pass _RANK_BLOCK_BYTES, and the blocks run on the
thread pool. A block forms the distances of all its queries in one pass
of the scan above and gives point i at distance t the key t << 32 | i.
The keys of a row are unique and ascend in the order of a stable
argsort of its distances, so np.partition at K-1 and a sort of the
first K give that order's first K. A ground-truth member's rank is the
count of those first K keys below its own, which is K when it is not
among them: one np.searchsorted ranks a whole block's members, each row
of sorted keys offset past the one before. So a block is a few numpy
calls that release the interpreter lock and write into its worker's
buffers (see the parallel module), and every rank is the same at any
block size and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .matrix_io import _check_matrix
from .neighbors import knn

# points per encode tile: a tile's projections stay in the CPU caches
_ENCODE_TILE = 2048
# a recall-curve block: at most _RANK_ROWS queries, whose (b, N) sort keys
# take at most _RANK_BLOCK_BYTES unless one query's do
_RANK_ROWS = 64
_RANK_BLOCK_BYTES = 1 << 20


@dataclass
class BinaryCodes:
    bits: int
    count: int
    packed: np.ndarray  # (count, ceil(bits/8)) uint8

    def __post_init__(self):
        nbytes = (self.bits + 7) // 8
        if self.packed.dtype != np.uint8:
            raise ValueError(f"packed dtype {self.packed.dtype}, expected uint8")
        if self.packed.shape != (self.count, nbytes):
            raise ValueError(f"packed shape {self.packed.shape}, expected "
                             f"({self.count}, {nbytes})")
        padded = _padded(self.packed, self.bits)
        if padded.size:
            raise ValueError(f"point {padded[0]} has padding bits set "
                             f"after bit {self.bits}")
        self.packed = np.ascontiguousarray(self.packed)


def _padded(packed: np.ndarray, bits: int) -> np.ndarray:
    """Indices of the rows with a bit set after bit `bits` ([0] if a
    single row has one)."""
    if bits % 8 == 0:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(packed[..., -1] >> (bits % 8))


def pack_bits(signs: np.ndarray) -> np.ndarray:
    """Pack a boolean (N, d) sign matrix (True = +1) LSB-first per byte."""
    return np.packbits(signs, axis=1, bitorder="little")


def encode(p, X: np.ndarray, use_bias: bool = False, meanwhile=None) -> BinaryCodes:
    """Binary codes sign(W1 s X), bit set iff the projection is >= 0.

    X holds raw, finite vectors as rows; each tile is multiplied by the
    model's scale s = p.scale as it is copied into its buffer. With
    use_bias the threshold is W1 s x + b1 instead of the bias-free
    projection. The rows are encoded _ENCODE_TILE at a time (see the
    module docstring). meanwhile, if given, is called on the calling
    thread while the tiles run (see parallel.ordered_map).
    """
    X = _check_matrix(X)
    d, D = p.w1.shape
    if X.shape[1] != D:
        raise ValueError(f"dim mismatch: data {X.shape[1]}, model {D}")
    N = len(X)
    packed = np.empty((N, (d + 7) // 8), dtype=np.uint8)
    tiles = _tiles(N, _ENCODE_TILE)
    width = tiles[-1][1] - tiles[-1][0]  # the widest tile: the last
    block_bytes = 8 * d * width  # its projections

    def buffers():
        return np.empty(D * width), np.empty(d * width), np.empty(d * width, dtype=bool)

    def tile(bounds, bufs):
        lo, hi = bounds
        n = hi - lo
        x = bufs[0][:n * D].reshape(n, D)
        proj = bufs[1][:d * n].reshape(d, n)
        signs = bufs[2][:n * d].reshape(n, d)
        np.multiply(X[lo:hi], p.scale, out=x)
        np.matmul(p.w1, x.T, out=proj)
        if use_bias:
            proj += p.b1[:, None]
        np.greater_equal(proj.T, 0.0, out=signs)  # sign(0) -> +1
        packed[lo:hi] = pack_bits(signs)

    parallel.ordered_map(tile, tiles, block_bytes, buffers, meanwhile)
    return BinaryCodes(bits=d, count=N, packed=packed)


def _tiles(N: int, width: int) -> list[tuple[int, int]]:
    """(start, end) rows of encode's tiles of N points: whole tiles of
    width, the last taking the rows left after them; one tile, the whole
    input, below 2 widths."""
    starts = range(0, max(N - width, 0) + 1, width)
    return [(lo, lo + width if lo < starts[-1] else N) for lo in starts]


def _words(packed: np.ndarray) -> list[np.ndarray]:
    """Packed rows (or one row) as views of words: the leading whole
    8-byte words as uint64, then the remaining bytes in the widest
    unsigned word that divides their count."""
    nbytes = packed.shape[-1]
    lead = nbytes - nbytes % 8
    parts = [packed[..., :lead].view(np.uint64)] if lead else []
    if lead < nbytes:
        parts.append(packed[..., lead:].view(f"u{math.gcd(nbytes - lead, 8)}"))
    return parts


def hamming_distances(base: BinaryCodes, q: np.ndarray) -> np.ndarray:
    """Hamming distance from one packed query row to every base code.

    uint8 up to 255 bits, uint16 up to 65535, uint32 above.
    """
    q = np.asarray(q)
    if q.dtype != np.uint8 or q.shape != base.packed.shape[1:]:
        raise ValueError(f"query is {q.dtype} {q.shape}, expected uint8 "
                         f"{base.packed.shape[1:]}")
    if _padded(q, base.bits).size:
        raise ValueError(f"query has padding bits set after bit {base.bits}")
    # column by column: sum(axis=1) is slow
    (w0, q0), *rest = [(words[:, c], qwords[c])
                       for words, qwords in zip(_words(base.packed),
                                                _words(np.ascontiguousarray(q)))
                       for c in range(words.shape[1])]
    dist = np.bitwise_count(w0 ^ q0).astype(np.min_scalar_type(base.bits), copy=False)
    for words, qword in rest:
        dist += np.bitwise_count(words ^ qword)
    return dist


def hamming_topk(base: BinaryCodes, q: np.ndarray, i: int) -> np.ndarray:
    """Indices of the i nearest base codes; ties by ascending index."""
    if not 1 <= i <= base.count:
        raise ValueError(f"i={i} out of range for N={base.count}")
    d = hamming_distances(base, q)
    # t: the smallest distance that at least i codes reach. The short
    # histogram is scanned in Python and the arrays' own methods are
    # called, because each further numpy function costs a query tens of
    # microseconds when other work has evicted it from the CPU caches.
    counts = np.bincount(d, minlength=base.bits + 1).tolist()
    t, reached = 0, counts[0]
    while reached < i:
        t += 1
        reached += counts[t]
    near = (d <= t).nonzero()[0]  # ascending index
    return near[d[near].argsort(kind="stable")[:i]]


def euclid_topk(base: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest base rows to q; ties by ascending index."""
    return knn(base, np.asarray(q)[None, :], k)[0]


@dataclass
class RecallCurve:
    values: np.ndarray  # Recall@i for i = 1..K
    k: int
    K: int
    # (Q, k) Hamming rank of each ground-truth neighbour, K if not below K
    ranks: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def m_recall(self) -> float:
        return m_recall(self)

    def prefix(self, k: int) -> RecallCurve:
        """The curve of each query's first k ground-truth neighbours."""
        if not 1 <= k <= self.k:
            raise ValueError(f"k={k} out of range for a curve of k={self.k}")
        return _curve(self.ranks[:, :k], self.K)


def _curve(gt_rank: np.ndarray, K: int) -> RecallCurve:
    Q, k = gt_rank.shape
    hits = np.cumsum(np.bincount(gt_rank[gt_rank < K], minlength=K))
    return RecallCurve(values=hits / (Q * k), k=k, K=K, ranks=gt_rank)


def recall_curve(gt: np.ndarray, base_codes: BinaryCodes, query_codes: BinaryCodes,
                 K: int) -> RecallCurve:
    """Mean Recall@i over queries for i = 1..K.

    gt is (Q, k) true-neighbor indices, row j for query code j. Each
    query is ranked once, to depth K, in the order of a stable argsort
    of its Hamming distances (see the module docstring): Recall@i counts
    ground-truth members whose Hamming rank is below i. prefix(k) reads
    a smaller k's curve from the ranks.
    """
    N = base_codes.count
    if K < 1:
        raise ValueError(f"K={K} must be at least 1")
    if K > N:
        raise ValueError(f"K={K} exceeds base size {N}")
    gt = np.asarray(gt)
    Q, k = gt.shape
    if Q == 0 or k == 0:
        raise ValueError(f"a recall curve needs at least one query and one "
                         f"ground-truth neighbour, got a ({Q}, {k}) ground truth")
    if (query_codes.count, query_codes.bits) != (Q, base_codes.bits):
        raise ValueError(f"{query_codes.count} queries of {query_codes.bits} bits "
                         f"for {Q} ground-truth rows and {base_codes.bits}-bit codes")
    if not 0 <= gt.min() <= gt.max() < N:
        raise ValueError(f"ground truth has indices outside 0..{N - 1}")
    bits = base_codes.bits
    # b queries a block; b (bits+1) << 32 must fit the keys' 64 bits
    b = max(1, min(Q, _RANK_ROWS, _RANK_BLOCK_BYTES // (8 * N), (1 << 32) // (bits + 1)))
    blocks = [(lo, min(lo + b, Q)) for lo in range(0, Q, b)]
    block_bytes = 8 * b * N  # its keys
    columns = [(words[:, c], qwords[:, c])
               for words, qwords in zip(_words(base_codes.packed),
                                        _words(query_codes.packed))
               for c in range(words.shape[1])]
    dist_type = np.min_scalar_type(bits)
    # row j of a block adds j (bits+1) << 32 to its keys, so the block's
    # rows, once sorted, are one ascending run
    low = np.arange(b, dtype=np.uint64)[:, None] * np.uint64((bits + 1) << 32)
    low = low + np.arange(N, dtype=np.uint64)
    row_start = np.arange(b)[:, None] * K
    # each ground-truth member's position in its block's (b, N) keys
    at = gt.astype(np.intp) + (np.arange(Q) % b * N)[:, None]
    gt_rank = np.empty((Q, k), dtype=np.intp)

    def buffers():
        return (np.empty(b * N, dtype=np.uint64), np.empty(2 * b * N, dtype=dist_type),
                np.empty((b, K), dtype=np.uint64), np.empty((b, k), dtype=np.uint64))

    def block(bounds, bufs):
        lo, hi = bounds
        n = hi - lo
        keys = bufs[0][:n * N].reshape(n, N)
        dist = bufs[1][:n * N].reshape(n, N)
        count = bufs[1][b * N:(b + n) * N].reshape(n, N)
        top, gt_keys = bufs[2][:n], bufs[3][:n]
        for c, (words, qwords) in enumerate(columns):
            x = bufs[0].view(words.dtype)[:n * N].reshape(n, N)
            np.bitwise_xor(words, qwords[lo:hi, None], out=x)
            if c == 0:
                np.bitwise_count(x, out=dist)
            else:
                np.bitwise_count(x, out=count)
                dist += count
        # point i at distance t: key t << 32 | i, unique (N < 2^32) and
        # ascending in the order of a stable argsort of the distances.
        # Every step writes into the buffers: a ufunc that casts, or that
        # broadcasts over short rows, allocates on this worker thread.
        keys[...] = dist
        keys <<= 32
        keys += low[:n]
        np.take(keys, at[lo:hi], out=gt_keys, mode="clip")
        if K < N:
            keys.partition(K - 1, axis=1)  # each row's K smallest first
        np.copyto(top, keys[:, :K])
        top.sort(axis=1)
        # a member outside a row's first K sorts after all of them: rank K
        pos = np.searchsorted(top.ravel(), gt_keys.ravel())
        np.subtract(pos.reshape(n, k), row_start[:n], out=gt_rank[lo:hi])

    parallel.ordered_map(block, blocks, block_bytes, buffers)
    return _curve(gt_rank, K)


def m_recall(curve: RecallCurve) -> float:
    """Mean of Recall@i over i = 1..K."""
    if curve.values.size == 0:
        raise ValueError("empty recall curve")
    return float(curve.values.mean())


def build_groundtruth(base: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(Q, k) true Euclidean nearest base indices per query row."""
    return knn(base, queries, k).astype(np.uint32)

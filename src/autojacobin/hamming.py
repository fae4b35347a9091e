"""Binary encoding, packed Hamming retrieval, Euclidean ground truth
(from neighbors.knn), and recall metrics.

Codes are bit-packed LSB-first: bit j of a point lives in byte j//8 at
bit position j%8; a set bit means +1, and the padding bits after the
last code bit are zero. All ties (equal Hamming or Euclidean distance)
break by ascending index so results are reproducible.

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
thousands: there the threshold bucket holds most of the base, and a
stable argsort of all N distances, which numpy runs as a radix sort on
8- and 16-bit keys, is faster than the histogram and a second sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrix_io import _check_matrix
from .neighbors import knn


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
    return np.packbits(signs.astype(np.uint8), axis=1, bitorder="little")


def encode(p, X: np.ndarray, use_bias: bool = False) -> BinaryCodes:
    """Binary codes sign(W1 X), bit set iff the projection is >= 0.

    X must already be normalized with p.scale and finite. With use_bias
    the threshold is W1 x + b1 instead of the bias-free projection.
    """
    X = _check_matrix(X)
    if X.shape[0] != p.w1.shape[1]:
        raise ValueError(f"dim mismatch: data {X.shape[0]}, model {p.w1.shape[1]}")
    proj = p.w1 @ X
    if use_bias:
        proj = proj + p.b1[:, None]
    signs = (proj >= 0.0).T  # (N, d); sign(0) -> +1
    return BinaryCodes(bits=p.w1.shape[0], count=X.shape[1], packed=pack_bits(signs))


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
    """Exact k nearest base columns to q; ties by ascending index."""
    return knn(base, np.asarray(q)[:, None], k)[0]


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

    gt is (Q, k) true-neighbor indices. Each query is ranked once, by a
    stable argsort of its Hamming distances (the module docstring says
    why not by hamming_topk): Recall@i counts ground-truth members whose
    Hamming rank is below i. prefix(k) reads a smaller k's curve from
    the ranks.
    """
    if K < 1:
        raise ValueError(f"K={K} must be at least 1")
    if K > base_codes.count:
        raise ValueError(f"K={K} exceeds base size {base_codes.count}")
    gt = np.asarray(gt)
    Q, k = gt.shape
    # rank[i] is point i's Hamming rank if below K, else K; only the first
    # K of each query's order are written, and reset after use
    rank = np.full(base_codes.count, K)
    first = np.arange(K)
    gt_rank = np.empty((Q, k), dtype=rank.dtype)
    for j in range(Q):
        d = hamming_distances(base_codes, query_codes.packed[j])
        order = np.argsort(d, kind="stable")[:K]
        rank[order] = first
        gt_rank[j] = rank[gt[j]]
        rank[order] = K
    return _curve(gt_rank, K)


def m_recall(curve: RecallCurve) -> float:
    """Mean of Recall@i over i = 1..K."""
    if curve.values.size == 0:
        raise ValueError("empty recall curve")
    return float(curve.values.mean())


def build_groundtruth(base: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(Q, k) true Euclidean nearest base indices per query column."""
    return knn(base, queries, k).astype(np.uint32)

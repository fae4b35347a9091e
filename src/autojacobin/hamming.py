"""Binary encoding, packed Hamming retrieval, Euclidean ground truth
(from neighbors.knn), and recall metrics.

Codes are bit-packed LSB-first: bit j of a point lives in byte j//8 at
bit position j%8; a set bit means +1. All ties (equal Hamming or
Euclidean distance) break by ascending index so results are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neighbors import knn

_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


@dataclass
class BinaryCodes:
    bits: int
    count: int
    packed: np.ndarray  # (count, ceil(bits/8)) uint8

    def __post_init__(self):
        nbytes = (self.bits + 7) // 8
        if self.packed.shape != (self.count, nbytes):
            raise ValueError(f"packed shape {self.packed.shape}, expected "
                             f"({self.count}, {nbytes})")


def pack_bits(signs: np.ndarray) -> np.ndarray:
    """Pack a boolean (N, d) sign matrix (True = +1) LSB-first per byte."""
    return np.packbits(signs.astype(np.uint8), axis=1, bitorder="little")


def unpack_bits(packed: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of pack_bits; returns a boolean (N, bits) matrix."""
    return np.unpackbits(packed, axis=1, bitorder="little")[:, :bits].astype(bool)


def encode(p, X: np.ndarray, use_bias: bool = False) -> BinaryCodes:
    """Binary codes sign(W1 X), bit set iff the projection is >= 0.

    X must already be normalized with p.scale. With use_bias the
    threshold is W1 x + b1 instead of the bias-free projection.
    """
    if X.shape[0] != p.w1.shape[1]:
        raise ValueError(f"dim mismatch: data {X.shape[0]}, model {p.w1.shape[1]}")
    proj = p.w1 @ X
    if use_bias:
        proj = proj + p.b1[:, None]
    signs = (proj >= 0.0).T  # (N, d); sign(0) -> +1
    return BinaryCodes(bits=p.w1.shape[0], count=X.shape[1], packed=pack_bits(signs))


def hamming_distances(base: BinaryCodes, q: np.ndarray) -> np.ndarray:
    """Hamming distance from one packed query row to every base code."""
    xor = np.bitwise_xor(base.packed, q[None, :])
    return _POPCOUNT[xor].sum(axis=1).astype(np.int64)


def hamming_topk(base: BinaryCodes, q: np.ndarray, i: int) -> np.ndarray:
    """Indices of the i nearest base codes; ties by ascending index."""
    if not 1 <= i <= base.count:
        raise ValueError(f"i={i} out of range for N={base.count}")
    d = hamming_distances(base, q)
    return np.argsort(d, kind="stable")[:i]


def euclid_topk(base: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest base columns to q; ties by ascending index."""
    return knn(base, np.asarray(q)[:, None], k)[0]


@dataclass
class RecallCurve:
    values: np.ndarray  # Recall@i for i = 1..K
    k: int
    K: int

    @property
    def m_recall(self) -> float:
        return m_recall(self)


def recall_curve(gt: np.ndarray, base_codes: BinaryCodes, query_codes: BinaryCodes,
                 K: int) -> RecallCurve:
    """Mean Recall@i over queries for i = 1..K.

    gt is (Q, k) true-neighbor indices. Computed from one stable Hamming
    argsort per query: Recall@i counts ground-truth members whose
    Hamming rank is below i.
    """
    if K > base_codes.count:
        raise ValueError(f"K={K} exceeds base size {base_codes.count}")
    gt = np.asarray(gt)
    Q, k = gt.shape
    hits = np.zeros(K)
    for j in range(Q):
        order = np.argsort(hamming_distances(base_codes, query_codes.packed[j]),
                           kind="stable")
        rank = np.empty(base_codes.count, dtype=np.int64)
        rank[order] = np.arange(base_codes.count)
        pos = rank[gt[j]]
        pos = pos[pos < K]
        hits += np.cumsum(np.bincount(pos, minlength=K))
    return RecallCurve(values=hits / (Q * k), k=k, K=K)


def m_recall(curve: RecallCurve) -> float:
    """Mean of Recall@i over i = 1..K."""
    if curve.values.size == 0:
        raise ValueError("empty recall curve")
    return float(curve.values.mean())


def build_groundtruth(base: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(Q, k) true Euclidean nearest base indices per query column."""
    return knn(base, queries, k).astype(np.uint32)

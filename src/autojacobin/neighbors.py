"""Exact k nearest neighbors, ties by ascending index, for the tangent
neighborhoods and the ground truth. knn takes a block of queries at a time:

1. One GEMM gives g_ij = |q_i|^2 - 2 q_i'x_j + |x_j|^2 for the block's
   queries against all N base columns, and np.partition gives each
   row's k-th smallest value t_i.
2. Every column with g_ij <= t_i + 2 e_i is a candidate. The ranking
   distance s_ij is the sum of the squared coordinate differences,
   rounded the same way for every pair; knn_bruteforce uses the same s.
   To first order in the unit roundoff u, and whatever order BLAS sums
   in, |g_ij - s_ij| <= 4 (D + 2) u (|q_i|^2 + |x_j|^2). The bound used,
   e_i = 8 (D + 4) u (|q_i|^2 + max_j |x_j|^2) plus a subnormal term, is
   more than twice that; the slack covers the higher-order terms and the
   rounding of t_i + 2 e_i. The k columns with g <= t_i all have
   s <= t_i + e_i, so the k-th smallest s is at most t_i + e_i. Every
   column with s at or below it, each tie at the k-th boundary included,
   therefore has g <= t_i + 2 e_i.
3. The candidates, listed by ascending index, are ranked by s with a
   stable sort, so ties keep ascending index, and the first k are the
   answer: the same list knn_bruteforce gives.

Blocks run on a thread pool (see the parallel module), each writing only
its own rows of the answer, so the neighbours are the same at any worker
count. numpy releases the interpreter lock in a block's GEMM and
partitions, but the per-row re-rank of step 3 holds it. On a small base
the re-rank dominates, and threads contending for the lock made the
tangent kNN slower, so a base of fewer than _MIN_POOLED_BASE entries
(N x D) runs its blocks on the calling thread.
"""

from __future__ import annotations

import numpy as np

from . import parallel

_BLOCK = 64  # queries per block at most
_BLOCK_BYTES = 2 << 20  # of a block's (b, N) distances
# On a 2-core box with one BLAS thread, two workers took 1.2-1.6x as long
# as one at N x D = 2000 x 64, about as long at 8192 x 64, and 0.6-0.8x
# from 20000 x 64 up
_MIN_POOLED_BASE = 1 << 20


def _sq_dist(base: np.ndarray, q: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances from the vector q to the base columns cols, each
    summed over one contiguous row of D squared differences, so that its
    rounding does not depend on which other columns are computed."""
    diff = base.T[cols] - q  # (len(cols), D), C order
    return np.sum(diff * diff, axis=1)


def knn_bruteforce(base: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest base columns to the vector q, ties by
    ascending index: the reference that knn is tested against."""
    N = base.shape[1]
    if not 1 <= k <= N:
        raise ValueError(f"k={k} out of range for N={N}")
    return np.argsort(_sq_dist(base, q, np.arange(N)), kind="stable")[:k]


def _knn_block(base, sq, queries, sq_q, err, k, out, g):
    """Steps 1-3 of the module docstring for a block of queries, into out;
    g is a buffer of at least as many rows as there are queries."""
    g = np.matmul(queries.T, base, out=g[:queries.shape[1]])
    g *= -2.0  # -2 q'x + |q|^2 + |x|^2, added in that order, in place
    g += sq_q[:, None]
    g += sq
    # row by row, so that a block holds one copy of a row, not of g
    for j, row in enumerate(g):
        cand = np.flatnonzero(row <= np.partition(row, k - 1)[k - 1] + 2 * err[j])
        out[j] = cand[np.argsort(_sq_dist(base, queries[:, j], cand), kind="stable")[:k]]


def knn(base: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """(Q, k) indices of the k nearest base columns (D x N) to each query
    column (D x Q), row for row as knn_bruteforce. Non-finite entries and
    squared norms that overflow raise ValueError before any distance work."""
    base = np.asarray(base, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.shape[0] != base.shape[0]:
        raise ValueError(f"queries have {queries.shape[0]} dimensions, base {base.shape[0]}")
    D, N = base.shape
    if not 1 <= k <= N:
        raise ValueError(f"k={k} out of range for N={N}")
    sq = np.einsum("dj,dj->j", base, base)
    sq_q = np.einsum("dj,dj->j", queries, queries)
    for name, A, norms in (("base", base, sq), ("queries", queries, sq_q)):
        if not np.isfinite(norms).all():  # a non-finite entry, or overflow
            bad = np.count_nonzero(~np.isfinite(A))
            raise ValueError(f"{name} has {bad} non-finite entries (NaN or inf)" if bad else
                             f"squared norms of {name} overflow float64; rescale the data")
    u = np.finfo(np.float64).eps / 2
    slack = 8 * (D + 4)
    err = slack * u * (sq_q + sq.max()) + slack * np.finfo(np.float64).smallest_subnormal
    rows = max(1, min(_BLOCK, _BLOCK_BYTES // (8 * N)))
    nbr = np.empty((queries.shape[1], k), dtype=np.intp)
    starts = range(0, len(nbr), rows)
    # a block's (rows, N) distances; 0, one worker, for a small base
    block_bytes = 8 * rows * N if N * D >= _MIN_POOLED_BASE else 0

    def block(lo, g):
        b = slice(lo, lo + rows)
        _knn_block(base, sq, queries[:, b], sq_q[b], err[b], k, nbr[b], g)

    for _ in parallel.ordered_map(block, starts, block_bytes,
                                  lambda: np.empty((min(rows, len(nbr)), N))):
        pass
    return nbr

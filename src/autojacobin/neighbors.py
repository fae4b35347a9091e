"""Exact k nearest neighbors, ties by ascending index, for the tangent
neighborhoods and the ground truth. knn takes a block of at most _ROWS
queries at a time and walks the base in tiles of _TILE columns, the first
widened to k columns where k is larger and the last ragged:

1. Per tile, one GEMM gives g_ij = |q_i|^2 - 2 q_i'x_j + |x_j|^2 for the
   block's queries against the tile's columns. np.partition gives each
   row's k-th smallest g in the first tile, B_i.
2. Every column with g_ij <= B_i + 2 e_i is a candidate, kept as a
   (row, column, g) triple. When the candidates have doubled since B was
   last set, and once after the last tile, B_i becomes the k-th smallest
   g among row i's candidates, and those above the new B_i + 2 e_i go.
3. Each survivor's ranking distance s_ij, the sum of the squared
   coordinate differences, is computed in one gather, and a stable sort
   by s of each row's survivors, listed by column, orders them. The first
   k of each row are the answer.

Why this is exact. s is rounded the same way for every pair, and
knn_bruteforce ranks by the same s (_pair_sq_dist rounds as _sq_dist
does; the tests check it). To first order in the unit roundoff u, and
whatever order BLAS sums in, |g_ij - s_ij| <= 4 (D + 2) u (|q_i|^2 +
|x_j|^2). The bound used, e_i = 8 (D + 4) u (|q_i|^2 + max_j |x_j|^2) plus
a subnormal term, is more than twice that; the slack covers the
higher-order terms and the rounding of B_i + 2 e_i. Let t_i be the k-th
smallest g_ij over all N columns. The k columns with g <= t_i all have
s <= t_i + e_i, so the k-th smallest s is at most t_i + e_i, and every
column with s at or below it, each tie at the k-th boundary included, has
g <= t_i + 2 e_i. B_i never falls below t_i: it is the k-th smallest g of
a set of columns, and the candidates always hold the k smallest of the
columns seen so far, because those have g at or below every B_i set so
far. So every column with g <= t_i + 2 e_i is collected and never
dropped, and after the last tile B_i = t_i. The argument asks only that
each g be within e_i of its s, so a tile's product may round differently
from a product over all columns, and the tiling and the block size do
not change the answer. Sorting by (s, column) puts ties in ascending
index, as knn_bruteforce's stable sort does.

Blocks run on a thread pool (see the parallel module), each writing only
its own rows of the answer, so the neighbours are the same at any worker
count. A block holds the interpreter lock for only a few numpy calls per
tile, so the blocks run on the pool at any base size the worker gate
allows. A block's memory is O(rows x (tile + k)) whatever N is, unless
many points tie near a k-th distance; the tile-sized work arrays come
from ordered_map's buffers.
"""

from __future__ import annotations

import numpy as np

from . import parallel

_ROWS = 64  # queries per block at most
_TILE = 2048  # base columns per tile, the first tile at least k
# entries of the squared differences formed at once: 128 KiB
_PAIR_ENTRIES = 1 << 14


def _sq_dist(base: np.ndarray, q: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances from the vector q to the base columns cols, each
    summed over one contiguous row of D squared differences, so that its
    rounding does not depend on which other columns are computed."""
    diff = base.T[cols] - q  # (len(cols), D), C order
    return np.sum(diff * diff, axis=1)


def _pair_sq_dist(base, queries, rows, cols):
    """Squared distances of the pairs (queries[:, rows[m]], base[:,
    cols[m]]), each summed over one contiguous row as in _sq_dist. The
    pairs go _PAIR_ENTRIES // D at a time, so the work arrays are reused
    from the heap: arrays for all of a block's pairs at once, mapped afresh
    each time, made the tangent kNN at 2000 x 64 take 1.7x as long."""
    s = np.empty(len(rows))
    step = max(1, _PAIR_ENTRIES // base.shape[0])
    for lo in range(0, len(rows), step):
        hi = lo + step
        diff = base.T[cols[lo:hi]]  # (pairs, D), C order
        diff -= queries.T[rows[lo:hi]]
        diff *= diff
        np.sum(diff, axis=1, out=s[lo:hi])
    return s


def knn_bruteforce(base: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest base columns to the vector q, ties by
    ascending index: the reference that knn is tested against."""
    N = base.shape[1]
    if not 1 <= k <= N:
        raise ValueError(f"k={k} out of range for N={N}")
    return np.argsort(_sq_dist(base, q, np.arange(N)), kind="stable")[:k]


def _tiles(N: int, k: int) -> list:
    """The (lo, hi) column ranges of the tiles of an N-column base: the
    first max(_TILE, k) columns, then _TILE at a time, the last ragged."""
    edges = [0, *range(max(_TILE, k), N, _TILE), N]
    return list(zip(edges, edges[1:]))


def _by_row(rows, vals, b):
    """vals, listed by ascending rows, as a (b, m) array with row i's
    values first in row i, in their order, and inf after them; and the
    index in vals where each row starts."""
    counts = np.bincount(rows, minlength=b)
    start = np.cumsum(counts) - counts
    dense = np.full((b, counts.max()), np.inf)
    dense[rows, np.arange(len(rows)) - start[rows]] = vals
    return dense, start


def _prune(cand, b, k, err):
    """Step 2's update of B: the candidates, each tile's listed by row and
    column, as one (rows, cols, g) triple listed by row and column, those
    above their row's new B + 2 e dropped; and each row's new B + 2 e."""
    rows, cols, g = (np.concatenate(a) for a in zip(*cand))
    order = np.argsort(rows, kind="stable")  # merges the tiles' runs
    rows, cols, g = rows[order], cols[order], g[order]
    dense, _ = _by_row(rows, g, b)
    dense.partition(k - 1, axis=1)
    limit = dense[:, k - 1] + 2 * err
    keep = g <= limit[rows]
    return (rows[keep], cols[keep], g[keep]), limit


def _knn_block(base, sq, queries, sq_q, err, k, out, bufs):
    """Steps 1-3 of the module docstring for a block of queries, into out;
    bufs are flat (g, partition, mask) work arrays of at least as many
    entries as the block's first tile."""
    g_buf, part_buf, mask_buf = bufs
    b = queries.shape[1]
    cand = []  # each tile's (rows, cols, g), listed by row and column
    for lo, hi in _tiles(base.shape[1], k):
        w = hi - lo
        g = np.matmul(queries.T, base[:, lo:hi], out=g_buf[:b * w].reshape(b, w))
        g *= -2.0  # -2 q'x + |q|^2 + |x|^2, added in that order, in place
        g += sq_q[:, None]
        g += sq[lo:hi]
        if lo == 0:
            part = part_buf[:b * w].reshape(b, w)
            np.copyto(part, g)
            part.partition(k - 1, axis=1)
            limit = part[:, k - 1] + 2 * err
        idx = np.flatnonzero(np.less_equal(g, limit[:, None],
                                           out=mask_buf[:b * w].reshape(b, w)))
        if not idx.size:
            continue
        rows, cols = np.divmod(idx, w)
        cand.append((rows, cols + lo, g.ravel()[idx]))
        if lo == 0:
            kept = count = idx.size
            continue
        count += idx.size
        if count > 2 * kept:
            merged, limit = _prune(cand, b, k, err)
            cand = [merged]
            kept = count = len(merged[0])
    if len(cand) > 1:  # tiles after the last update of B added candidates
        cand = [_prune(cand, b, k, err)[0]]
    rows, cols, _ = cand[0]
    s, start = _by_row(rows, _pair_sq_dist(base, queries, rows, cols), b)
    # ties in s keep ascending column, as in knn_bruteforce
    out[:] = cols[start[:, None] + s.argsort(axis=1, kind="stable")[:, :k]]


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
    Q = queries.shape[1]
    nbr = np.empty((Q, k), dtype=np.intp)
    # blocks of equal size, at most _ROWS queries, share the workers evenly
    rows = max(1, -(-Q // max(1, -(-Q // _ROWS))))
    size = rows * min(N, max(_TILE, k))  # entries of the first tile

    def block(lo, bufs):
        b = slice(lo, lo + rows)
        _knn_block(base, sq, queries[:, b], sq_q[b], err[b], k, nbr[b], bufs)

    parallel.ordered_map(block, range(0, Q, rows), 8 * size,
                         lambda: (np.empty(size), np.empty(size), np.empty(size, bool)))
    return nbr

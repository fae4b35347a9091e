"""Local tangent-space estimation and closest-point projection oracles.

Tangent bases come from local PCA on the k = D+d nearest neighbors of
each training point (self included), ordered by squared Euclidean
distance with ties broken by ascending index. estimate_all_tangents
finds them for a block of points at a time, exactly:

1. One GEMM gives g_ij = |x_i|^2 - 2 x_i'x_j + |x_j|^2 for the block's
   rows against all N columns, and np.partition gives each row's k-th
   smallest value t_i.
2. Every column with g_ij <= t_i + 2 e_i is a candidate. The ranking
   distance s_ij is the sum of the squared coordinate differences,
   rounded the same way for every pair; knn_bruteforce uses the same s.
   To first order in the unit roundoff u, and whatever order BLAS sums
   in, |g_ij - s_ij| <= 4 (D + 2) u (|x_i|^2 + |x_j|^2). The bound used,
   e_i = 8 (D + 4) u (|x_i|^2 + max_j |x_j|^2) plus a subnormal term, is
   more than twice that; the slack covers the higher-order terms and the
   rounding of t_i + 2 e_i. The k columns with g <= t_i all have
   s <= t_i + e_i, so the k-th smallest s is at most t_i + e_i. Every
   column with s at or below it, each tie at the k-th boundary included,
   therefore has g <= t_i + 2 e_i.
3. The candidates, listed by ascending index, are ranked by s with a
   stable sort, so ties keep ascending index, and the first k are the
   neighborhood: the same list knn_bruteforce gives.

The block's local PCAs are then array operations on its stacked
neighborhoods and one np.linalg.eigh call on its (b, D, D) covariances.

The projection oracles (affine subspace, unit sphere) have closed-form
closest-point maps and are used to check numerically that the Jacobian
of the closest-point map on the manifold equals the tangent projector
T T'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENERGY_FRACTION = 0.98
_BLOCK = 64  # points per block: bounds the (b, N) distance and (b, D, k) PCA arrays


@dataclass
class TangentBasis:
    point_index: int
    basis: np.ndarray  # (D, r), orthonormal columns, r possibly 0
    degenerate: bool = False
    # per-coordinate variance of the D+1 nearest points (self included)
    variance: float = 0.0

    @property
    def rank(self) -> int:
        return 0 if self.basis.size == 0 else self.basis.shape[1]


def _sq_dist(X: np.ndarray, i: int, cols: np.ndarray) -> np.ndarray:
    """Squared distances from column i to the columns cols.

    Each is summed over one contiguous row of D squared differences, so
    its rounding does not depend on which other columns are computed.
    """
    diff = X.T[cols] - X[:, i]  # (len(cols), D), C order
    return np.sum(diff * diff, axis=1)


def knn_bruteforce(X: np.ndarray, i: int, k: int) -> np.ndarray:
    """Indices of the k nearest columns to column i (self included).

    Sorted ascending by Euclidean distance, ties by ascending index. The
    reference for estimate_all_tangents' neighborhoods.
    """
    N = X.shape[1]
    if not 1 <= k <= N:
        raise ValueError(f"k={k} out of range for N={N}")
    return np.argsort(_sq_dist(X, i, np.arange(N)), kind="stable")[:k]


def _knn_blocks(X: np.ndarray, k: int):
    """Yield (lo, nbr) per block of points: nbr[j] equals
    knn_bruteforce(X, lo + j, k). See the module docstring."""
    D, N = X.shape
    u = np.finfo(np.float64).eps / 2
    sq = np.einsum("dj,dj->j", X, X)
    if not np.isfinite(sq).all():
        raise ValueError("squared norms overflow float64; rescale the data")
    slack = 8 * (D + 4)
    err = slack * u * (sq + sq.max()) + slack * np.finfo(np.float64).smallest_subnormal
    for lo in range(0, N, _BLOCK):
        hi = min(lo + _BLOCK, N)
        g = X[:, lo:hi].T @ X
        g *= -2.0
        g += sq[lo:hi, None]
        g += sq[None, :]
        kth = np.partition(g, k - 1, axis=1)[:, k - 1]
        mask = g <= (kth + 2 * err[lo:hi])[:, None]
        nbr = np.empty((hi - lo, k), dtype=np.intp)
        for j, cols in enumerate(mask):
            cand = np.flatnonzero(cols)
            nbr[j] = cand[np.argsort(_sq_dist(X, lo + j, cand), kind="stable")[:k]]
        yield lo, nbr


def _pca_block(X: np.ndarray, lo: int, nbr: np.ndarray, d: int) -> list[TangentBasis]:
    """Local-PCA bases for the points lo, lo+1, ... with neighborhoods nbr.

    Keeps min(r98, d) principal directions, where r98 is the smallest
    rank capturing at least 98% of the local variance.
    """
    D = X.shape[0]
    b, k = nbr.shape
    Xt = X.T
    # (b, D+1, D) whatever k is, so the variance does not depend on d
    variance = Xt[nbr[:, :D + 1]].var(axis=1).mean(axis=1)
    nbrs = Xt[nbr]  # (b, k, D)
    nbrs -= nbrs.mean(axis=1, keepdims=True)
    cov = nbrs.transpose(0, 2, 1) @ nbrs
    cov /= k
    evals, evecs = np.linalg.eigh(cov)
    evals = np.maximum(evals[:, ::-1], 0.0)
    total = evals.sum(axis=1)
    live = total > 0.0
    share = np.cumsum(evals[live], axis=1) / total[live, None]
    r = np.zeros(b, dtype=int)
    r[live] = np.minimum((share < ENERGY_FRACTION).sum(axis=1) + 1, d)
    return [TangentBasis(point_index=lo + j,
                         basis=np.ascontiguousarray(evecs[j, :, ::-1][:, :r[j]]),
                         degenerate=not live[j], variance=float(variance[j]))
            for j in range(b)]


def estimate_all_tangents(X: np.ndarray, d: int) -> list[TangentBasis]:
    """Local-PCA tangent basis at every column of X (D x N) from its D+d
    nearest neighbors; see the module docstring."""
    X = np.asarray(X, dtype=np.float64)
    D, N = X.shape
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if N < D + d:
        raise ValueError(f"need N >= D+d = {D + d} points, got {N}")
    bad = np.count_nonzero(~np.isfinite(X))
    if bad:
        raise ValueError(f"X has {bad} non-finite entries (NaN or inf)")
    tangents = []
    for lo, nbr in _knn_blocks(X, D + d):
        tangents.extend(_pca_block(X, lo, nbr, d))
    return tangents


def region_variance(tangents: list[TangentBasis]) -> float:
    """Mean per-coordinate variance of the D+1 nearest points of each
    training point: the weight of the Jacobian term (see the network
    module).

    D+1 points are the fewest that span a D-dimensional neighborhood,
    and they are the common prefix of every tangent-fit neighborhood
    (D+d points), so the weight does not depend on the code length d.
    A degenerate neighborhood (all points equal) counts as variance 0.
    """
    if not tangents:
        raise ValueError("no tangents")
    return float(np.mean([t.variance for t in tangents]))


def projector(T: TangentBasis | np.ndarray) -> np.ndarray:
    """Orthogonal projector T T' onto the tangent space (D x D)."""
    B = T.basis if isinstance(T, TangentBasis) else np.asarray(T)
    return B @ B.T


@dataclass
class ProjectionOracle:
    """Closest-point map onto an analytically known manifold.

    kind "affine-subspace": mean + basis basis' (x - mean).
    kind "unit-sphere": x / ||x||.
    """

    kind: str
    mean: np.ndarray | None = None
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("affine-subspace", "unit-sphere"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.kind == "affine-subspace":
            gram = self.basis.T @ self.basis
            if not np.allclose(gram, np.eye(self.basis.shape[1]), atol=1e-10):
                raise ValueError("affine oracle basis must be orthonormal")


def oracle_project(o: ProjectionOracle, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if o.kind == "affine-subspace":
        return o.mean + o.basis @ (o.basis.T @ (x - o.mean))
    n = np.linalg.norm(x)
    if n == 0.0:
        raise ValueError("closest sphere point of the origin is undefined")
    return x / n


def oracle_tangent_projector(o: ProjectionOracle, m: np.ndarray) -> np.ndarray:
    """Analytic T T' at an on-manifold point m."""
    if o.kind == "affine-subspace":
        return o.basis @ o.basis.T
    m = np.asarray(m, dtype=np.float64)
    return np.eye(m.size) - np.outer(m, m) / (m @ m)


def oracle_jacobian_fd(o: ProjectionOracle, m: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of the closest-point map at m.

    Entry (i, j) is the derivative of output coordinate j along input
    coordinate i.
    """
    m = np.asarray(m, dtype=np.float64)
    D = m.size
    J = np.empty((D, D))
    for i in range(D):
        e = np.zeros(D)
        e[i] = h
        J[i, :] = (oracle_project(o, m + e) - oracle_project(o, m - e)) / (2 * h)
    return J

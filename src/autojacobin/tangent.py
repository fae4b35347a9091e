"""Local tangent-space estimation and closest-point projection oracles.

Tangent bases come from local PCA on the k = D+d nearest neighbors of
each training point (self included), from neighbors.knn. The PCAs of a
block of points take one np.linalg.eigh call on their stacked
covariances. Blocks run on a thread pool (see the parallel module), and
each writes its own rows of one zero-padded (N, D, r) stack of bases, the
TangentSet that training reads, so no second copy of the bases is made
and the result has the same bits at any worker count, as have the kNN's
blocks before them (see the neighbors module).

The projection oracles (affine subspace, unit sphere) have closed-form
closest-point maps and are used to check numerically that the Jacobian
of the closest-point map on the manifold equals the tangent projector
T T'.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import parallel
from .neighbors import knn

ENERGY_FRACTION = 0.98
# points per local-PCA block; each worker holds one block's (b, D, k)
# neighborhoods and (b, D, D) covariances, so W workers hold W blocks
_BLOCK = 64


@dataclass
class TangentBasis:
    basis: np.ndarray  # (D, r), orthonormal columns, r possibly 0

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(eq=False)
class TangentSet(Sequence):
    """The tangent bases of N points as one zero-padded stack.

    factors[i, :, :ranks[i]] is point i's orthonormal basis and the rest
    of factors[i] is zero, so factors is the (N, D, r) stack of factors
    the Jacobian term reads, with r = max(1, largest rank). Item i is a
    TangentBasis whose basis is a view into factors.
    """

    factors: np.ndarray  # (N, D, r)
    ranks: np.ndarray  # (N,) int
    # mean per-coordinate variance of the D+1 nearest points (self
    # included) of each point: the weight of the Jacobian term (see the
    # network module). D+1 points are the fewest that span a
    # D-dimensional neighborhood, and they are the common prefix of every
    # tangent-fit neighborhood (D+d points), so the weight does not depend
    # on the code length d. A neighborhood of equal points counts as 0.
    region_variance: float

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # IndexError past either end ends iteration
        return TangentBasis(self.factors[i, :, :self.ranks[i]])


def _pca_block(X: np.ndarray, nbr: np.ndarray, d: int):
    """(bases, ranks, variance) of the local PCAs of b points with
    neighborhoods nbr (b, k); variance[j] is the per-coordinate variance
    of point j's D+1 nearest points.

    bases is (b, D, min(d, D)): the leading ranks[j] columns of bases[j]
    are point j's principal directions, by decreasing variance, and the
    rest are zero. A point keeps min(r98, d) directions, where r98 is the
    smallest rank capturing at least 98% of the local variance. A
    neighborhood is degenerate, with rank 0 and variance 0, when all its
    points equal the first: their mean need not round back to them, so
    the covariance alone cannot tell.
    """
    D = X.shape[1]
    b, k = nbr.shape
    nbrs = X[nbr]  # (b, k, D)
    # the D+1 nearest whatever k is, so the variance does not depend on d
    variance = nbrs[:, :D + 1].var(axis=1).mean(axis=1)
    degenerate = (nbrs == nbrs[:, :1]).all(axis=(1, 2))
    variance[degenerate] = 0.0
    nbrs -= nbrs.mean(axis=1, keepdims=True)
    cov = nbrs.transpose(0, 2, 1) @ nbrs
    cov /= k
    evals, evecs = np.linalg.eigh(cov)
    evals = np.maximum(evals[:, ::-1], 0.0)
    total = evals.sum(axis=1)
    live = ~degenerate & (total > 0.0)
    share = np.cumsum(evals[live], axis=1) / total[live, None]
    r = np.zeros(b, dtype=int)
    r[live] = np.minimum((share < ENERGY_FRACTION).sum(axis=1) + 1, d)
    top = evecs[:, :, ::-1][:, :, :d]
    bases = np.where(np.arange(top.shape[2]) < r[:, None, None], top, 0.0)
    return bases, r, variance


def estimate_all_tangents(X: np.ndarray, d: int) -> TangentSet:
    """Local-PCA tangent basis at every row of X (N x D) from its D+d
    nearest neighbors; see the module docstring."""
    X = np.asarray(X, dtype=np.float64)
    N, D = X.shape
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if N < D + d:
        raise ValueError(f"need N >= D+d = {D + d} points, got {N}")
    nbr = knn(X, X, D + d)
    factors = np.empty((N, D, min(d, D)))
    ranks = np.empty(N, dtype=int)
    variance = np.empty(N)

    def block(lo):
        hi = lo + _BLOCK
        factors[lo:hi], ranks[lo:hi], variance[lo:hi] = _pca_block(X, nbr[lo:hi], d)

    parallel.ordered_map(block, range(0, N, _BLOCK), 8 * _BLOCK * D * (D + d))
    width = max(1, int(ranks.max()))
    if width < factors.shape[2]:
        factors = np.ascontiguousarray(factors[:, :, :width])
    return TangentSet(factors, ranks, float(np.mean(variance)))


def projector(T: TangentBasis) -> np.ndarray:
    """Orthogonal projector T T' onto the tangent space (D x D)."""
    return T.basis @ T.basis.T


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

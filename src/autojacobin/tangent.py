"""Local tangent-space estimation and closest-point projection oracles.

Tangent bases come from local PCA on the k = D+d nearest neighbors of
each training point (self included), from neighbors.knn. The PCAs of a
block of points take one np.linalg.eigh call on their stacked
covariances.

The projection oracles (affine subspace, unit sphere) have closed-form
closest-point maps and are used to check numerically that the Jacobian
of the closest-point map on the manifold equals the tangent projector
T T'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neighbors import knn

ENERGY_FRACTION = 0.98
_BLOCK = 64  # points per local-PCA block: bounds the (b, D, k) arrays


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


def _pca_block(X: np.ndarray, lo: int, nbr: np.ndarray, d: int) -> list[TangentBasis]:
    """Local-PCA bases for the points lo, lo+1, ... with neighborhoods nbr.

    Keeps min(r98, d) principal directions, where r98 is the smallest
    rank capturing at least 98% of the local variance. A neighborhood is
    degenerate, with rank 0 and variance 0, when all its points equal the
    first: their mean need not round back to them, so the covariance
    alone cannot tell.
    """
    D = X.shape[0]
    b, k = nbr.shape
    Xt = X.T
    # (b, D+1, D) whatever k is, so the variance does not depend on d
    variance = Xt[nbr[:, :D + 1]].var(axis=1).mean(axis=1)
    nbrs = Xt[nbr]  # (b, k, D)
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
    return [TangentBasis(point_index=lo + j,
                         basis=np.ascontiguousarray(evecs[j, :, ::-1][:, :r[j]]),
                         degenerate=bool(degenerate[j]), variance=float(variance[j]))
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
    nbr = knn(X, X, D + d)
    tangents = []
    for lo in range(0, N, _BLOCK):
        tangents.extend(_pca_block(X, lo, nbr[lo:lo + _BLOCK], d))
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

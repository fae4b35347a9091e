"""Three-layer tanh auto-encoder: forward pass, analytic input-output
Jacobian, and the composite objective with its analytic gradient.

The objective over a batch of n columns is

    sum_i ( ||x_i - z_i||^2 + w ||J_i - A_i||_F^2 ) + alpha * S(Y Y' - n I)

where J_i is the input-output Jacobian at x_i, A_i = T_i T_i' the tangent
projector, and S(M) = sum_jk sqrt(M_jk^2 + eps) smooths the entrywise
1-norm. Jacobian orientation: J(i, j) = d z_j / d x_i.

The comparison models are the same objective with the middle term
changed: AutoBin drops it, CAutoBin puts the contractive term
lambda_c sum_i ||d y_i / d x_i||_F^2 in its place, and DAutoBin drops it
and feeds the network a corrupted copy of the batch while still
reconstructing the clean one. objective() builds the terms from its
arguments and returns value, parts and gradient from one forward pass;
variants.VariantConfig says which arguments each method passes.

The Jacobian-term weight w follows from the noise-removing map g that
the auto-encoder f stands in for. Near the manifold, g is taken to first
order: g(x_i + e) = x_i + A_i e. Let e range over a region around x_i
with zero mean and covariance s^2 I. To first order in e,

    E ||f(x_i + e) - g(x_i + e)||^2 = ||f(x_i) - x_i||^2 + s^2 ||J_i - A_i||_F^2,

so w = s^2, the per-coordinate variance of that region. The first-order
model is fitted on small neighborhoods, so w is taken at that scale:
the mean per-coordinate variance of the D+1 nearest points of each
training point (tangent.region_variance). D+1 points are the fewest that
span a D-dimensional neighborhood, and they are the common prefix of
every tangent-fit neighborhood (D+d points), so w does not depend on
the code length. That is about 7e-5 on the normalized 2-D simplex toy
and 2.9e-3 on a D=64 curved manifold of 2000 points. A unit weight would
describe a region wider than the normalized data itself (norms at most
0.8). The trainer takes w from the tangent bases it is given;
ObjectiveConfig.jacobian_weight defaults to 1, the unscaled term, for
callers that hold projectors but no neighborhoods.

Gradient correctness is defined by agreement with central finite
differences of the objective (see grad_check).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class NetworkParams:
    w1: np.ndarray  # (d, D)
    w2: np.ndarray  # (D, d)
    b1: np.ndarray  # (d,)
    b2: np.ndarray  # (D,)
    scale: float = 1.0

    @property
    def dims(self) -> int:
        return self.w1.shape[1]

    @property
    def bits(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.w1.copy(), self.w2.copy(), self.b1.copy(),
                             self.b2.copy(), self.scale)


@dataclass
class ForwardCache:
    y: np.ndarray  # hidden activation
    z: np.ndarray  # output activation


@dataclass
class ObjectiveConfig:
    alpha: float = 0.1
    epsilon: float = 1e-4
    jacobian_weight: float = 1.0  # w, the region variance (module docstring)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.jacobian_weight < 0:
            raise ValueError("jacobian_weight must be >= 0")


@dataclass
class GradientSet:
    dw1: np.ndarray
    dw2: np.ndarray
    db1: np.ndarray
    db2: np.ndarray

    @staticmethod
    def zeros(p: NetworkParams) -> "GradientSet":
        return GradientSet(np.zeros_like(p.w1), np.zeros_like(p.w2),
                           np.zeros_like(p.b1), np.zeros_like(p.b2))

    def __iadd__(self, other: "GradientSet") -> "GradientSet":
        self.dw1 += other.dw1
        self.dw2 += other.dw2
        self.db1 += other.db1
        self.db2 += other.db2
        return self


@dataclass
class ObjectiveParts:
    recon: float
    jacobian: float  # the middle term: Jacobian, contractive, or 0.0 if none
    binary: float

    @property
    def total(self) -> float:
        return self.recon + self.jacobian + self.binary


def forward(p: NetworkParams, x: np.ndarray) -> ForwardCache:
    """y = tanh(W1 x + b1), z = tanh(W2 y + b2) for a single column."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    y = np.tanh(p.w1 @ x + p.b1)
    z = np.tanh(p.w2 @ y + p.b2)
    return ForwardCache(y=y, z=z)


def forward_batch(p: NetworkParams, X: np.ndarray):
    """(Y, Z) for a (D, n) batch; Y is (d, n), Z is (D, n)."""
    Y = np.tanh(p.w1 @ X + p.b1[:, None])
    Z = np.tanh(p.w2 @ Y + p.b2[:, None])
    return Y, Z


def jacobian(p: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Input-output Jacobian, J(i, j) = d z_j / d x_i."""
    c = forward(p, x)
    a = 1.0 - c.y**2
    cz = 1.0 - c.z**2
    # J = W1' (W2' . (1-y^2)(1-z^2)')
    return p.w1.T @ (p.w2.T * np.outer(a, cz))


# --- per-term values and gradients (batch layout: X is (D, n)) ---


def _recon_term(p, Xin, Xtarget, Y, Z):
    diff = Z - Xtarget
    value = float(np.sum(diff * diff))
    d2 = 2.0 * diff * (1.0 - Z * Z)
    d1 = (p.w2.T @ d2) * (1.0 - Y * Y)
    return value, GradientSet(d1 @ Xin.T, d2 @ Y.T, d1.sum(axis=1), d2.sum(axis=1))


def _binary_term(p, Xin, Y, alpha, eps, n_target):
    d = Y.shape[0]
    S = Y @ Y.T - n_target * np.eye(d)
    value = float(alpha * np.sum(np.sqrt(S * S + eps)))
    G = alpha * S / np.sqrt(S * S + eps)
    dU = (2.0 * G @ Y) * (1.0 - Y * Y)
    g = GradientSet.zeros(p)
    g.dw1 += dU @ Xin.T
    g.db1 += dU.sum(axis=1)
    return value, g


_JAC_CHUNK = 256  # bounds the (n, D, D) work arrays


def _jacobian_term(p, Xin, Y, Z, projectors, weight):
    n = Xin.shape[1]
    value = 0.0
    total = GradientSet.zeros(p)
    for lo in range(0, n, _JAC_CHUNK):
        hi = min(lo + _JAC_CHUNK, n)
        A3 = np.asarray(projectors[lo:hi])
        Xc = Xin[:, lo:hi]
        Yc, Zc = Y[:, lo:hi], Z[:, lo:hi]
        At = (1.0 - Yc * Yc).T  # (c, d)
        Ct = (1.0 - Zc * Zc).T  # (c, D)
        K = np.einsum("ki,nk,jk->nij", p.w1, At, p.w2, optimize=True)
        J = K * Ct[:, None, :]
        R = 2.0 * weight * (J - A3)
        value += weight * float(np.sum((J - A3) ** 2))
        P = R * Ct[:, None, :]
        dw1 = np.einsum("nk,jk,nij->ki", At, p.w2, P, optimize=True)
        dw2 = np.einsum("nji,kj,nk->ik", P, p.w1, At, optimize=True)
        # chain through a = 1 - y^2
        gu = -2.0 * Yc.T * At * np.einsum("ki,nij,jk->nk", p.w1, P, p.w2, optimize=True)
        dw1 += gu.T @ Xc.T
        db1 = gu.sum(axis=0)
        # chain through c = 1 - z^2
        gv = -2.0 * Zc.T * Ct * np.sum(R * K, axis=1)  # (c, D)
        dw2 += gv.T @ Yc.T
        db2 = gv.sum(axis=0)
        du2 = (p.w2.T @ gv.T) * At.T
        dw1 += du2 @ Xc.T
        db1 = db1 + du2.sum(axis=1)
        total += GradientSet(dw1, dw2, db1, db2)
    return value, total


def _contractive_term(p, Xin, Y, lam):
    At = (1.0 - Y * Y).T  # (n, d)
    s = np.sum(p.w1 * p.w1, axis=1)  # hidden-row norms squared
    value = float(lam * np.sum(At * At * s[None, :]))
    dw1 = 2.0 * lam * np.sum(At * At, axis=0)[:, None] * p.w1
    gu = -4.0 * lam * At * At * Y.T * s[None, :]
    dw1 += gu.T @ Xin.T
    g = GradientSet.zeros(p)
    g.dw1 += dw1
    g.db1 += gu.sum(axis=0)
    return value, g


def _terms(batch, tangents, cfg: ObjectiveConfig, lambda_c, corrupted):
    """(network input, [(name, term)]) in accumulation order: recon, the
    middle term if any, binary. term(p, Y, Z) -> (value, GradientSet)
    takes the forward activations of the network input.
    """
    n = batch.shape[1]
    Xin = batch
    if corrupted is not None:
        if corrupted.shape != batch.shape:
            raise ValueError("clean/corrupted batch shape mismatch")
        Xin = corrupted
    if tangents is not None and lambda_c is not None:
        raise ValueError("give tangents or lambda_c, not both: each is a middle term")
    terms = [("recon", lambda p, Y, Z: _recon_term(p, Xin, batch, Y, Z))]
    if tangents is not None:
        if len(tangents) != n:
            raise ValueError(f"{len(tangents)} projectors for {n} points")
        terms.append(("jacobian", lambda p, Y, Z: _jacobian_term(
            p, Xin, Y, Z, tangents, cfg.jacobian_weight)))
    if lambda_c is not None:
        terms.append(("contractive", lambda p, Y, Z: _contractive_term(
            p, Xin, Y, lambda_c)))
    terms.append(("binary", lambda p, Y, Z: _binary_term(
        p, Xin, Y, cfg.alpha, cfg.epsilon, n)))
    return Xin, terms


def objective(p: NetworkParams, batch: np.ndarray, tangents, cfg: ObjectiveConfig,
              lambda_c: float | None = None, corrupted: np.ndarray | None = None):
    """(total, parts, gradient) of the objective on a batch, from one
    forward pass.

    tangents holds one D x D projector per column and adds the Jacobian
    term; lambda_c adds the contractive term instead; None leaves the
    middle term out. corrupted, when given, is the network input and
    batch stays the reconstruction target. The gradient is a GradientSet
    over all four parameter blocks.
    """
    Xin, terms = _terms(batch, tangents, cfg, lambda_c, corrupted)
    Y, Z = forward_batch(p, Xin)
    g = GradientSet.zeros(p)
    values = []
    for _, term in terms:
        value, gt = term(p, Y, Z)
        values.append(value)
        g += gt
    recon, *middle, binary = values
    parts = ObjectiveParts(recon=recon, jacobian=middle[0] if middle else 0.0,
                           binary=binary)
    return parts.total, parts, g


# --- parameter vector packing and finite-difference checking ---


def pack_params(p: NetworkParams) -> np.ndarray:
    return np.concatenate([p.w1.ravel(), p.w2.ravel(), p.b1, p.b2])


def unpack_params(theta: np.ndarray, template: NetworkParams) -> NetworkParams:
    d, D = template.w1.shape
    o = 0
    w1 = theta[o:o + d * D].reshape(d, D); o += d * D
    w2 = theta[o:o + D * d].reshape(D, d); o += D * d
    b1 = theta[o:o + d]; o += d
    b2 = theta[o:o + D]; o += D
    return replace(template, w1=w1, w2=w2, b1=b1, b2=b2)


def pack_gradient(g: GradientSet) -> np.ndarray:
    return np.concatenate([g.dw1.ravel(), g.dw2.ravel(), g.db1, g.db2])


def fd_gradient(f, theta: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of theta."""
    g = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return g


def grad_check(p: NetworkParams, batch: np.ndarray, tangents, cfg: ObjectiveConfig,
               h: float = 1e-6) -> float:
    """Max relative error |analytic - fd| / max(1, |fd|) over all parameters."""
    def value(theta):
        return objective(unpack_params(theta, p), batch, tangents, cfg)[0]

    analytic = pack_gradient(objective(p, batch, tangents, cfg)[2])
    fd = fd_gradient(value, pack_params(p), h)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))

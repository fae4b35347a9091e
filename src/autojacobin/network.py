"""Three-layer tanh auto-encoder: batch forward pass and the composite
objective with its analytic gradient.

The objective over a batch of n columns is

    sum_i ( ||x_i - z_i||^2 + w ||J_i - A_i||_F^2 ) + alpha * S(Y Y' - n I)

where J_i is the input-output Jacobian at x_i, A_i = T_i T_i' the tangent
projector, and S(M) = sum_jk sqrt(M_jk^2 + eps) smooths the entrywise
1-norm. Jacobian orientation: J(i, j) = d z_j / d x_i, so with
a = 1 - y_i^2 and c = 1 - z_i^2, J_i = W1' diag(a) W2' diag(c).

The target comes from its factor T_i (D x r) alone; no D x D matrix is
formed. Expanding the square,

    ||J - T T'||_F^2 = a'(W1 W1' o W2' diag(c^2) W2) a
                       - 2 sum_k a_k sum_r (W1 T)_kr (W2' diag(c) T)_kr
                       + ||T'T||_F^2,

with o the entrywise product, so value and gradient (by the chain rule
through these products) need only d x d and d x r matrices per point.
The last term makes the identity exact for any factor: zero columns
change neither T T' nor T'T, so ragged ranks are zero-padded to one
width, and a projector P is its own factor, since P P' = P. The term is
computed in chunks of 64 points on a thread pool (see the parallel
module), and the chunks' values and gradients are summed in chunk
order, so the objective has the same bits at any worker count.

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
training point (tangent.region_variance says why D+1). That is about
7e-5 on the normalized 2-D simplex toy and 2.9e-3 on a D=64 curved
manifold of 2000 points. A unit weight would describe a region wider
than the normalized data itself (norms at most 0.8). The trainer takes
w from the tangent bases it is given; ObjectiveConfig.jacobian_weight
defaults to 1, the unscaled term, for callers that hold projectors but
no neighborhoods.

Gradient correctness is defined by agreement with central finite
differences of the objective (see checks).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import parallel


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


def forward_batch(p: NetworkParams, X: np.ndarray):
    """(Y, Z) for a (D, n) batch; Y is (d, n), Z is (D, n)."""
    Y = np.tanh(p.w1 @ X + p.b1[:, None])
    Z = np.tanh(p.w2 @ Y + p.b2[:, None])
    return Y, Z


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


# points per chunk, whatever the worker count: a chunk's (c, D, d) and
# (c, D, r) work arrays stay in cache, and W workers hold W chunks
_JAC_CHUNK = 64


def _jacobian_chunk(p, G, Xc, Yc, Zc, T, weight):
    """(value, GradientSet) of the Jacobian term over one chunk of points
    with (c, D, r) factors T; G = W1 W1'."""
    At = (1.0 - Yc * Yc).T  # (c, d)
    Ct = (1.0 - Zc * Zc).T  # (c, D)
    C2 = Ct * Ct
    # ||J||^2 = a'(G o H)a with H = W2' diag(c^2) W2; F = W2 diag(a)
    F = p.w2 * At[:, None, :]  # (c, D, d)
    FG = F @ G
    WFG = p.w2 * FG
    h = np.einsum("nj,njk->nk", C2, WFG)  # (G o H) a
    # tr(J' T T') = sum_k a_k q_k with q = rowsums of (W1 T) o (W2' diag(c) T)
    CT = Ct[:, :, None] * T
    M = p.w1 @ T  # (c, d, r)
    N = p.w2.T @ CT
    q = np.einsum("nkr,nkr->nk", M, N)
    TtT = np.swapaxes(T, 1, 2) @ T
    value = weight * float(np.sum(At * (h - 2.0 * q)) + np.sum(TtT * TtT))
    s = 2.0 * weight
    AM, AN = At[:, :, None] * M, At[:, :, None] * N
    Fr = F.reshape(-1, F.shape[2])
    dw1 = s * ((Fr.T @ (C2.reshape(-1, 1) * Fr)) @ p.w1
               - np.tensordot(AN, T, axes=([0, 2], [0, 2])))
    dw2 = s * (np.einsum("nj,njk,nk->jk", C2, FG, At)
               - np.tensordot(CT, AM, axes=([0, 2], [0, 2])))
    ga = s * (h - q)  # d/da
    gc = s * (Ct * np.einsum("njk,nk->nj", WFG, At)
              - np.einsum("njr,njr->nj", T, p.w2 @ AM))  # d/dc
    # chain through c = 1 - z^2 into v = W2 y + b2, then through
    # a = 1 - y^2 and y into u = W1 x + b1
    gv = -2.0 * Zc * (Ct * gc).T  # (D, c)
    gu = (p.w2.T @ gv - 2.0 * Yc * ga.T) * At.T  # (d, c)
    return value, GradientSet(dw1 + gu @ Xc.T, dw2 + gv @ Yc.T,
                              gu.sum(axis=1), gv.sum(axis=1))


def _jacobian_term(p, Xin, Y, Z, factors, weight):
    """w sum_n ||J_n - T_n T_n'||_F^2 and its gradient from the (n, D, r)
    factors T_n, by the identity in the module docstring: no D x D array.

    Chunks of _JAC_CHUNK points run on a thread pool (see the parallel
    module) and are summed in chunk order, so value and gradient have
    the same bits at any worker count.
    """
    n = Xin.shape[1]
    G = p.w1 @ p.w1.T  # (d, d)

    def chunk(lo):
        hi = lo + _JAC_CHUNK
        return _jacobian_chunk(p, G, Xin[:, lo:hi], Y[:, lo:hi], Z[:, lo:hi],
                               np.asarray(factors[lo:hi]), weight)

    value = 0.0
    total = GradientSet.zeros(p)
    for v, g in parallel.ordered_map(chunk, range(0, n, _JAC_CHUNK),
                                     8 * _JAC_CHUNK * p.w2.size):
        value += v
        total += g
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
            raise ValueError(f"{len(tangents)} tangent factors for {n} points")
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

    tangents holds one D x r tangent factor T per column, as an (n, D, r)
    array or a sequence of equal-shape arrays, and adds the Jacobian term
    with target T T' (a D x D projector is its own factor); lambda_c adds
    the contractive term instead; None leaves the middle term out.
    corrupted, when given, is the network input and batch stays the
    reconstruction target. The gradient is a GradientSet over all four
    parameter blocks.
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


# --- parameter vector packing ---


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

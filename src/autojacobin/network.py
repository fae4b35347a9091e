"""Three-layer tanh auto-encoder: batch forward pass and the composite
objective with its analytic gradient.

A batch is n points, the rows of an (n, D) matrix. The network computes
on its transposed (D, n) view, so the notation below is column-per-point.
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

with o the entrywise product. The last term makes the identity exact
for any factor: zero columns change neither T T' nor T'T, so ragged
ranks are zero-padded to one width, and a projector P is its own factor,
since P P' = P. It does not depend on the parameters, so the trainer
computes it once per training set (gram_norms).

The first term needs neither J nor a D x d product per point, as with
the contractive penalty of Rifai et al. (Contractive Auto-Encoders, ICML
2011). Let W2_j be the j-th row of W2, (x) the Kronecker product, and
G = W1 W1'. Then H = W2' diag(c^2) W2, read as a row of d^2 entries, is

    H = sum_j c_j^2 (W2_j (x) W2_j),    a'(G o H)a = sum_kl (a (x) a)_kl G_kl H_kl.

Over a chunk of m points, C^2 holds their rows c^2 (m x D) and A2
their rows a (x) a (m x d^2). The D x d^2 rows W2_j (x) W2_j are built
once per evaluation. Then H = C^2 (W2 (x) W2) for the whole chunk, and
each gradient is one more product of these rows:

    dW1 = 2 [sum_n (A2 o H)_n] W1                  (the sum read as d x d),
    dW2_jk = 2 sum_l [C^2' (A2 o G)]_j,kl W2_jl,
    dc_j = 2 c_j [(A2 o G)(W2 (x) W2)']_j           (per point).

The cross term's products W1 T and W2' diag(c) T, and their gradient
contractions, run on the chunk's factors transposed to (m r, D) rows,
so no array of (m, D, d) is formed. The term is computed in chunks of
64 points on a thread pool (see the parallel module). The trainer
passes the whole (N, D, r) stack and a batch's row indices (FactorRows),
and each chunk gathers only its own rows, so no batch-sized copy of the
factors is made. The chunks' values and gradients are summed in chunk
order, so the objective has the same bits at any worker count. One
converter, _factor_rows, reads and checks every form of the factors.

The comparison models are the same objective with the middle term
changed: AutoBin drops it, CAutoBin puts the contractive term
lambda_c sum_i ||d y_i / d x_i||_F^2 in its place, and DAutoBin drops it
and feeds the network a corrupted copy of the batch while still
reconstructing the clean one. objective() builds the terms from its
arguments and returns value, parts and gradient from one forward pass;
variants.VariantConfig says which arguments each method passes. The
pass forms the tanh slopes 1 - y^2 and 1 - z^2 once (Forward), and every
term and Jacobian chunk reads them; each term allocates each of its
(D, n) and (d, n) work arrays once and updates it in place, in the order
of the out-of-place expression, so the bits are that expression's. The
gradient is one vector laid out like pack_params, and each term adds
into views of only the blocks it reaches.

The Jacobian-term weight w follows from the noise-removing map g that
the auto-encoder f stands in for. Near the manifold, g is taken to first
order: g(x_i + e) = x_i + A_i e. Let e range over a region around x_i
with zero mean and covariance s^2 I. To first order in e,

    E ||f(x_i + e) - g(x_i + e)||^2 = ||f(x_i) - x_i||^2 + s^2 ||J_i - A_i||_F^2,

so w = s^2, the per-coordinate variance of that region. The first-order
model is fitted on small neighborhoods, so w is taken at that scale:
the mean per-coordinate variance of the D+1 nearest points of each
training point (the comment on tangent.TangentSet.region_variance says
why D+1). That is about 7e-5 on the normalized 2-D simplex toy and
2.9e-3 on a D=64 curved manifold of 2000 points. A unit weight would
describe a region wider than the normalized data itself (norms at most
0.8). The trainer takes w from the TangentSet it is given;
ObjectiveConfig.jacobian_weight defaults to 1, the unscaled term, for
callers that hold factors but no neighborhoods.

Gradient correctness is defined by agreement with central finite
differences of the objective (see checks).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

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


@dataclass
class ObjectiveConfig:
    alpha: float = 0.1
    epsilon: float = 1e-4
    jacobian_weight: float = 1.0  # w, the region variance (module docstring)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if not self.jacobian_weight >= 0:
            raise ValueError("jacobian_weight must be >= 0")


@dataclass
class ObjectiveParts:
    recon: float
    jacobian: float  # the middle term: Jacobian, contractive, or 0.0 if none
    binary: float

    @property
    def total(self) -> float:
        return self.recon + self.jacobian + self.binary


def forward_batch(p: NetworkParams, X: np.ndarray):
    """(Y, Z) for an (n, D) batch of rows: the hidden rows Y (n, d) and the
    output rows Z (n, D), the transposed views of the (d, n) and (D, n)
    arrays computed from X's transposed view. Each is allocated once and
    has its bias and tanh applied in place."""
    Y = p.w1 @ X.T
    Y += p.b1[:, None]
    np.tanh(Y, out=Y)
    Z = p.w2 @ Y
    Z += p.b2[:, None]
    np.tanh(Z, out=Z)
    return Y.T, Z.T


class Forward(NamedTuple):
    """One evaluation's forward pass of an (n, D) batch: the activations
    Y (d, n) and Z (D, n), and their tanh slopes A = 1 - Y^2 and
    C = 1 - Z^2, formed once and read, never written, by every term."""
    Y: np.ndarray
    Z: np.ndarray
    A: np.ndarray
    C: np.ndarray

    def cols(self, lo, hi) -> Forward:
        """The pass over columns lo:hi, as views."""
        return Forward(*(a[:, lo:hi] for a in self))


def _forward(p: NetworkParams, X: np.ndarray) -> Forward:
    """The Forward pass of X: forward_batch, then the slopes in place."""
    Y, Z = (a.T for a in forward_batch(p, X))
    A, C = Y * Y, Z * Z
    np.subtract(1.0, A, out=A)
    np.subtract(1.0, C, out=C)
    return Forward(Y, Z, A, C)


# --- per-term values and gradients (batch layout: X is (n, D), so X is
# the transpose of the notation's (D, n) batch) ---
# Each (D, n) or (d, n) work array is allocated once and updated in
# place, in the order of the out-of-place expression in its comment, so
# the bits are those of that expression.


def _recon_term(p, Xin, Xtarget, f: Forward, grad):
    diff = f.Z - Xtarget.T
    sq = diff * diff
    value = float(np.sum(sq))
    d2 = np.multiply(2.0, diff, out=sq)
    d2 *= f.C  # 2 (Z - X) o (1 - Z^2)
    d1 = p.w2.T @ d2
    d1 *= f.A  # (W2' d2) o (1 - Y^2)
    for g, dg in zip(_blocks(grad, p), (d1 @ Xin, d2 @ f.Y.T, d1.sum(axis=1),
                                         d2.sum(axis=1))):
        g += dg
    return value


def _binary_term(p, Xin, f: Forward, alpha, eps, n_target, grad):
    d = f.Y.shape[0]
    S = f.Y @ f.Y.T - n_target * np.eye(d)
    R = np.sqrt(S * S + eps)
    value = float(alpha * np.sum(R))
    G = alpha * S / R
    dU = 2.0 * G @ f.Y
    dU *= f.A  # (2 G Y) o (1 - Y^2)
    gw1, _, gb1, _ = _blocks(grad, p)
    gw1 += dU @ Xin
    gb1 += dU.sum(axis=1)
    return value


# points per chunk, whatever the worker count: a chunk's (m, d^2) and
# (m r, D) work arrays stay in cache, and W workers hold W chunks
_JAC_CHUNK = 64


class FactorRows(NamedTuple):
    """The tangent factors of a batch, read in place: point n's factor
    is stack[rows[n]] of an (N, D, r) stack, and gram holds ||T'T||_F^2
    of every factor in the stack (see gram_norms)."""
    stack: np.ndarray
    rows: np.ndarray
    gram: np.ndarray


def gram_norms(stack: np.ndarray) -> np.ndarray:
    """||T'T||_F^2 of each factor of an (N, D, r) stack, _JAC_CHUNK
    factors at a time, so no (N, r, r) array is formed."""
    out = np.empty(len(stack))
    for lo in range(0, len(stack), _JAC_CHUNK):
        T = stack[lo:lo + _JAC_CHUNK]
        TtT = np.swapaxes(T, 1, 2) @ T
        out[lo:lo + _JAC_CHUNK] = np.sum(TtT * TtT, axis=(1, 2))
    return out


def _factor_rows(tangents, n: int, D: int) -> FactorRows:
    """FactorRows of n rows of D x r factors as it is, else one array-like
    of n equal-shape D x r factors as rows 0..n-1 of itself, with their
    gram_norms computed once; any other shape, ragged factors included,
    raises a ValueError naming (N, D, r)."""
    if isinstance(tangents, FactorRows):
        stack, got = tangents.stack, (len(tangents.rows),) + tangents.stack.shape[1:]
    else:
        try:
            stack = np.asarray(tangents)
            got = stack.shape
        except ValueError:  # numpy's inhomogeneous-shape error
            stack, got = None, "factors of unequal shapes"
    if stack is None or stack.ndim != 3 or got[:2] != (n, D):
        raise ValueError(f"the Jacobian term needs tangent factors of shape "
                         f"(N, D, r) = ({n}, {D}, r), got {got}")
    if isinstance(tangents, FactorRows):
        return tangents
    return FactorRows(stack, np.arange(n), gram_norms(stack))


def _kron_rows(p):
    """(G, W2 (x) W2) of one evaluation, shared by its chunks: G = W1 W1'
    and the (D, d^2) rows W2_j (x) W2_j of W2's rows W2_j."""
    return p.w1 @ p.w1.T, (p.w2[:, :, None] * p.w2[:, None, :]).reshape(p.dims, -1)


def _jacobian_chunk(p, kron, Xc, f: Forward, t: FactorRows, weight):
    """(value, gradient in pack_params order) of the Jacobian term over one
    chunk of points, with input rows Xc and forward pass f, whose factors are
    t.stack[t.rows]; kron is _kron_rows(p). Each product is one GEMM over
    the chunk (module docstring)."""
    G, WW = kron
    Yc, Zc = f.Y, f.Z
    At = f.A.T  # (m, d)
    Ct = f.C.T  # (m, D)
    C2 = Ct * Ct
    m, d = At.shape
    D = Ct.shape[1]
    # ||J||^2 = a'(G o H)a on (m, d^2) rows: H = C^2 (W2 (x) W2), a (x) a
    AA = (At[:, :, None] * At[:, None, :]).reshape(m, -1)
    AG = AA * G.ravel()
    H = C2 @ WW
    h = ((H * G.ravel()).reshape(m, d, d) @ At[:, :, None])[:, :, 0]  # (G o H) a
    # tr(J' T T') = sum_k a_k q_k with q = rowsums of (W1 T) o (W2' diag(c) T),
    # on the chunk's factors gathered as (m, r, D): (m r, D) rows Tr of T_n'
    T = t.stack[t.rows].transpose(0, 2, 1).copy()
    Tr = T.reshape(-1, D)
    CT = (T * Ct[:, None, :]).reshape(-1, D)
    M = (Tr @ p.w1.T).reshape(m, -1, d)  # rows of (W1 T)'
    N = (CT @ p.w2).reshape(m, -1, d)  # rows of (W2' diag(c) T)'
    q = np.einsum("nrk,nrk->nk", M, N)
    value = weight * (float(np.sum(At * (h - 2.0 * q))) + float(np.sum(t.gram[t.rows])))
    s = 2.0 * weight
    AM = (M * At[:, None, :]).reshape(-1, d)
    AN = (N * At[:, None, :]).reshape(-1, d)
    dw1 = s * (np.einsum("nk,nk->k", AA, H).reshape(d, d) @ p.w1 - AN.T @ Tr)
    PG = (C2.T @ AG).reshape(D, d, d)  # sum_n c_j^2 (a (x) a) o G
    dw2 = s * ((PG @ p.w2[:, :, None])[:, :, 0] - CT.T @ AM)
    ga = s * (h - q)  # d/da
    gc = s * (Ct * (AG @ WW.T)
              - np.einsum("nrj,nrj->nj", (AM @ p.w2.T).reshape(m, -1, D), T))  # d/dc
    # chain through c = 1 - z^2 into v = W2 y + b2, then through
    # a = 1 - y^2 and y into u = W1 x + b1
    gv = -2.0 * Zc * (Ct * gc).T  # (D, m)
    gu = (p.w2.T @ gv - 2.0 * Yc * ga.T) * At.T  # (d, m)
    return value, np.concatenate([(dw1 + gu @ Xc).ravel(), (dw2 + gv @ Yc.T).ravel(),
                                  gu.sum(axis=1), gv.sum(axis=1)])


def _jacobian_term(p, Xin, f: Forward, t: FactorRows, weight, grad):
    """w sum_n ||J_n - T_n T_n'||_F^2, with its gradient added into grad,
    from the factors T_n of t by the identities in the module docstring:
    no D x D array and no (n, D, d) array.

    Chunks of _JAC_CHUNK points, each gathering its own rows of the
    stack, run on a thread pool (see the parallel module) and are summed
    in chunk order, then added into grad once, so value and gradient
    have the same bits at any worker count.
    """
    n = len(Xin)
    kron = _kron_rows(p)

    def chunk(lo):
        hi = lo + _JAC_CHUNK
        return _jacobian_chunk(p, kron, Xin[lo:hi], f.cols(lo, hi),
                               t._replace(rows=t.rows[lo:hi]), weight)

    # a chunk's largest work arrays, (m, d^2) and (m r, D)
    block_bytes = 8 * _JAC_CHUNK * max(p.bits ** 2, p.dims * t.stack.shape[2])
    results = parallel.ordered_map(chunk, range(0, n, _JAC_CHUNK), block_bytes)
    grad += sum(g for _, g in results)
    return sum(v for v, _ in results)


def _contractive_term(p, Xin, f: Forward, lam, grad):
    At = f.A.T  # (n, d)
    s = np.sum(p.w1 * p.w1, axis=1)  # hidden-row norms squared
    A2 = At * At
    dw1 = 2.0 * lam * np.sum(A2, axis=0)[:, None] * p.w1
    A2 *= s  # (1 - Y^2)'^2 o s
    value = float(lam * np.sum(A2))
    gu = np.multiply(-4.0 * lam, At)
    gu *= At
    gu *= f.Y.T
    gu *= s  # -4 lam (1 - Y^2)'^2 o Y' o s
    dw1 += gu.T @ Xin
    gw1, _, gb1, _ = _blocks(grad, p)
    gw1 += dw1
    gb1 += gu.sum(axis=0)
    return value


def _terms(batch, tangents, cfg: ObjectiveConfig, lambda_c, corrupted):
    """(network input, [(name, term)]) in accumulation order: recon, the
    middle term if any, binary. term(p, f, grad) -> value takes the
    Forward pass f of the network input and adds into grad.
    """
    n, D = batch.shape
    Xin = batch
    if corrupted is not None:
        if corrupted.shape != batch.shape:
            raise ValueError("clean/corrupted batch shape mismatch")
        Xin = corrupted
    if tangents is not None and lambda_c is not None:
        raise ValueError("give tangents or lambda_c, not both: each is a middle term")
    terms = [("recon", lambda p, f, g: _recon_term(p, Xin, batch, f, g))]
    if tangents is not None:
        rows = _factor_rows(tangents, n, D)
        terms.append(("jacobian", lambda p, f, g: _jacobian_term(
            p, Xin, f, rows, cfg.jacobian_weight, g)))
    if lambda_c is not None:
        terms.append(("contractive", lambda p, f, g: _contractive_term(
            p, Xin, f, lambda_c, g)))
    terms.append(("binary", lambda p, f, g: _binary_term(
        p, Xin, f, cfg.alpha, cfg.epsilon, n, g)))
    return Xin, terms


def objective(p: NetworkParams, batch: np.ndarray, tangents, cfg: ObjectiveConfig,
              lambda_c: float | None = None, corrupted: np.ndarray | None = None):
    """(total, parts, grad) of the objective on a batch, from one forward
    pass whose slopes 1 - Y^2 and 1 - Z^2 every term shares; grad is one
    float64 vector laid out like pack_params(p), and each term adds its
    gradient into views of it.

    batch holds one point per row, (n, D). tangents holds one D x r
    tangent factor T per point, as one array-like of shape (n, D, r) such
    as a list of D x D projectors (each its own factor) or as FactorRows,
    n rows of a larger stack read in place, and adds the Jacobian term
    with target T T' (any other shape raises a ValueError naming
    (N, D, r)); lambda_c adds the contractive term instead; None leaves it
    out. corrupted, when given, is the (n, D) network input and batch
    stays the reconstruction target.
    """
    Xin, terms = _terms(batch, tangents, cfg, lambda_c, corrupted)
    f = _forward(p, Xin)
    grad = np.zeros(2 * p.w1.size + p.bits + p.dims)
    recon, *middle, binary = [term(p, f, grad) for _, term in terms]
    parts = ObjectiveParts(recon=recon, jacobian=middle[0] if middle else 0.0,
                           binary=binary)
    return parts.total, parts, grad


# --- parameter vector packing ---


def pack_params(p: NetworkParams) -> np.ndarray:
    return np.concatenate([p.w1.ravel(), p.w2.ravel(), p.b1, p.b2])


def _blocks(theta: np.ndarray, p: NetworkParams):
    """(w1, w2, b1, b2) views of a vector laid out like pack_params(p)."""
    d, D = p.w1.shape
    a, b = d * D, 2 * d * D
    return (theta[:a].reshape(d, D), theta[a:b].reshape(D, d), theta[b:b + d],
            theta[b + d:b + d + D])


def unpack_params(theta: np.ndarray, template: NetworkParams) -> NetworkParams:
    w1, w2, b1, b2 = _blocks(theta, template)
    return replace(template, w1=w1, w2=w2, b1=b1, b2=b2)

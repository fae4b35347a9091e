"""Three-layer tanh auto-encoder: batch forward pass and the composite
objective with its analytic gradient.

A batch is n points, the rows of an (n, D) matrix X, and every array
of the pass holds one row per point: the hidden rows Y = tanh(X W1' + b1)
(n x d) and the output rows Z = tanh(Y W2' + b2) (n x D). The objective
over a batch of n rows is

    sum_i ( ||x_i - z_i||^2 + w ||J_i - A_i||_F^2 ) + alpha * S(Y'Y - n I)

where J_i is the input-output Jacobian at x_i, A_i = T_i' T_i the tangent
projector, and S(M) = sum_jk sqrt(M_jk^2 + eps) smooths the entrywise
1-norm. Jacobian orientation: J(i, j) = d z_j / d x_i, so with
a = 1 - y_i^2 and c = 1 - z_i^2, J_i = W1' diag(a) W2' diag(c).

The target comes from its factor T_i (r x D), whose rows are tangent
directions, alone; no D x D matrix is formed. Expanding the square,

    ||J - T'T||_F^2 = a'(W1 W1' o W2' diag(c^2) W2) a
                      - 2 sum_k a_k sum_r (T W1')_rk (T diag(c) W2)_rk
                      + ||T T'||_F^2,

with o the entrywise product. The last term makes the identity exact
for any factor: zero rows change neither T'T nor T T', so ragged
ranks are zero-padded to one height, and a projector P is its own factor,
since P'P = P. It does not depend on the parameters, so the trainer
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

The cross term's products T W1' and T diag(c) W2, and their gradient
contractions, run on the chunk's factors read as (m r, D) rows, so no
array of (m, D, d) is formed. The term is computed in chunks of
64 points. The trainer passes the whole (N, r, D) stack and a batch's
row indices (FactorRows), and each chunk gathers only its own rows, so
no batch-sized copy of the factors is made. One converter, _factor_rows,
reads and checks every form of the factors.

The comparison models are the same objective with the middle term
changed: AutoBin drops it, CAutoBin puts the contractive term
lambda_c sum_i ||d y_i / d x_i||_F^2 in its place, and DAutoBin drops it
and feeds the network a corrupted copy of the batch while still
reconstructing the clean one. objective() calls each term's function in
turn and returns value, parts and gradient from one forward pass;
variants.VariantConfig says which arguments each method passes. The
pass forms the tanh slopes 1 - y^2 and 1 - z^2 once (Forward, which
forward_batch returns with objective's bits), and every term and
Jacobian chunk reads them; each term updates its work arrays in place,
in the order of the out-of-place expression, so the bits are that
expression's. The gradient is one vector laid out like pack_params, and
each term adds into views of only the blocks it reaches.

The whole objective runs on the thread pool (see the parallel module)
in chunks of the batch's rows: the fewest chunks whose (rows, D) input
takes at most 512 KiB each, of ceil(n / chunks) rows and a shorter last
one, so the chunking depends on the shape alone (a 1000 x 64 batch is
one chunk, 1000 x 128 two of 500 rows). objective() runs four steps in
order. An input step (_inputs) checks the arguments and reads the
factors. Pass 1, one map over the row chunks, writes each chunk's rows of
the Forward arrays, which the calling thread allocates, adds the chunk's
recon and contractive parts into a zeroed gradient of its own, and
returns them with its part of Y'Y. The Jacobian term then runs its
64-point chunks. Last, the binary term forms S, R and G once from the
summed Y'Y, and pass 2 runs each row chunk's binary gradient
dU = (Y 2G) o (1 - Y^2) and dU' X. Every map sums its
chunks' values and gradients in chunk order through one helper
(_chunk_sum), so the objective has the same bits at any worker count
and in any process, and a batch of one chunk has the bits of the
out-of-place expressions added into one zeroed gradient in the order
recon, middle, binary. Each worker's (rows, D) and (rows, d) work arrays
come from the pool's buffers, made on the calling thread.

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


class Forward(NamedTuple):
    """One evaluation's forward pass of an (n, D) batch: the activation
    rows Y (n, d) and Z (n, D), and their tanh slopes A = 1 - Y^2 and
    C = 1 - Z^2, formed once and read, never written, by every term."""
    Y: np.ndarray
    Z: np.ndarray
    A: np.ndarray
    C: np.ndarray

    def rows(self, lo, hi) -> Forward:
        """The pass over rows lo:hi, as views."""
        return Forward(*(a[lo:hi] for a in self))


def _empty_forward(n: int, p: NetworkParams) -> Forward:
    """The Forward arrays of n rows, allocated and not yet written."""
    return Forward(*(np.empty((n, w)) for w in (p.bits, p.dims, p.bits, p.dims)))


def _forward_rows(p: NetworkParams, X, f: Forward):
    """Write the Forward pass of the input rows X into f, arrays of as
    many rows, in place: each layer's product, bias and tanh, then A, C."""
    Y, Z, A, C = f
    np.matmul(X, p.w1.T, out=Y)
    Y += p.b1
    np.tanh(Y, out=Y)
    np.matmul(Y, p.w2.T, out=Z)
    Z += p.b2
    np.tanh(Z, out=Z)
    np.multiply(Y, Y, out=A)
    np.subtract(1.0, A, out=A)
    np.multiply(Z, Z, out=C)
    np.subtract(1.0, C, out=C)


def forward_batch(p: NetworkParams, X: np.ndarray) -> Forward:
    """The Forward pass (Y, Z, A, C) of the (n, D) rows X, written row
    chunk by row chunk as objective writes it."""
    f = _empty_forward(len(X), p)
    step = _row_chunks(*X.shape).step
    for lo in range(0, len(X), step):
        _forward_rows(p, X[lo:lo + step], f.rows(lo, lo + step))
    return f


# --- row chunks ---

# the most bytes of (rows, D) input in one row chunk of the objective: a
# 1000 x 64 batch (the criterion-8 proxy's) is one chunk, 1000 x 128 two
_ROW_CHUNK_BYTES = 1 << 19


def _row_chunks(n: int, D: int) -> range:
    """The first rows of the row chunks of an (n, D) batch, whose step is
    the rows per chunk: the fewest chunks whose input rows take at most
    _ROW_CHUNK_BYTES each, of ceil(n / chunks) rows, the last taking what
    is left. It depends on the shape alone, never on the worker count."""
    most = max(1, _ROW_CHUNK_BYTES // (8 * D))
    chunks = max(1, -(-n // most))
    return range(0, n, max(1, -(-n // chunks)))


def _row_work(m: int, d: int, D: int):
    """The buffers factory of row chunks of at most m rows: one worker's
    work arrays, two (m, D) and two (m, d), made on the calling thread
    (see the parallel module)."""
    return lambda: tuple(np.empty((m, w)) for w in (D, D, d, d))


def _chunk_sum(chunk, starts, block_bytes: int, buffers=None) -> list:
    """Item by item, the sums of the tuples chunk(lo[, buf]) returns for
    the chunks that start at starts, run on the pool (parallel.ordered_map)
    and summed in chunk order, so the sums have the same bits at any
    worker count. Every chunked map of the objective runs through here."""
    return [sum(items) for items in
            zip(*parallel.ordered_map(chunk, starts, block_bytes, buffers))]


# --- per-term values and gradients ---
# Each chunk's (m, D) and (m, d) work arrays are its worker's _row_work
# arrays, updated in place in the order of the out-of-place expression in
# its comment, so the bits are those of that expression.


def _recon_rows(p, X, target, f: Forward, g, work):
    m = len(X)
    diff = np.subtract(f.Z, target, out=work[0][:m])
    sq = np.multiply(diff, diff, out=work[1][:m])
    value = float(np.sum(sq))
    d2 = np.multiply(2.0, diff, out=sq)
    d2 *= f.C  # 2 (Z - X) o (1 - Z^2)
    d1 = np.matmul(d2, p.w2, out=work[2][:m])
    d1 *= f.A  # (d2 W2) o (1 - Y^2)
    for gb, dg in zip(_blocks(g, p), (d1.T @ X, d2.T @ f.Y, d1.sum(axis=0),
                                      d2.sum(axis=0))):
        gb += dg
    return value


def _binary_term(p, X, f: Forward, YtY, alpha, eps, n_target, grad):
    """alpha S(Y'Y - n I) from YtY = Y'Y (pass 1's chunk sum), with its
    gradient added into grad: G = alpha S / sqrt(S^2 + eps) is formed
    once, and pass 2 runs dU = (Y 2G) o (1 - Y^2) and dU' X on the row
    chunks of the input rows X."""
    S = YtY - n_target * np.eye(len(YtY))
    R = np.sqrt(S * S + eps)
    value = float(alpha * np.sum(R))
    G2 = 2.0 * (alpha * S / R)
    starts = _row_chunks(*X.shape)
    m = starts.step

    def chunk(lo, work):
        s = slice(lo, lo + m)
        dU = np.matmul(f.Y[s], G2, out=work[:len(X[s])])
        dU *= f.A[s]  # (Y 2G) o (1 - Y^2)
        return dU.T @ X[s], dU.sum(axis=0)

    dw1, db1 = _chunk_sum(chunk, starts, 8 * m * p.dims, lambda: np.empty((m, p.bits)))
    gw1, _, gb1, _ = _blocks(grad, p)
    gw1 += dw1
    gb1 += db1
    return value


# points per chunk, whatever the worker count: a chunk's (m, d^2) and
# (m r, D) work arrays stay in cache, and W workers hold W chunks
_JAC_CHUNK = 64


class FactorRows(NamedTuple):
    """The tangent factors of a batch, read in place: point n's factor
    is stack[rows[n]] of an (N, r, D) stack, and gram holds ||T T'||_F^2
    of every factor in the stack (see gram_norms)."""
    stack: np.ndarray
    rows: np.ndarray
    gram: np.ndarray


def gram_norms(stack: np.ndarray) -> np.ndarray:
    """||T T'||_F^2 of each factor of an (N, r, D) stack, _JAC_CHUNK
    factors at a time, so no (N, r, r) array is formed."""
    out = np.empty(len(stack))
    for lo in range(0, len(stack), _JAC_CHUNK):
        T = stack[lo:lo + _JAC_CHUNK]
        TTt = T @ np.swapaxes(T, 1, 2)
        out[lo:lo + _JAC_CHUNK] = np.sum(TTt * TTt, axis=(1, 2))
    return out


def _factor_rows(tangents, n: int, D: int) -> FactorRows:
    """FactorRows of n rows of r x D factors as it is, else one array-like
    of n equal-shape r x D factors as rows 0..n-1 of itself, with their
    gram_norms computed once; any other shape, ragged factors included,
    raises a ValueError naming (N, r, D)."""
    if isinstance(tangents, FactorRows):
        stack, got = tangents.stack, (len(tangents.rows),) + tangents.stack.shape[1:]
    else:
        try:
            stack = np.asarray(tangents)
            got = stack.shape
        except ValueError:  # numpy's inhomogeneous-shape error
            stack, got = None, "factors of unequal shapes"
    if stack is None or stack.ndim != 3 or (got[0], got[2]) != (n, D):
        raise ValueError(f"the Jacobian term needs tangent factors of shape "
                         f"(N, r, D) = ({n}, r, {D}), got {got}")
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
    A, C = f.A, f.C  # (m, d), (m, D)
    (m, d), D = A.shape, C.shape[1]
    C2 = C * C
    # ||J||^2 = a'(G o H)a on (m, d^2) rows: H = C^2 (W2 (x) W2), a (x) a
    AA = (A[:, :, None] * A[:, None, :]).reshape(m, -1)
    AG = AA * G.ravel()
    H = C2 @ WW
    h = ((H * G.ravel()).reshape(m, d, d) @ A[:, :, None])[:, :, 0]  # (G o H) a
    # tr(J' T'T) = sum_k a_k q_k with q = column sums of (T W1') o (T diag(c) W2),
    # on the chunk's factors gathered as (m, r, D): (m r, D) rows Tr
    T = t.stack[t.rows]
    Tr = T.reshape(-1, D)
    CT = (T * C[:, None, :]).reshape(-1, D)
    M = (Tr @ p.w1.T).reshape(m, -1, d)  # T W1'
    N = (CT @ p.w2).reshape(m, -1, d)  # T diag(c) W2
    q = np.einsum("nrk,nrk->nk", M, N)
    value = weight * (float(np.sum(A * (h - 2.0 * q))) + float(np.sum(t.gram[t.rows])))
    s = 2.0 * weight
    AM = (M * A[:, None, :]).reshape(-1, d)
    AN = (N * A[:, None, :]).reshape(-1, d)
    dw1 = s * (np.einsum("nk,nk->k", AA, H).reshape(d, d) @ p.w1 - AN.T @ Tr)
    PG = (C2.T @ AG).reshape(D, d, d)  # sum_n c_j^2 (a (x) a) o G
    dw2 = s * ((PG @ p.w2[:, :, None])[:, :, 0] - CT.T @ AM)
    ga = s * (h - q)  # d/da
    gc = s * (C * (AG @ WW.T)
              - np.einsum("nrj,nrj->nj", (AM @ p.w2.T).reshape(m, -1, D), T))  # d/dc
    # chain through c = 1 - z^2 into v = W2 y + b2, then through
    # a = 1 - y^2 and y into u = W1 x + b1
    gv = -2.0 * f.Z * (C * gc)  # (m, D)
    gu = (gv @ p.w2 - 2.0 * f.Y * ga) * A  # (m, d)
    return value, np.concatenate([(dw1 + gu.T @ Xc).ravel(), (dw2 + gv.T @ f.Y).ravel(),
                                  gu.sum(axis=0), gv.sum(axis=0)])


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
        return _jacobian_chunk(p, kron, Xin[lo:hi], f.rows(lo, hi),
                               t._replace(rows=t.rows[lo:hi]), weight)

    # a chunk's largest work arrays, (m, d^2) and (m r, D)
    block_bytes = 8 * _JAC_CHUNK * max(p.bits ** 2, p.dims * t.stack.shape[1])
    value, g = _chunk_sum(chunk, range(0, n, _JAC_CHUNK), block_bytes)
    grad += g
    return value


def _contractive_rows(p, X, f: Forward, lam, g, work):
    m = len(X)
    s = np.sum(p.w1 * p.w1, axis=1)  # hidden-row norms squared
    A2 = np.multiply(f.A, f.A, out=work[2][:m])
    dw1 = 2.0 * lam * np.sum(A2, axis=0)[:, None] * p.w1
    A2 *= s  # (1 - Y^2)^2 o s
    value = float(lam * np.sum(A2))
    gu = np.multiply(-4.0 * lam, f.A, out=work[3][:m])
    gu *= f.A
    gu *= f.Y
    gu *= s  # -4 lam (1 - Y^2)^2 o Y o s
    dw1 += gu.T @ X
    gw1, _, gb1, _ = _blocks(g, p)
    gw1 += dw1
    gb1 += gu.sum(axis=0)
    return value


def _inputs(batch, tangents, lambda_c, corrupted):
    """(network input, FactorRows or None) of objective's arguments: the
    corrupted rows if given, else the batch, and the tangent factors read
    by _factor_rows if given. A corrupted batch of another shape, or both
    middle terms, raises a ValueError."""
    if corrupted is not None and corrupted.shape != batch.shape:
        raise ValueError("clean/corrupted batch shape mismatch")
    if tangents is not None and lambda_c is not None:
        raise ValueError("give tangents or lambda_c, not both: each is a middle term")
    rows = None if tangents is None else _factor_rows(tangents, *batch.shape)
    return (batch if corrupted is None else corrupted), rows


def objective(p: NetworkParams, batch: np.ndarray, tangents, cfg: ObjectiveConfig,
              lambda_c: float | None = None, corrupted: np.ndarray | None = None):
    """(total, parts, grad) of the objective on a batch, from one forward
    pass whose slopes 1 - Y^2 and 1 - Z^2 every term shares; grad is one
    float64 vector laid out like pack_params(p), and each term adds its
    gradient into views of it.

    batch holds one point per row, (n, D). tangents holds one r x D
    tangent factor T per point, whose rows are tangent directions, as one
    array-like of shape (n, r, D) such as a list of D x D projectors (each
    its own factor) or as FactorRows, n rows of a larger stack read in
    place, and adds the Jacobian term with target T'T (any other shape
    raises a ValueError naming (N, r, D)); lambda_c adds the contractive
    term instead; None leaves it out. corrupted, when given, is the (n, D)
    network input and batch stays the reconstruction target.

    In order (module docstring): the input step, pass 1's row chunks with
    the forward pass, recon, contractive and Y'Y, then the Jacobian term,
    then the binary term.
    """
    Xin, rows = _inputs(batch, tangents, lambda_c, corrupted)
    (n, D), d = Xin.shape, p.bits
    f = _empty_forward(n, p)
    starts = _row_chunks(n, D)
    m = starts.step
    own = np.zeros((len(starts), 2 * p.w1.size + d + D))  # each chunk's gradient

    def chunk(lo, work):
        s, fc, g = slice(lo, lo + m), f.rows(lo, lo + m), own[lo // m]
        _forward_rows(p, Xin[s], fc)
        recon = _recon_rows(p, Xin[s], batch[s], fc, g, work)
        middle = 0.0 if lambda_c is None else _contractive_rows(
            p, Xin[s], fc, lambda_c, g, work)
        return g, recon, middle, fc.Y.T @ fc.Y

    grad, recon, middle, YtY = _chunk_sum(chunk, starts, 8 * m * D, _row_work(m, d, D))
    if rows is not None:
        middle = _jacobian_term(p, Xin, f, rows, cfg.jacobian_weight, grad)
    binary = _binary_term(p, Xin, f, YtY, cfg.alpha, cfg.epsilon, n, grad)
    parts = ObjectiveParts(recon=recon, jacobian=middle, binary=binary)
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

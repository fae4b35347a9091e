"""Training loop: PCA initialization, a permutation per epoch that splits
the training set into mini-batches, L-BFGS updates with a strong-Wolfe
line search, cost tracing.

Each iteration searches along the L-BFGS two-loop direction (Nocedal &
Wright, Numerical Optimization, Alg. 7.4) with the strong-Wolfe search
of their Alg. 3.5 and 3.6, one loop over one bracket: an expanding
phase doubles the step until a trial ends the bracket, then a zoom
phase picks trial steps inside it by safeguarded quadratic
interpolation, which takes 8-13% fewer evaluations than bisection on a
D=64 manifold of 2000 points. The search returns the value and gradient
at the point it accepts, so no point is evaluated twice. A curvature
pair comes from that gradient, on the same mini-batch; pairs persist
across batches and epochs. The loop's one parameter state is the flat
vector theta.

Each iteration lists its searches, the L-BFGS direction at a unit step
when it descends and then -g from a step warm-started from the last one
accepted along -g, and takes the first that lowers the batch cost. A
direction that does not descend, or a search along it that lowers
nothing, clears the memory, so -g is searched with an empty memory. A
search along -g that finds no finite value raises LineSearchError at
once: the objective is deterministic, so another search would fail the
same way. A step without sufficient decrease is never taken, so a batch
objective never rises. Training stops at the iteration cap, or when the
batch is the whole (uncorrupted) training set and not even -g lowers
the cost: the next iteration would repeat that search from the same
point. The search is quasi-Newton because steepest descent stalls on
the tanh saturation: on the 1000-point toy, AutoBin ends near cost 283
after 300 full-batch steepest-descent iterations, against 38-50 (three
seeds) from this search.

train takes the tangents in one of two forms. A tangent.TangentSet,
which fit passes, gives its zero-padded (N, D, r) stack of bases and
its region variance, the Jacobian term's weight (see the network
module). Any other array-like of N equal-shape D x r factors, such as
D x D projectors (each its own factor), is taken as one array at unit
weight. Either form is converted and checked once, by the network
module's one converter of tangent factors (network._factor_rows). On
the toy simplex at the region-variance weight this search saturates
the hidden layer (mean |y| 0.99 or more); steepest descent stopped at
0.17-0.33, and at unit weight the objective's minimum keeps it near 0.4.

The training set is an (N, D) matrix, one point per row. Each
mini-batch's rows are gathered from it when the batch is used, so no
shuffled copy of the set is formed. For the denoising variant the
epoch's corruption is one boolean (D, N) mask, column k for the k-th
point of the permutation, one byte per entry; a batch's network input
is a copy of the batch with the entries of its columns of the mask
zeroed. Each example is still corrupted on its own draws, as in
Vincent et al. (ICML 2008).

An epoch's cost is the sum of its accepted batch costs. With one batch
that is the full-set cost at the epoch's end; with mini-batches it is
the running cost the optimizer saw, not a full-set cost (the binary
term is per batch). A batch passes the whole tangent factor stack and
its row indices (network.FactorRows), with ||T'T||_F^2 of every factor
computed once per training set by that converter; each 64-point chunk
of the Jacobian term gathers its own rows, so no part of the stack
larger than a chunk is ever copied.

One seeded RNG stream drives everything, consumed in a fixed order:
the init rotation first, then per epoch the permutation and (for the
denoising variant) the corruption mask, drawn row by row with the
uniform draws of one (D, N) array in the same order
(variants.draw_mask).

fit is the one path from raw data to a scaled model.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import variants as var
from .network import (
    NetworkParams,
    ObjectiveConfig,
    _factor_rows,
    objective,
    pack_params,
    unpack_params,
)
from .matrix_io import _check_matrix, apply_normalizer, fit_normalizer
from .tangent import TangentSet, estimate_all_tangents


LBFGS_MEMORY = 10  # curvature pairs kept by the L-BFGS direction
WOLFE_C1 = 1e-4  # sufficient-decrease constant of the strong-Wolfe search
WOLFE_C2 = 0.9  # its curvature constant
WOLFE_MAX_EVALS = 20  # objective evaluations one search may make
_EPS = np.finfo(float).eps


class LineSearchError(RuntimeError):
    """No finite objective value found along the search direction; evals
    counts the objective evaluations the search made. When it ends
    train, params holds the last accepted parameters and iteration the
    number of the iteration whose search failed."""

    def __init__(self, message: str, evals: int):
        super().__init__(message)
        self.evals = evals
        self.params: NetworkParams | None = None
        self.iteration: int | None = None


@dataclass
class TrainConfig:
    bits: int
    epsilon: float = 1e-4
    epochs: int = 5
    batch_size: int = 1000
    total_iterations: int | None = None  # optional cap across epochs
    seed: int = 0
    method: var.VariantConfig = field(default_factory=var.VariantConfig)

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.bits < 1:
            raise ValueError("epochs, batch_size and bits must be positive")
        if self.total_iterations is not None and self.total_iterations < 1:
            raise ValueError(f"total_iterations must be at least 1, got "
                             f"{self.total_iterations}")


@dataclass
class TraceRow:
    iteration: int
    total: float
    recon: float
    jacobian: float
    binary: float
    step: float
    evals: int
    fallback: bool


@dataclass
class TrainReport:
    cost_trace: list[TraceRow] = field(default_factory=list)
    epoch_costs: list[tuple[int, float]] = field(default_factory=list)
    wall_time: float = 0.0
    initial: NetworkParams | None = None  # the untrained start, from init_params
    # set when the Jacobian term is trained; ranks only from a TangentSet
    jacobian_weight: float | None = None
    tangent_ranks: list[int] = field(default_factory=list)


def write_trace_csv(path, report: TrainReport) -> None:
    with open(path, "w") as f:
        f.write("iteration,total,recon,jacobian,binary,step,evals,fallback\n")
        for r in report.cost_trace:
            f.write(f"{r.iteration},{r.total!r},{r.recon!r},{r.jacobian!r},"
                    f"{r.binary!r},{r.step!r},{r.evals},{int(r.fallback)}\n")


def init_params(train: np.ndarray, d: int, seed) -> NetworkParams:
    """PCA projection times a random rotation; linear-optimal reconstruction.

    W1 = R P with P the top-d principal directions (rows), R a random
    d x d rotation; W2 = W1', b1 = -W1 mu, b2 = mu.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    N, D = train.shape
    if d > D:
        raise ValueError(f"bits d={d} exceeds dimension D={D}")
    if N <= d:
        raise ValueError(f"need more than d={d} training points, got {N}")
    mu = train.mean(axis=0)
    centered = train - mu
    cov = centered.T @ centered / N
    evals, evecs = np.linalg.eigh(cov)
    evals, evecs = evals[::-1], evecs[:, ::-1]  # eigh's are ascending
    if evals[d - 1] <= 1e-12 * max(evals[0], 1e-300):
        warnings.warn("training data rank below bit count; PCA basis padded "
                      "with an orthonormal complement", stacklevel=2)
    P = evecs[:, :d].T  # (d, D); eigh guarantees orthonormal rows
    M = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, -1] = -Q[:, -1]
    w1 = Q @ P
    return NetworkParams(w1=w1, w2=w1.T.copy(), b1=-w1 @ mu, b2=mu.copy())


def wolfe_step(theta: np.ndarray, g: np.ndarray, f, f0: float,
               initial_step: float = 1.0, direction: np.ndarray | None = None):
    """Strong-Wolfe step length along a descent direction (default -g).

    f maps a parameter vector to (value, gradient, ...), further items
    ignored; g and f0 are the gradient and value at theta. One loop walks
    one bracket, lo its end with the lower value: the step doubles while
    the far end hi is unset (the expanding phase), then _interpolate
    picks each trial inside it (the zoom phase). Returns (step, evals,
    fallback, value, gradient), the last two at theta + step * direction
    (f0 and g for step 0.0). fallback means the budget of WOLFE_MAX_EVALS
    ran out: the step is then the best trial with sufficient decrease, or
    0.0 (stay at theta) when no trial decreased the value enough. Raises
    LineSearchError, carrying the evaluation count, when no trial had a
    finite value.
    """
    d = -g if direction is None else direction
    phi0 = float(f0)
    derphi0 = float(g @ d)
    if derphi0 == 0.0:
        return 0.0, 0, False, phi0, g
    if not np.isfinite(derphi0):
        raise LineSearchError("non-finite directional derivative", 0)
    if derphi0 > 0.0:
        raise ValueError("search direction is not a descent direction")
    if not np.isfinite(phi0):
        raise LineSearchError("objective non-finite at the current point", 0)

    lo, phi_lo, dphi_lo = 0.0, phi0, derphi0
    hi = phi_hi = None  # unset while the step expands
    best = None  # (step, value, gradient) of the lowest sufficient decrease
    any_finite = False
    a, evals = initial_step, 0
    while evals < WOLFE_MAX_EVALS:
        val, grad = f(theta + a * d)[:2]
        v, dv = float(val), float(grad @ d)
        evals += 1
        finite = np.isfinite(v)
        any_finite = any_finite or finite
        decrease = finite and v <= phi0 + WOLFE_C1 * a * derphi0
        if decrease and (best is None or v < best[1]):
            best = (a, v, grad)
        # ends the bracket: no sufficient decrease, or past the first trial not below lo
        if not decrease or ((hi is not None or lo > 0.0) and v >= phi_lo):
            hi, phi_hi = a, v
        elif abs(dv) <= -WOLFE_C2 * derphi0:
            return a, evals, False, v, grad
        else:
            if (dv if hi is None else dv * (hi - lo)) >= 0:
                hi, phi_hi = lo, phi_lo  # the slope points back past lo
            lo, phi_lo, dphi_lo = a, v, dv
        a = 2.0 * a if hi is None else _interpolate(lo, hi, phi_lo, dphi_lo, phi_hi)
    if best is not None:
        return best[0], evals, True, best[1], best[2]
    if any_finite:
        return 0.0, evals, True, phi0, g
    raise LineSearchError("no finite objective value along the direction", evals)


def _interpolate(lo, hi, phi_lo, dphi_lo, phi_hi):
    """Trial step of wolfe_step's zoom phase: the minimizer of the
    quadratic through phi_lo with slope dphi_lo at lo and through phi_hi
    at hi, kept inside the middle 80% of the bracket; the midpoint when
    the quadratic has no minimum there (non-finite phi_hi, or no upward
    curvature).
    """
    h = hi - lo
    curv = phi_hi - phi_lo - dphi_lo * h
    if not (np.isfinite(curv) and curv > 0.0):
        return lo + 0.5 * h
    a = lo - dphi_lo * h * h / (2.0 * curv)
    inner_lo, inner_hi = sorted((lo + 0.1 * h, lo + 0.9 * h))
    return min(max(a, inner_lo), inner_hi)


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g by the L-BFGS two-loop recursion (Nocedal & Wright, Alg. 7.4).

    pairs holds (s, y, 1 / s'y) from oldest to newest; the initial
    inverse Hessian is s'y / y'y times the identity, from the newest pair.
    """
    q = g.copy()
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * float(s @ q)
        coefs.append(a)
        q -= a * y
    s, y, rho = pairs[-1]
    q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        q += (a - rho * float(y @ q)) * s
    return -q


def train(X_train: np.ndarray, tangents, cfg: TrainConfig):
    """Mini-batch L-BFGS with strong-Wolfe steps; returns (params, report).

    tangents is either the TangentSet of tangent.estimate_all_tangents,
    whose (N, D, r) stack of factors the Jacobian term reads as it is,
    weighted by its region variance, or an array-like of N equal-shape
    D x r factors, such as D x D projectors, taken as one array at unit
    weight; None for variants without the Jacobian term. Both forms go
    through network._factor_rows once, so anything else, and factors of
    another shape or of unequal shapes, raise its ValueError that names
    (N, D, r). theta = pack_params(init) is the loop's only parameter
    state, and the objective's gradient comes in its layout; each
    iteration walks its list of searches (L-BFGS direction, then -g)
    until one lowers the batch cost. Data must already be normalized and
    finite; fit normalizes raw data and sets the scale. Each line search
    returns the value and gradient at its accepted point; an epoch's cost
    is the sum of those batch values, and a LineSearchError along -g is
    not retried (see the module docstring): it ends training carrying the
    last accepted parameters and the failed iteration. train keeps no
    reference to tangents once it has their (N, D, r) stack.
    """
    t_start = time.perf_counter()
    X_train = _check_matrix(X_train)
    N, D = X_train.shape
    if cfg.batch_size > N:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds N={N}")
    if not cfg.method.trained:
        raise ValueError(f"variant {cfg.method.kind!r} is not trained by "
                         "gradient descent")
    rng = np.random.default_rng(cfg.seed)
    report = TrainReport(initial=init_params(X_train, cfg.bits, rng))

    rows, weight = None, ObjectiveConfig().jacobian_weight
    if cfg.method.needs_tangents:
        if isinstance(tangents, TangentSet):
            weight, report.tangent_ranks = tangents.region_variance, tangents.ranks.tolist()
            tangents = tangents.factors
        rows = _factor_rows(tangents, N, D)  # ||T'T||_F^2 is constant over training
        report.jacobian_weight = weight
    del tangents  # the stack is all training reads
    ocfg = ObjectiveConfig(alpha=cfg.method.alpha, epsilon=cfg.epsilon,
                           jacobian_weight=weight)
    m = N // cfg.batch_size  # trailing remainder joins the last batch
    bounds = [cfg.batch_size * j for j in range(m)] + [N]

    theta = pack_params(report.initial)  # the loop's one parameter state
    iteration = 0
    prev_step = 1.0  # last accepted step along -g
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / s'y), oldest first
    for epoch in range(cfg.epochs):
        perm = rng.permutation(N)
        mask = cfg.method.corrupt((D, N), rng)  # column k corrupts point perm[k]
        epoch_cost = 0.0
        for j in range(m):
            lo, hi = bounds[j], bounds[j + 1]
            batch = X_train[perm[lo:hi]]
            batch_rows = rows._replace(rows=perm[lo:hi]) if rows is not None else None
            # formed as the mask's C-ordered (D, n) columns and read as rows:
            # the objective's products round by the input's memory order
            corrupted = (np.where(mask[:, lo:hi], 0.0, batch.T).T
                         if mask is not None else None)

            def f(theta):
                value, parts, grad = objective(
                    unpack_params(theta, report.initial), batch, batch_rows, ocfg,
                    lambda_c=cfg.method.contraction, corrupted=corrupted)
                return value, grad, parts

            _, g, parts = f(theta)
            # the L-BFGS direction at a unit step when it descends, then -g
            # with its trial step warm-started from the last accepted one
            # (the bracketing phase doubles upward, so recovery is cheap)
            searches = [(None, min(max(2.0 * prev_step, 1e-12), 1.0))]
            direction = _lbfgs_direction(g, pairs) if pairs else None
            if direction is not None:
                if float(g @ direction) < 0.0:
                    searches.insert(0, (direction, 1.0))
                else:
                    pairs.clear()  # not a descent direction
            evals = 0
            for direction, init_step in searches:
                try:
                    step, e, fallback, f_new, g_new = wolfe_step(
                        theta, g, f, f0=parts.total, initial_step=init_step,
                        direction=direction)
                except LineSearchError as err:
                    if direction is None:
                        err.params = unpack_params(theta, report.initial)
                        err.iteration = iteration + 1
                        raise
                    step, e, fallback, f_new, g_new = 0.0, err.evals, True, parts.total, g
                evals += e
                if f_new < parts.total:
                    break
                pairs.clear()  # lowered nothing; at -g the memory is empty already
            epoch_cost += f_new

            if step > 0.0:
                if direction is None:
                    prev_step = step
                # curvature pair from the gradient at the accepted point,
                # on this same mini-batch
                theta_new = theta + step * (-g if direction is None else direction)
                s, y = theta_new - theta, g_new - g
                sy = float(s @ y)
                if sy > _EPS * float(y @ y):
                    pairs.append((s, y, 1.0 / sy))
                theta = theta_new
            iteration += 1
            report.cost_trace.append(TraceRow(
                iteration=iteration, total=parts.total, recon=parts.recon,
                jacobian=parts.jacobian, binary=parts.binary,
                step=step, evals=evals, fallback=fallback))
            # the cap, or a search of the whole uncorrupted set that lowered
            # nothing: the next would repeat it from the same point
            done = (iteration == cfg.total_iterations
                    or (not f_new < parts.total and m == 1 and mask is None))
            if done:
                break
        report.epoch_costs.append((epoch + 1, epoch_cost))
        if done:
            break

    report.wall_time = time.perf_counter() - t_start
    return unpack_params(theta, report.initial), report


def fit(X_raw: np.ndarray, cfg: TrainConfig):
    """(params, report) from raw (N, D) data: normalize, then the LSH
    projection (report None) or train, the batch clamped to N, on tangents
    at cfg.bits; the scale is set on every NetworkParams that leaves."""
    nz = fit_normalizer(X_raw)
    if not cfg.method.trained:
        return var.lsh_generate(X_raw.shape[1], cfg.bits, cfg.seed, scale=nz.scale), None
    Xn = apply_normalizer(nz, X_raw)
    cfg = replace(cfg, batch_size=min(cfg.batch_size, len(Xn)))
    try:
        # passed, not kept: train holds the only reference to the tangents
        params, report = train(Xn, estimate_all_tangents(Xn, cfg.bits)
                               if cfg.method.needs_tangents else None, cfg)
    except LineSearchError as err:
        err.params.scale = nz.scale
        raise
    params.scale = report.initial.scale = nz.scale
    return params, report

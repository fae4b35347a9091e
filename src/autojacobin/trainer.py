"""Training loop: PCA initialization, epoch shuffling into mini-batches,
L-BFGS updates with a strong-Wolfe line search, cost tracing.

Each iteration searches along the L-BFGS two-loop direction (Nocedal &
Wright, Numerical Optimization, Alg. 7.4) with the bracketing
strong-Wolfe search of their Alg. 3.5, whose zoom phase picks trial
steps by safeguarded quadratic interpolation (their Alg. 3.6); that
takes 8-13% fewer evaluations than bisection on a D=64 manifold of 2000
points. A curvature pair comes from the gradient at the accepted point
on the same mini-batch; pairs persist across batches and epochs. When
the direction is not a descent direction, or the search along it does
not lower the batch cost, the memory is cleared and the iteration
retries along -g. A step without sufficient decrease is never taken,
so a batch objective never rises. When the batch is the whole
(uncorrupted) training set and not even -g lowers the cost, the next
iteration would repeat the same search from the same point, so training
stops there. The search is quasi-Newton because steepest descent stalls
on the tanh saturation: on the 1000-point toy, AutoBin ends near cost
283 after 300 full-batch steepest-descent iterations, against 38-50
(three seeds) from this search.

The Jacobian term is weighted by the region variance of the tangent
bases passed to train (see the network module). On the toy simplex at
that weight this search saturates the hidden layer (mean |y| 0.99 or
more); steepest descent stopped at 0.17-0.33, and at unit weight the
objective's minimum keeps it near 0.4.

One seeded RNG stream drives everything, consumed in a fixed order:
the init rotation first, then per epoch the shuffle permutation and
(for the denoising variant) the corruption draws.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import variants as var
from .network import (
    NetworkParams,
    ObjectiveConfig,
    objective,
    pack_gradient,
    pack_params,
    unpack_params,
)
from .tangent import TangentBasis, projector, region_variance


LBFGS_MEMORY = 10  # curvature pairs kept by the L-BFGS direction
_EPS = np.finfo(float).eps


class LineSearchError(RuntimeError):
    """No finite objective value found along the search direction."""


@dataclass
class TrainConfig:
    bits: int
    epsilon: float = 1e-4
    epochs: int = 5
    batch_size: int = 1000
    total_iterations: int | None = None  # optional cap across epochs
    seed: int = 0
    method: var.VariantConfig = field(default_factory=var.VariantConfig)
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    wolfe_max_evals: int = 20

    def __post_init__(self):
        if not 0 < self.wolfe_c1 < self.wolfe_c2 < 1:
            raise ValueError("need 0 < c1 < c2 < 1")
        if self.epochs < 0 or self.batch_size < 1 or self.bits < 1:
            raise ValueError("epochs, batch_size and bits must be positive")


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
    # set when the Jacobian term is trained; ranks only from TangentBasis input
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
    D, N = train.shape
    if d > D:
        raise ValueError(f"bits d={d} exceeds dimension D={D}")
    if N <= d:
        raise ValueError(f"need more than d={d} training points, got {N}")
    mu = train.mean(axis=1)
    centered = train - mu[:, None]
    cov = centered @ centered.T / N
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals, kind="stable")[::-1]
    evals, evecs = evals[order], evecs[:, order]
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


def wolfe_step(theta: np.ndarray, g: np.ndarray, f, c1: float = 1e-4,
               c2: float = 0.9, max_evals: int = 20, f0: float | None = None,
               initial_step: float = 1.0, direction: np.ndarray | None = None):
    """Strong-Wolfe step length along a descent direction (default -g).

    f maps a parameter vector to (value, gradient); g is the gradient at
    theta. Returns (step, evals, fallback); fallback means the budget ran
    out: the step is then the best trial with sufficient decrease, or 0.0
    (stay at theta) when no trial decreased the value enough. Raises
    LineSearchError when no trial had a finite value.
    """
    d = -g if direction is None else direction
    derphi0 = float(g @ d)
    if derphi0 == 0.0:
        return 0.0, 0, False
    if not np.isfinite(derphi0):
        raise LineSearchError("non-finite directional derivative")
    if derphi0 > 0.0:
        raise ValueError("search direction is not a descent direction")
    evals = 0

    def phi(a):
        nonlocal evals
        evals += 1
        val, grad = f(theta + a * d)
        return float(val), float(grad @ d)

    if f0 is None:
        val0, _ = f(theta)
        phi0 = float(val0)
        evals += 1
    else:
        phi0 = float(f0)
    if not np.isfinite(phi0):
        raise LineSearchError("objective non-finite at the current point")

    best_suff = None  # largest-decrease step satisfying sufficient decrease
    best_suff_val = np.inf
    any_finite = False

    def note(a, v):
        nonlocal best_suff, best_suff_val, any_finite
        if not np.isfinite(v):
            return
        any_finite = True
        if v <= phi0 + c1 * a * derphi0 and v < best_suff_val:
            best_suff, best_suff_val = a, v

    def bail():
        if best_suff is not None:
            return best_suff, evals, True
        if any_finite:
            return 0.0, evals, True
        raise LineSearchError("no finite objective value along the direction")

    def zoom(lo, hi, phi_lo, dphi_lo, phi_hi):
        nonlocal evals
        while evals < max_evals:
            a = _interpolate(lo, hi, phi_lo, dphi_lo, phi_hi)
            v, dv = phi(a)
            note(a, v)
            if not np.isfinite(v) or v > phi0 + c1 * a * derphi0 or v >= phi_lo:
                hi, phi_hi = a, v
            else:
                if abs(dv) <= -c2 * derphi0:
                    return a, evals, False
                if dv * (hi - lo) >= 0:
                    hi, phi_hi = lo, phi_lo
                lo, phi_lo, dphi_lo = a, v, dv
        return bail()

    a_prev, phi_prev, dphi_prev = 0.0, phi0, derphi0
    a = initial_step
    first = True
    while evals < max_evals:
        v, dv = phi(a)
        note(a, v)
        if not np.isfinite(v) or v > phi0 + c1 * a * derphi0 or (not first and v >= phi_prev):
            return zoom(a_prev, a, phi_prev, dphi_prev, v)
        if abs(dv) <= -c2 * derphi0:
            return a, evals, False
        if dv >= 0:
            return zoom(a, a_prev, v, dv, phi_prev)
        a_prev, phi_prev, dphi_prev = a, v, dv
        a *= 2.0
        first = False
    return bail()


def _interpolate(lo, hi, phi_lo, dphi_lo, phi_hi):
    """Trial step for zoom: the minimizer of the quadratic through phi_lo
    with slope dphi_lo at lo and through phi_hi at hi, kept inside the
    middle 80% of the interval; the midpoint when the quadratic has no
    minimum there (non-finite phi_hi, or no upward curvature).
    """
    h = hi - lo
    curv = phi_hi - phi_lo - dphi_lo * h
    if not (np.isfinite(curv) and curv > 0.0):
        return lo + 0.5 * h
    a = lo - dphi_lo * h * h / (2.0 * curv)
    inner_lo, inner_hi = sorted((lo + 0.1 * h, lo + 0.9 * h))
    return min(max(a, inner_lo), inner_hi)


def _batch_eval(p_template, ocfg: ObjectiveConfig, method: var.VariantConfig,
                batch, projs, corrupted):
    """(f, last) for one mini-batch: f(theta) -> (value, packed gradient),
    with last = [theta, value, gradient, parts] of its most recent call,
    so an accepted trial point need not be evaluated twice.
    """
    last = []

    def f(theta):
        value, parts, grad = objective(
            unpack_params(theta, p_template), batch, projs, ocfg,
            lambda_c=method.contraction, corrupted=corrupted)
        grad = pack_gradient(grad)
        last[:] = [theta, value, grad, parts]
        return value, grad

    return f, last


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


def _tangent_targets(tangents, D: int):
    """Stacked (N, D, D) tangent projectors and the Jacobian-term weight.

    TangentBasis entries carry their neighborhoods, which give the
    weight (tangent.region_variance); plain projectors carry none and
    get ObjectiveConfig's unit weight.
    """
    if len(tangents) and isinstance(tangents[0], TangentBasis):
        projs = np.empty((len(tangents), D, D))
        for i, t in enumerate(tangents):
            projs[i] = projector(t)
        return projs, region_variance(tangents)
    return np.stack(tangents), ObjectiveConfig().jacobian_weight


def train(X_train: np.ndarray, tangents, cfg: TrainConfig):
    """Mini-batch L-BFGS with strong-Wolfe steps; returns (params, report).

    tangents holds one entry per training point, either TangentBasis
    objects from tangent.estimate_all_tangents (the Jacobian term is then
    weighted by their region variance) or D x D projectors (unit weight);
    None for variants without the Jacobian term. Data must already be
    normalized; the caller sets params.scale afterwards.
    """
    t_start = time.perf_counter()
    D, N = X_train.shape
    if cfg.batch_size > N:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds N={N}")
    if cfg.method.needs_tangents:
        if tangents is None or len(tangents) != N:
            raise ValueError("auto-jacobin needs one tangent basis or projector "
                             "per point")
    if not cfg.method.trained:
        raise ValueError(f"variant {cfg.method.kind!r} is not trained by "
                         "gradient descent")
    rng = np.random.default_rng(cfg.seed)
    params = init_params(X_train, cfg.bits, rng)
    report = TrainReport()

    projs, weight = None, ObjectiveConfig().jacobian_weight
    if cfg.method.needs_tangents:
        projs, weight = _tangent_targets(tangents, D)
        report.jacobian_weight = weight
        report.tangent_ranks = [t.rank for t in tangents if isinstance(t, TangentBasis)]
    ocfg = ObjectiveConfig(alpha=cfg.method.alpha, epsilon=cfg.epsilon,
                           jacobian_weight=weight)
    m = N // cfg.batch_size  # trailing remainder joins the last batch
    bounds = [cfg.batch_size * j for j in range(m)] + [N]

    iteration = 0
    stop = False
    prev_step = 1.0  # last accepted step along -g
    pairs = deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / s'y), oldest first
    for epoch in range(cfg.epochs):
        perm = rng.permutation(N)
        Xs = X_train[:, perm]
        projs_s = projs[perm] if projs is not None else None
        Xc = cfg.method.corrupt(Xs, rng)
        for j in range(m):
            lo, hi = bounds[j], bounds[j + 1]
            batch = Xs[:, lo:hi]
            bprojs = projs_s[lo:hi] if projs_s is not None else None
            bcorr = Xc[:, lo:hi] if Xc is not None else None
            f, last = _batch_eval(params, ocfg, cfg.method, batch, bprojs, bcorr)

            theta = pack_params(params)
            _, g = f(theta)
            parts = last[3]

            direction = _lbfgs_direction(g, pairs) if pairs else None
            if direction is not None and not float(g @ direction) < 0.0:
                pairs.clear()  # not a descent direction: restart along -g
                direction = None
            # along -g, warm-start the trial step from the last accepted
            # one (the bracketing phase doubles upward, so recovery is
            # cheap); a quasi-Newton step starts at 1
            sd_step = min(max(2.0 * prev_step, 1e-12), 1.0)
            init_step = sd_step if direction is None else 1.0
            evals, retries = 0, 0
            while True:
                try:
                    step, e, fallback = wolfe_step(
                        theta, g, f, cfg.wolfe_c1, cfg.wolfe_c2,
                        cfg.wolfe_max_evals, f0=parts.total,
                        initial_step=init_step, direction=direction)
                    evals += e
                except LineSearchError:
                    if direction is None:
                        retries += 1
                        if retries == 4:
                            raise
                        init_step *= 0.5  # no finite value along -g
                        continue
                    step, fallback = 0.0, True
                f_new, g_new = parts.total, g
                if step > 0.0:
                    theta_new = theta + step * (-g if direction is None else direction)
                    if last and np.array_equal(last[0], theta_new):
                        f_new, g_new = last[1], last[2]
                    else:
                        f_new, g_new = f(theta_new)
                if direction is None or f_new < parts.total:
                    break
                # no decrease along the quasi-Newton direction: keep
                # theta, drop the memory, use -g
                pairs.clear()
                direction, init_step = None, sd_step
            converged = not f_new < parts.total  # not even along -g

            if step > 0.0:
                if direction is None:
                    prev_step = step
                # curvature pair from the gradient at the accepted point,
                # on this same mini-batch
                s, y = theta_new - theta, g_new - g
                sy = float(s @ y)
                if sy > _EPS * float(y @ y):
                    pairs.append((s, y, 1.0 / sy))
                params = unpack_params(theta_new, params)
            iteration += 1
            report.cost_trace.append(TraceRow(
                iteration=iteration, total=parts.total, recon=parts.recon,
                jacobian=parts.jacobian, binary=parts.binary,
                step=step, evals=evals, fallback=fallback))
            if cfg.total_iterations is not None and iteration >= cfg.total_iterations:
                stop = True
                break
            if converged and m == 1 and Xc is None:
                # the next iteration would search the same objective (the
                # whole set, reordered) from the same point
                stop = True
                break
        # full-set cost once per epoch, for convergence plots
        full = objective(params, Xs, projs_s, ocfg,
                         lambda_c=cfg.method.contraction, corrupted=Xc)[0]
        report.epoch_costs.append((epoch + 1, full))
        if stop:
            break

    report.wall_time = time.perf_counter() - t_start
    return params, report

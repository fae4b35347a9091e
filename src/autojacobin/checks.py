"""Finite-difference validation of the objective's analytic gradient.

Used by the gradcheck CLI command and the test suite. Each term of a
method's objective is checked on its own, by calling that term's function
on the whole instance as one row chunk; then the total, through
objective and its row chunks. Instances are random and in the
objective's layout: an (n, D) batch of rows, (n, r, D) tangent factors
and DAutoBin's (n, D) mask. Reported errors are max over parameters of
|analytic - fd| / max(1, |fd|).
"""

from __future__ import annotations

import numpy as np

from .network import (
    NetworkParams,
    ObjectiveConfig,
    _binary_term,
    _contractive_rows,
    _inputs,
    _jacobian_term,
    _recon_rows,
    _row_work,
    forward_batch,
    objective,
    pack_params,
    unpack_params,
)
from .variants import VariantConfig


def random_instance(D: int, d: int, n: int, seed: int):
    """Random params, an (n, D) batch and an (n, min(d, D), D) stack of
    random-rank orthonormal bases, one direction per row, zero-padded to
    one height (the form fit feeds the Jacobian term)."""
    rng = np.random.default_rng(seed)
    p = NetworkParams(
        w1=0.5 * rng.standard_normal((d, D)),
        w2=0.5 * rng.standard_normal((D, d)),
        b1=0.1 * rng.standard_normal(d),
        b2=0.1 * rng.standard_normal(D),
    )
    batch = rng.uniform(-0.8, 0.8, size=(n, D))
    factors = np.zeros((n, min(d, D), D))
    for T in factors:
        r = int(rng.integers(1, d + 1))
        Q, _ = np.linalg.qr(rng.standard_normal((D, r)))  # min(r, D) columns
        T[:Q.shape[1]] = Q.T
    return p, batch, factors


def fd_gradient(f, theta: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of theta."""
    g = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (f(theta + e) - f(theta - e)) / (2.0 * h)
    return g


def _check(value_and_grad, p: NetworkParams, h: float) -> float:
    """value_and_grad(params) -> (value, gradient laid out like pack_params)."""
    analytic = value_and_grad(p)[1]
    fd = fd_gradient(lambda th: value_and_grad(unpack_params(th, p))[0],
                     pack_params(p), h)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))


def check_gradients(kind: str, D: int = 8, d: int = 4, n: int = 5,
                    seed: int = 0, alpha: float = 0.1, epsilon: float = 1e-4,
                    h: float = 1e-6) -> dict[str, float]:
    """Per-term and total max relative fd errors for one variant.

    The Jacobian-term weight is not 1, so a weight applied to the value
    but not to the gradient (or the reverse) shows up.
    """
    # DAutoBin's corruption rate and CAutoBin's contraction weight are fixed
    method = VariantConfig(kind=kind, alpha=alpha, corruption_t=0.2, lambda_c=0.01)
    if not method.trained:
        raise ValueError(f"no gradients to check for variant {kind!r}")
    p, batch, factors = random_instance(D, d, n, seed)
    cfg = ObjectiveConfig(alpha=alpha, epsilon=epsilon, jacobian_weight=0.5)
    mask = method.corrupt((n, D), np.random.default_rng(seed + 1))  # a frozen mask
    inputs = dict(
        tangents=factors if method.needs_tangents else None,
        lambda_c=method.contraction,
        corrupted=None if mask is None else np.where(mask, 0.0, batch),
    )
    Xin, rows = _inputs(batch, **inputs)
    work = _row_work(n, d, D)()
    # name: term(params, forward pass of Xin, gradient) -> value, in the
    # objective's order
    terms = {"recon": lambda q, f, g: _recon_rows(q, Xin, batch, f, g, work)}
    if rows is not None:
        terms["jacobian"] = lambda q, f, g: _jacobian_term(
            q, Xin, f, rows, cfg.jacobian_weight, g)
    if method.contraction is not None:
        terms["contractive"] = lambda q, f, g: _contractive_rows(
            q, Xin, f, method.contraction, g, work)
    terms["binary"] = lambda q, f, g: _binary_term(
        q, Xin, f, f.Y.T @ f.Y, cfg.alpha, cfg.epsilon, n, g)

    def term_value_and_grad(term, q):
        grad = np.zeros_like(pack_params(q))
        return term(q, forward_batch(q, Xin), grad), grad

    errors: dict[str, float] = {}
    for name, term in terms.items():
        errors[name] = _check(lambda q: term_value_and_grad(term, q), p, h)
    errors["total"] = _check(
        lambda q: objective(q, batch, cfg=cfg, **inputs)[::2], p, h)
    return errors

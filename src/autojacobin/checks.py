"""Finite-difference validation of the objective's analytic gradient.

Used by the gradcheck CLI command and the test suite. Each term of a
method's objective is checked on its own, then the total. Reported
errors are max over parameters of |analytic - fd| / max(1, |fd|).
"""

from __future__ import annotations

import numpy as np

from .network import (
    NetworkParams,
    ObjectiveConfig,
    _forward,
    _terms,
    objective,
    pack_params,
    unpack_params,
)
from .variants import VariantConfig


def random_instance(D: int, d: int, n: int, seed: int):
    """Random params, an (n, D) batch and tangent factors for gradient
    checking. The batch is the transposed view of a (D, n) draw, so the
    points and the objective's bits are those of one point per column.
    The factors are an (n, D, min(d, D)) stack of random-rank orthonormal
    bases zero-padded to one width, the form fit feeds the Jacobian term."""
    rng = np.random.default_rng(seed)
    p = NetworkParams(
        w1=0.5 * rng.standard_normal((d, D)),
        w2=0.5 * rng.standard_normal((D, d)),
        b1=0.1 * rng.standard_normal(d),
        b2=0.1 * rng.standard_normal(D),
    )
    batch = rng.uniform(-0.8, 0.8, size=(D, n)).T
    factors = np.zeros((n, D, min(d, D)))
    for T in factors:
        r = int(rng.integers(1, d + 1))
        Q, _ = np.linalg.qr(rng.standard_normal((D, r)))  # min(r, D) columns
        T[:, :Q.shape[1]] = Q
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
    mask = method.corrupt((D, n), np.random.default_rng(seed + 1))  # a frozen mask
    inputs = dict(
        tangents=factors if method.needs_tangents else None,
        lambda_c=method.contraction,
        corrupted=None if mask is None else np.where(mask, 0.0, batch.T).T,
    )
    Xin, terms = _terms(batch, cfg=cfg, **inputs)

    def term_value_and_grad(term, q):
        grad = np.zeros_like(pack_params(q))
        return term(q, _forward(q, Xin), grad), grad

    errors: dict[str, float] = {}
    for name, term in terms:
        errors[name] = _check(lambda q: term_value_and_grad(term, q), p, h)
    errors["total"] = _check(
        lambda q: objective(q, batch, cfg=cfg, **inputs)[::2], p, h)
    return errors

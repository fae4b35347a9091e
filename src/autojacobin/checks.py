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
    _terms,
    fd_gradient,
    forward_batch,
    objective,
    pack_gradient,
    pack_params,
    unpack_params,
)
from .variants import VariantConfig


def random_instance(D: int, d: int, n: int, seed: int):
    """Random params, batch and tangent projectors for gradient checking."""
    rng = np.random.default_rng(seed)
    p = NetworkParams(
        w1=0.5 * rng.standard_normal((d, D)),
        w2=0.5 * rng.standard_normal((D, d)),
        b1=0.1 * rng.standard_normal(d),
        b2=0.1 * rng.standard_normal(D),
    )
    batch = rng.uniform(-0.8, 0.8, size=(D, n))
    projs = []
    for _ in range(n):
        r = int(rng.integers(1, d + 1))
        Q, _ = np.linalg.qr(rng.standard_normal((D, r)))
        projs.append(Q @ Q.T)
    return p, batch, projs


def _rel_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))))


def _check(value_and_grad, p: NetworkParams, h: float) -> float:
    """value_and_grad(params) -> (value, GradientSet)."""
    analytic = pack_gradient(value_and_grad(p)[1])
    fd = fd_gradient(lambda th: value_and_grad(unpack_params(th, p))[0],
                     pack_params(p), h)
    return _rel_error(analytic, fd)


def check_gradients(kind: str, D: int = 8, d: int = 4, n: int = 5,
                    seed: int = 0, alpha: float = 0.1, epsilon: float = 1e-4,
                    h: float = 1e-6, lambda_c: float = 0.01,
                    corruption_t: float = 0.2) -> dict[str, float]:
    """Per-term and total max relative fd errors for one variant.

    The Jacobian-term weight is not 1, so a weight applied to the value
    but not to the gradient (or the reverse) shows up.
    """
    method = VariantConfig(kind=kind, alpha=alpha, corruption_t=corruption_t,
                           lambda_c=lambda_c)
    if not method.trained:
        raise ValueError(f"no gradients to check for variant {kind!r}")
    p, batch, projs = random_instance(D, d, n, seed)
    cfg = ObjectiveConfig(alpha=alpha, epsilon=epsilon, jacobian_weight=0.5)
    inputs = dict(
        tangents=projs if method.needs_tangents else None,
        lambda_c=method.contraction,
        corrupted=method.corrupt(batch, np.random.default_rng(seed + 1)),  # frozen mask
    )
    Xin, terms = _terms(batch, cfg=cfg, **inputs)

    errors: dict[str, float] = {}
    for name, term in terms:
        errors[name] = _check(lambda q: term(q, *forward_batch(q, Xin)), p, h)
    errors["total"] = _check(
        lambda q: objective(q, batch, cfg=cfg, **inputs)[::2], p, h)
    return errors

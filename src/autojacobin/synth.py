"""Synthetic desk-scale datasets: the 2-D simplex toy set and a curved
low-dimensional manifold embedded in higher dimension. Each returns its
points as the rows of an (n, D) matrix."""

from __future__ import annotations

import numpy as np

_FREQUENCY_SCALE = 1.5  # the standard deviation of Omega's entries


def simplex_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform on {x1 + x2 + x3 = 1, xi > 0}, as an (n, 3) matrix."""
    return rng.dirichlet(np.ones(3), size=n)


def curved_manifold(n: int, intrinsic_dim: int, ambient_dim: int,
                    rng: np.random.Generator, noise: float = 0.01):
    """Points on a smooth image of [0,1]^r under a random cosine map.

    x = cos(Omega t + phi) / sqrt(ambient_dim) + Gaussian noise, with a
    fixed random (ambient_dim, r) frequency matrix Omega and phases phi.
    Returns (X, params) where params regenerates the same map for more
    draws via curved_manifold_more.
    """
    omega = rng.standard_normal((ambient_dim, intrinsic_dim)) * _FREQUENCY_SCALE
    phi = rng.uniform(0.0, 2.0 * np.pi, size=ambient_dim)
    X = _cosine_map(n, omega, phi, rng, noise)
    return X, (omega, phi, noise)


def curved_manifold_more(n: int, params, rng: np.random.Generator) -> np.ndarray:
    """More draws from the same manifold map produced by curved_manifold."""
    omega, phi, noise = params
    return _cosine_map(n, omega, phi, rng, noise)


def _cosine_map(n, omega, phi, rng, noise):
    ambient_dim, intrinsic_dim = omega.shape
    t = rng.uniform(0.0, 1.0, size=(intrinsic_dim, n))
    # in place: the operations of cos(omega t + phi) / sqrt(ambient_dim)
    # + noise * E in the same order, so the same bits, with one (D, n)
    # array alive besides the noise; then one copy to rows. The rows'
    # own product t' omega' would round differently from omega t at some
    # n (1954-2500 points at D = 64 and 128)
    X = omega @ t
    X += phi[:, None]
    np.cos(X, out=X)
    X /= np.sqrt(ambient_dim)
    if noise > 0:
        E = rng.standard_normal(X.shape)
        E *= noise
        X += E
        del E
    return np.ascontiguousarray(X.T)

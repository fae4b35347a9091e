"""The trained methods and the LSH baseline.

Every gradient-trained method minimises network.objective; VariantConfig
maps a method to that function's optional inputs. Auto-JacoBin passes
tangent bases (the Jacobian term), AutoBin passes none, CAutoBin
passes lambda_c (the contractive term), and DAutoBin passes a copy of
the input corrupted by corrupt_mask. LSH is a random projection and is
not trained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkParams

KINDS = ("auto-jacobin", "autobin", "dautobin", "cautobin", "lsh")


@dataclass
class VariantConfig:
    kind: str = "auto-jacobin"
    alpha: float = 0.1
    corruption_t: float = 0.1  # dautobin only
    lambda_c: float = 0.01     # cautobin only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if not 0.0 <= self.corruption_t <= 1.0:
            raise ValueError("corruption_t must lie in [0, 1]")
        if self.lambda_c < 0:
            raise ValueError("lambda_c must be >= 0")

    @property
    def trained(self) -> bool:
        """Whether the method is trained by minimising network.objective."""
        return self.kind != "lsh"

    @property
    def needs_tangents(self) -> bool:
        """Whether the objective takes tangent bases (Jacobian term)."""
        return self.kind == "auto-jacobin"

    @property
    def contraction(self) -> float | None:
        """The objective's lambda_c: the contractive weight, or None."""
        return self.lambda_c if self.kind == "cautobin" else None

    def corrupt(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray | None:
        """The objective's corrupted input for the columns X, or None
        (drawing nothing from rng) for a method without corruption."""
        if self.kind != "dautobin":
            return None
        return corrupt_mask(X, self.corruption_t, rng)


def corrupt_mask(x: np.ndarray, t: float, rng: np.random.Generator) -> np.ndarray:
    """Zero each entry independently with probability t (r_i <= t rule)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    r = rng.uniform(0.0, 1.0, size=x.shape)
    return np.where(r <= t, 0.0, x)


def lsh_generate(D: int, d: int, seed: int, scale: float = 1.0) -> NetworkParams:
    """Random-projection baseline: W1 i.i.d. standard normal, no training."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((d, D))
    return NetworkParams(w1=w1, w2=np.zeros((D, d)), b1=np.zeros(d),
                         b2=np.zeros(D), scale=scale)

"""The trained methods and the LSH baseline.

Every gradient-trained method minimises network.objective; VariantConfig
maps a method to that function's optional inputs. Auto-JacoBin passes
tangent bases (the Jacobian term), AutoBin passes none, CAutoBin
passes lambda_c (the contractive term), and DAutoBin passes a copy of
the input with the entries of a corruption mask (draw_mask) zeroed.
The trainer draws one boolean (D, N) mask over the training set per
epoch, one column per point, and zeroes each mini-batch's points by
their columns of it as the batch is used, so no corrupted copy of the
whole set is formed. LSH is a random projection
and is not trained.
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
        if not self.lambda_c >= 0:
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

    def corrupt(self, shape: tuple[int, int],
                rng: np.random.Generator) -> np.ndarray | None:
        """The boolean (D, n) corruption mask (draw_mask) of n points of
        dimension D, one column per point, True where the objective's
        input is zeroed, or None (drawing nothing from rng) for a method
        without corruption."""
        if self.kind != "dautobin":
            return None
        return draw_mask(shape, self.corruption_t, rng)


def draw_mask(shape: tuple[int, int], t: float, rng: np.random.Generator) -> np.ndarray:
    """A boolean (D, n) mask, True for each entry independently with
    probability t (r_i <= t rule), one byte per entry. Its uniform draws
    r are those of rng.uniform(0, 1, size=(D, n)), in that order, taken
    one row at a time, so no (D, n) array of floats is formed."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    mask = np.empty(shape, dtype=bool)
    for row in mask:
        np.less_equal(rng.uniform(0.0, 1.0, size=row.size), t, out=row)
    return mask


def lsh_generate(D: int, d: int, seed: int, scale: float = 1.0) -> NetworkParams:
    """Random-projection baseline: W1 i.i.d. standard normal, no training."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((d, D))
    return NetworkParams(w1=w1, w2=np.zeros((D, d)), b1=np.zeros(d),
                         b2=np.zeros(D), scale=scale)

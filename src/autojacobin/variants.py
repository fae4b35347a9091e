"""The trained methods and the LSH baseline.

Every gradient-trained method minimises network.objective; VariantConfig
maps a method to that function's optional inputs. Auto-JacoBin passes
tangent bases (the Jacobian term), AutoBin passes none, CAutoBin
passes lambda_c (the contractive term), and DAutoBin passes a copy of
the input with the entries of a corruption mask (draw_mask) zeroed.
The trainer draws one boolean (N, D) mask over the training set per
epoch, one row per point, and zeroes each mini-batch's points by their
rows of it as the batch is used, so no corrupted copy of the whole set
is formed. LSH is a random projection and is not trained.
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
        """The boolean (n, D) corruption mask (draw_mask) of n points of
        dimension D, one row per point, True where the objective's
        input is zeroed, or None (drawing nothing from rng) for a method
        without corruption."""
        if self.kind != "dautobin":
            return None
        return draw_mask(shape, self.corruption_t, rng)


# draws per block of draw_mask's rows, 256 KiB: one row at a time took 69
# against 10 ms per 20000 x 128 mask, and 2^18 draws are half of 16000 x 32
_MASK_DRAWS = 32768


def draw_mask(shape: tuple[int, int], t: float, rng: np.random.Generator) -> np.ndarray:
    """A boolean (n, D) mask, True for each entry independently with
    probability t (r_i <= t rule), one byte per entry. Its uniform draws
    r are those of rng.uniform(0, 1, size=(n, D)), in that order, taken
    in blocks of rows of at most _MASK_DRAWS draws (one row if a row is
    longer), so no (n, D) array of floats is formed."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    mask = np.empty(shape, dtype=bool)
    rows = max(1, _MASK_DRAWS // max(1, shape[1]))
    for block in np.split(mask, range(rows, shape[0], rows)):
        np.less_equal(rng.uniform(0.0, 1.0, size=block.shape), t, out=block)
    return mask


def lsh_generate(D: int, d: int, seed: int, scale: float = 1.0) -> NetworkParams:
    """Random-projection baseline: W1 i.i.d. standard normal, no training."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((d, D))
    return NetworkParams(w1=w1, w2=np.zeros((D, d)), b1=np.zeros(d),
                         b2=np.zeros(D), scale=scale)

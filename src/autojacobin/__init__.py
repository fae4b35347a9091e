"""Binary hashing with a tangent-projector Jacobian regularizer.

Vectors are stored column-per-point: a data matrix is a D x N float64
array whose j-th column is the j-th point. All file formats are
little-endian; see matrix_io for the layouts.
"""

__version__ = "0.1.0"

from .matrix_io import (
    FormatError,
    Normalizer,
    apply_normalizer,
    fit_normalizer,
    read_bvecs,
    read_fvecs,
    read_txt,
    write_bvecs,
    write_fvecs,
    write_txt,
)
from .network import NetworkParams, ObjectiveConfig, forward, jacobian, objective

__all__ = [
    "FormatError",
    "Normalizer",
    "NetworkParams",
    "ObjectiveConfig",
    "apply_normalizer",
    "fit_normalizer",
    "forward",
    "jacobian",
    "objective",
    "read_bvecs",
    "read_fvecs",
    "read_txt",
    "write_bvecs",
    "write_fvecs",
    "write_txt",
]

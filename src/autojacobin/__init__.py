"""Binary hashing with a tangent-projector Jacobian regularizer.

Vectors are stored column-per-point: a data matrix is a D x N float64
array whose j-th column is the j-th point. All file formats are
little-endian; see matrix_io for the layouts.
"""

__version__ = "0.1.0"

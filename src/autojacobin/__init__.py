"""Binary hashing with a tangent-projector Jacobian regularizer.

Points are rows: a data matrix is an N x D float64 array, C-ordered,
whose i-th row is the i-th point, as in the files. All file formats are
little-endian; see matrix_io for the layouts.
"""

__version__ = "0.1.0"

"""Dataset ingestion (fvecs/bvecs/txt), normalization, and binary persistence.

All matrices are row-per-point: shape (N, D), float64, C order. Row i is
the file's record or line i. Formats:

  fvecs: repeated [int32 dim LE][dim x float32 LE]
  bvecs: repeated [int32 dim LE][dim x uint8]
  txt:   one whitespace-separated vector per line
  .ajb:  magic "AJBN", uint32 version=1, uint32 D, uint32 d, float64 scale,
         row-major float64 LE blocks W1 (d x D), W2 (D x d), b1 (d), b2 (D)
  .ajbc: magic "AJBC", uint32 bits, uint64 N, per point ceil(bits/8) bytes,
         bit j at byte j//8 position j%8 (LSB-first), 1 means +1, padding
         bits after bit `bits` zero
  .ajbg: magic "AJBG", uint32 k, uint32 Q, per query k uint32 indices

Vector readers raise a FormatError naming the file for a record or line
that breaks the layout and for a non-finite entry. Binary readers raise
one for, in order: a foreign magic, a cut header, a version other than
1, zero bits, D, d or k, a size the header does not give, non-finite
model values, set padding bits. Binary writes are atomic: a temporary
file renamed over the target.

A record file is read a block of records at a time into one reused
(rows, record bytes) matrix, its payloads a view of it, so the points
are its rows as they are and the file's bytes are never all in memory
beside the (N, D) result. The finiteness test and fit_normalizer's row
norms also walk the rows in blocks, so no N x D temporary is formed.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """Malformed vector/model/codes file."""


class DegenerateScaleError(ValueError):
    """fit_normalizer on a matrix whose largest row norm is zero or does
    not come out of float64: all-zero rows, or squares that overflow or
    underflow."""


# a block of rows spans this many bytes of the float64 matrix; the loops
# over blocks of rows (the readers, the finiteness test, the row norms)
# hold work arrays of at most about this size
_BLOCK_BYTES = 1 << 20


def _block_rows(D: int) -> int:
    """Rows in a block of an (N, D) float64 matrix: at least one."""
    return max(1, _BLOCK_BYTES // (8 * max(1, D)))


def _row_blocks(X: np.ndarray):
    """Consecutive views of X's rows, _block_rows of them each."""
    step = _block_rows(X.shape[1])
    return (X[lo:lo + step] for lo in range(0, len(X), step))


def _check_matrix(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got ndim={X.ndim}")
    if not all(np.isfinite(b).all() for b in _row_blocks(X)):
        bad = sum(b.size - np.count_nonzero(np.isfinite(b)) for b in _row_blocks(X))
        raise ValueError(f"matrix has {bad} non-finite entries (NaN or inf)")
    return X


def _checked_read(path, X: np.ndarray) -> np.ndarray:
    try:
        return _check_matrix(X)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def _read_records(path, payload_dtype):
    """Parse a file of [int32 dim][dim payload values] records.

    The first header gives the record length. The records are then read
    a block of rows at a time into one reused byte matrix, one row per
    record; each block's headers are checked together and its payloads,
    viewed in place, are widened into their rows of the (N, D) float64
    result. A file that does not split into equal records is walked
    record by record to name its first fault.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if not size:
            return np.zeros((0, 0))
        head = f.read(4)
        dim = int.from_bytes(head, "little", signed=True) if len(head) == 4 else 0
        record = 4 + dim * payload_dtype.itemsize
        if dim <= 0 or size % record:
            raise _first_fault(path, payload_dtype.itemsize)
        X = np.empty((size // record, dim))
        buf = np.empty((min(_block_rows(dim), len(X)), record), dtype=np.uint8)
        f.seek(0)
        for rows in _row_blocks(X):
            records = buf[:len(rows)]
            if (f.readinto(records) != records.nbytes
                    or np.any(records[:, :4].view("<i4") != dim)):
                raise _first_fault(path, payload_dtype.itemsize)
            rows[:] = records[:, 4:].view(payload_dtype)
    return _checked_read(path, X)


def _first_fault(path, payload_itemsize) -> FormatError:
    """The error for the first record of the file at path that breaks the
    layout, walked through a read-only map of the file.

    Only called on a non-empty file that is not whole records of one
    dimension, so the walk always stops at a fault.
    """
    with open(path, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as raw:
        dim = None
        off = 0
        while True:
            if off + 4 > len(raw):
                return FormatError(f"{path}: truncated dimension header at byte {off}")
            (d,) = struct.unpack_from("<i", raw, off)
            if d <= 0:
                return FormatError(f"{path}: non-positive record dim {d}")
            if dim is None:
                dim = d
            elif d != dim:
                return FormatError(f"{path}: inconsistent dims {dim} vs {d}")
            off += 4
            nbytes = d * payload_itemsize
            if off + nbytes > len(raw):
                return FormatError(f"{path}: truncated record payload at byte {off}")
            off += nbytes


def read_fvecs(path) -> np.ndarray:
    """Read an fvecs file into an (N, D) float64 matrix."""
    return _read_records(path, np.dtype("<f4"))


def read_bvecs(path) -> np.ndarray:
    """Read a bvecs file; bytes are widened to float64 in [0, 255]."""
    return _read_records(path, np.dtype(np.uint8))


def _write_records(path, X: np.ndarray, payload_dtype) -> None:
    """Write [int32 D][D payload values] records, one per row of X, laid
    out as one byte matrix whose payloads are filled through a view."""
    N, D = X.shape
    records = np.empty((N, 4 + D * payload_dtype.itemsize), dtype=np.uint8)
    records[:, :4].view("<i4")[:] = D
    records[:, 4:].view(payload_dtype)[:] = X
    records.tofile(path)


def write_fvecs(path, X: np.ndarray) -> None:
    try:  # an entry the float32 cast makes infinite raises before a byte is written
        with np.errstate(over="raise"):
            _write_records(path, _check_matrix(X), np.dtype("<f4"))
    except FloatingPointError:
        raise ValueError("fvecs entries must lie in float32's range "
                         "[-3.4028235e+38, 3.4028235e+38]") from None


def write_bvecs(path, X: np.ndarray) -> None:
    X = _check_matrix(X)
    if X.size and (X.min() < 0 or X.max() > 255):
        raise ValueError("bvecs entries must lie in [0, 255]")
    _write_records(path, np.rint(X), np.dtype(np.uint8))


def read_txt(path) -> np.ndarray:
    """Read one whitespace-separated vector per line into an (N, D) matrix."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            try:
                row = [float(tok) for tok in line.split()]
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from None
            if not row:
                continue
            if rows and len(row) != len(rows[0]):
                raise FormatError(f"{path}:{lineno}: inconsistent dims "
                                  f"{len(rows[0])} vs {len(row)}")
            rows.append(row)
    return _checked_read(path, np.array(rows)) if rows else np.zeros((0, 0))


def write_txt(path, X: np.ndarray) -> None:
    X = _check_matrix(X)
    with open(path, "w") as f:
        for x in X:
            f.write(" ".join(repr(float(v)) for v in x) + "\n")


def fit_normalizer(train: np.ndarray) -> float:
    """The scale 0.8 / max row norm of the training matrix.

    Each norm is sqrt(add.reduce(x * x)) of its row, the bits of
    np.linalg.norm(train, axis=1), over one block of rows at a time. A
    norm whose square overflows float64, or a matrix with a nonzero entry
    whose every square underflows to zero, raises DegenerateScaleError
    naming it, as an all-zero matrix does.
    """
    train = _check_matrix(train)
    if train.size == 0:
        raise ValueError("cannot fit normalizer on an empty matrix")
    with np.errstate(over="ignore", under="ignore"):  # told apart below
        max_norm = max(float(np.sqrt(np.add.reduce(b * b, axis=1)).max())
                       for b in _row_blocks(train))
    if 0.0 < max_norm < math.inf:
        return 0.8 / max_norm
    largest = float(max(train.max(), -train.min()))
    if max_norm == math.inf:
        raise DegenerateScaleError(
            f"the squared row norms overflow float64 (largest entry magnitude "
            f"{largest:.3g}); scale the data down")
    if largest > 0.0:
        raise DegenerateScaleError(
            f"the squared row norms underflow float64 to zero (largest entry "
            f"magnitude {largest:.3g}); scale the data up")
    raise DegenerateScaleError("all-zero training matrix")


# --- binary files: (magic, name, header format and fields, payload dtype) ---
_AJB = b"AJBN", "model", "<IIId", ("version", "D", "d", "scale"), "<f8"
_AJBC = b"AJBC", "codes", "<IQ", ("bits", "count"), np.uint8
_AJBG = b"AJBG", "ground-truth", "<II", ("k", "Q"), "<u4"


def _write_file(path, form, fields, *arrays) -> None:
    magic, _, fmt, _, dtype = form
    tmp = Path(path).with_name(f".{Path(path).name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(magic + struct.pack(fmt, *fields))
            f.writelines(np.asarray(a, dtype).tobytes() for a in arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_file(path, form, payload_shape):
    """(header fields, payload of shape payload_shape(**header)), checked."""
    magic, what, fmt, names, dtype = form
    raw = Path(path).read_bytes()
    end = 4 + struct.calcsize(fmt)
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad {what} magic {raw[:4]!r}")
    if len(raw) < end:
        raise FormatError(f"{path}: {what} header cut at {len(raw)} of {end} bytes")
    header = dict(zip(names, struct.unpack_from(fmt, raw, 4)))
    if header.get("version", 1) != 1:
        raise FormatError(f"{path}: unsupported {what} version {header['version']}")
    for name in ("bits", "D", "d", "k"):
        if header.get(name, 1) < 1:
            raise FormatError(f"{path}: {what} header has {name} = 0, expected at least 1")
    shape = payload_shape(**header)
    expect = end + np.dtype(dtype).itemsize * math.prod(shape)
    if len(raw) != expect:
        raise FormatError(f"{path}: {what} size {len(raw)}, expected {expect}")
    return tuple(header.values()), np.frombuffer(raw, dtype, offset=end).reshape(shape).copy()


def write_model(path, params) -> None:
    d, D = params.w1.shape
    _write_file(path, _AJB, (1, D, d, params.scale), params.w1, params.w2, params.b1, params.b2)


def read_model(path):
    from .network import NetworkParams

    (_, D, d, scale), flat = _read_file(path, _AJB, lambda D, d, **_: (2 * d * D + d + D,))
    if not (np.isfinite(flat).all() and math.isfinite(scale)):
        raise FormatError(f"{path}: model has non-finite weights or scale")
    w1, w2, b1, b2 = np.split(flat, np.cumsum([d * D, D * d, d]))
    return NetworkParams(w1.reshape(d, D), w2.reshape(D, d), b1, b2, scale)


def write_codes(path, codes) -> None:
    _write_file(path, _AJBC, (codes.bits, codes.count), codes.packed)


def read_codes(path):
    from .hamming import BinaryCodes

    (bits, count), packed = _read_file(path, _AJBC, lambda bits, count: (count, (bits + 7) // 8))
    try:
        return BinaryCodes(bits=bits, count=count, packed=packed)
    except ValueError as e:  # set padding bits would count as distance
        raise FormatError(f"{path}: {e}") from None


def write_groundtruth(path, gt: np.ndarray) -> None:
    Q, k = np.shape(gt)
    _write_file(path, _AJBG, (k, Q), gt)


def read_groundtruth(path) -> np.ndarray:
    return _read_file(path, _AJBG, lambda k, Q: (Q, k))[1]

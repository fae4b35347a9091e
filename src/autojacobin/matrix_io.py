"""Dataset ingestion (fvecs/bvecs/txt), normalization, and binary persistence.

All matrices are column-per-point: shape (D, N), float64. File record
order maps to column order. Formats:

  fvecs: repeated [int32 dim LE][dim x float32 LE]
  bvecs: repeated [int32 dim LE][dim x uint8]
  txt:   one whitespace-separated vector per line
  .ajb:  magic "AJBN", uint32 version=1, uint32 D, uint32 d, float64 scale,
         row-major float64 LE blocks W1 (d x D), W2 (D x d), b1 (d), b2 (D)
  .ajbc: magic "AJBC", uint32 bits, uint64 N, per point ceil(bits/8) bytes,
         bit j at byte j//8 position j%8 (LSB-first), 1 means +1, padding
         bits after bit `bits` zero
  .ajbg: magic "AJBG", uint32 k, uint32 Q, per query k uint32 indices
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


class FormatError(ValueError):
    """Malformed vector/model/codes file."""


class DegenerateScaleError(ValueError):
    """Normalizer fit on an all-zero matrix."""


def _check_matrix(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got ndim={X.ndim}")
    if not np.isfinite(X).all():
        bad = np.count_nonzero(~np.isfinite(X))
        raise ValueError(f"matrix has {bad} non-finite entries (NaN or inf)")
    return X


def _read_records(path, payload_dtype):
    """Parse a file of [int32 dim][dim payload values] records in one pass.

    The file is read once and reshaped to one row per record; the headers
    are checked together and the payloads, viewed in place, are widened
    into the (D, N) float64 result. A file that does not split into equal
    records is walked record by record to name its first fault.
    """
    raw = np.fromfile(path, dtype=np.uint8)
    if not raw.size:
        return np.zeros((0, 0))
    dim = int(raw[:4].view("<i4")[0]) if raw.size >= 4 else 0
    record = 4 + dim * payload_dtype.itemsize
    if dim <= 0 or raw.size % record:
        raise _first_fault(path, raw, payload_dtype.itemsize)
    records = raw.reshape(-1, record)
    if np.any(records[:, :4].view("<i4") != dim):
        raise _first_fault(path, raw, payload_dtype.itemsize)
    X = np.empty((dim, records.shape[0]))
    X[...] = records[:, 4:].view(payload_dtype).T
    return _check_matrix(X)


def _first_fault(path, raw, payload_itemsize) -> FormatError:
    """The error for the first record of raw that breaks the layout.

    Only called on a file that is not whole records of one dimension, so
    the walk always stops at a fault.
    """
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
    """Read an fvecs file into a (D, N) float64 matrix."""
    return _read_records(path, np.dtype("<f4"))


def read_bvecs(path) -> np.ndarray:
    """Read a bvecs file; bytes are widened to float64 in [0, 255]."""
    return _read_records(path, np.dtype(np.uint8))


def _write_records(path, D: int, payload: np.ndarray) -> None:
    """Write [int32 D][D payload values] records, one per row of payload."""
    rec = np.empty(len(payload), dtype=[("dim", "<i4"), ("v", payload.dtype, (D,))])
    rec["dim"] = D
    rec["v"] = payload
    rec.tofile(path)


def write_fvecs(path, X: np.ndarray) -> None:
    X = _check_matrix(X)
    _write_records(path, X.shape[0], X.T.astype("<f4"))


def write_bvecs(path, X: np.ndarray) -> None:
    X = _check_matrix(X)
    if X.size and (X.min() < 0 or X.max() > 255):
        raise ValueError("bvecs entries must lie in [0, 255]")
    _write_records(path, X.shape[0], np.rint(X.T).astype(np.uint8))


def read_txt(path) -> np.ndarray:
    """Read one whitespace-separated vector per line into a (D, N) matrix."""
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split()])
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from None
    if not rows:
        return np.zeros((0, 0))
    dim = len(rows[0])
    for lineno, r in enumerate(rows, 1):
        if len(r) != dim:
            raise FormatError(f"{path}: inconsistent dims {dim} vs {len(r)}")
    return _check_matrix(np.array(rows).T)


def write_txt(path, X: np.ndarray) -> None:
    X = _check_matrix(X)
    with open(path, "w") as f:
        for j in range(X.shape[1]):
            f.write(" ".join(repr(float(v)) for v in X[:, j]) + "\n")


@dataclass(frozen=True)
class Normalizer:
    """Scale factor bringing the max training-column norm to 0.8."""

    scale: float


def fit_normalizer(train: np.ndarray) -> Normalizer:
    """scale = 0.8 / max column norm of the training matrix."""
    train = _check_matrix(train)
    if train.size == 0:
        raise ValueError("cannot fit normalizer on an empty matrix")
    max_norm = float(np.linalg.norm(train, axis=0).max())
    if max_norm <= 0.0:
        raise DegenerateScaleError("all-zero training matrix")
    return Normalizer(scale=0.8 / max_norm)


def apply_normalizer(nz: Normalizer, X: np.ndarray) -> np.ndarray:
    """Multiply every entry by nz.scale. Norms above 0.8 are allowed."""
    return _check_matrix(X) * nz.scale


# --- model file (.ajb) ---

_AJB_MAGIC = b"AJBN"
_AJB_VERSION = 1


def write_model(path, params) -> None:
    w1, w2, b1, b2 = params.w1, params.w2, params.b1, params.b2
    d, D = w1.shape
    with open(path, "wb") as f:
        f.write(_AJB_MAGIC)
        f.write(struct.pack("<II", _AJB_VERSION, D))
        f.write(struct.pack("<I", d))
        f.write(struct.pack("<d", params.scale))
        f.write(np.ascontiguousarray(w1, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(w2, dtype="<f8").tobytes())
        f.write(np.asarray(b1, dtype="<f8").tobytes())
        f.write(np.asarray(b2, dtype="<f8").tobytes())


def read_model(path):
    from .network import NetworkParams

    raw = open(path, "rb").read()
    if raw[:4] != _AJB_MAGIC:
        raise FormatError(f"{path}: bad model magic {raw[:4]!r}")
    version, D, d = struct.unpack_from("<III", raw, 4)
    if version != _AJB_VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    (scale,) = struct.unpack_from("<d", raw, 16)
    off = 24
    expect = off + 8 * (d * D + D * d + d + D)
    if len(raw) != expect:
        raise FormatError(f"{path}: model size {len(raw)}, expected {expect}")

    def block(n, shape):
        nonlocal off
        a = np.frombuffer(raw, dtype="<f8", count=n, offset=off).copy()
        off += 8 * n
        return a.reshape(shape)

    w1 = block(d * D, (d, D))
    w2 = block(D * d, (D, d))
    b1 = block(d, (d,))
    b2 = block(D, (D,))
    return NetworkParams(w1=w1, w2=w2, b1=b1, b2=b2, scale=scale)


# --- codes file (.ajbc) ---

_AJBC_MAGIC = b"AJBC"


def write_codes(path, codes) -> None:
    with open(path, "wb") as f:
        f.write(_AJBC_MAGIC)
        f.write(struct.pack("<IQ", codes.bits, codes.count))
        f.write(codes.packed.tobytes())


def read_codes(path):
    from .hamming import BinaryCodes

    raw = open(path, "rb").read()
    if raw[:4] != _AJBC_MAGIC:
        raise FormatError(f"{path}: bad codes magic {raw[:4]!r}")
    bits, count = struct.unpack_from("<IQ", raw, 4)
    nbytes = (bits + 7) // 8
    expect = 16 + count * nbytes
    if len(raw) != expect:
        raise FormatError(f"{path}: codes size {len(raw)}, expected {expect}")
    packed = np.frombuffer(raw, dtype=np.uint8, offset=16).copy().reshape(count, nbytes)
    try:
        return BinaryCodes(bits=bits, count=count, packed=packed)
    except ValueError as e:  # set padding bits would count as distance
        raise FormatError(f"{path}: {e}") from None


# --- ground truth (.ajbg) ---

_AJBG_MAGIC = b"AJBG"


def write_groundtruth(path, gt: np.ndarray) -> None:
    gt = np.asarray(gt, dtype=np.uint32)
    Q, k = gt.shape
    with open(path, "wb") as f:
        f.write(_AJBG_MAGIC)
        f.write(struct.pack("<II", k, Q))
        f.write(np.ascontiguousarray(gt, dtype="<u4").tobytes())


def read_groundtruth(path) -> np.ndarray:
    raw = open(path, "rb").read()
    if raw[:4] != _AJBG_MAGIC:
        raise FormatError(f"{path}: bad ground-truth magic {raw[:4]!r}")
    k, Q = struct.unpack_from("<II", raw, 4)
    expect = 12 + 4 * k * Q
    if len(raw) != expect:
        raise FormatError(f"{path}: ground-truth size {len(raw)}, expected {expect}")
    return np.frombuffer(raw, dtype="<u4", offset=12).copy().reshape(Q, k)

import struct

import numpy as np
import pytest

from autojacobin import matrix_io
from autojacobin.matrix_io import DegenerateScaleError, FormatError, fit_normalizer, apply_normalizer
from autojacobin.network import NetworkParams


def test_read_fvecs_single_record(tmp_path):
    p = tmp_path / "a.fvecs"
    p.write_bytes(struct.pack("<i", 2) + struct.pack("<ff", 1.0, 2.0))
    X = matrix_io.read_fvecs(p)
    assert X.shape == (2, 1)
    np.testing.assert_array_equal(X, [[1.0], [2.0]])


def test_read_fvecs_empty_file(tmp_path):
    p = tmp_path / "empty.fvecs"
    p.write_bytes(b"")
    X = matrix_io.read_fvecs(p)
    assert X.size == 0


def test_read_fvecs_inconsistent_dims(tmp_path):
    p = tmp_path / "bad.fvecs"
    p.write_bytes(struct.pack("<i", 2) + struct.pack("<ff", 0, 0)
                  + struct.pack("<i", 3) + struct.pack("<fff", 0, 0, 0))
    with pytest.raises(FormatError):
        matrix_io.read_fvecs(p)


def test_read_fvecs_truncated(tmp_path):
    p = tmp_path / "trunc.fvecs"
    p.write_bytes(struct.pack("<i", 4) + struct.pack("<ff", 1, 2))
    with pytest.raises(FormatError):
        matrix_io.read_fvecs(p)


def test_read_fvecs_nonpositive_dim(tmp_path):
    p = tmp_path / "neg.fvecs"
    p.write_bytes(struct.pack("<i", -1))
    with pytest.raises(FormatError):
        matrix_io.read_fvecs(p)


def _parse_records(path, payload_format, itemsize):
    """(D, N) float64 from an fvecs/bvecs file, one record at a time."""
    raw = path.read_bytes()
    columns, off = [], 0
    while off < len(raw):
        (d,) = struct.unpack_from("<i", raw, off)
        columns.append(struct.unpack_from(f"<{d}{payload_format}", raw, off + 4))
        off += 4 + d * itemsize
    return np.array(columns, dtype=np.float64).T


@pytest.mark.parametrize("D,N", [(1, 1), (3, 1), (1, 7), (5, 12), (64, 300)])
def test_readers_match_record_by_record_parse(tmp_path, D, N):
    rng = np.random.default_rng(D * 1000 + N)
    f, b = tmp_path / "a.fvecs", tmp_path / "a.bvecs"
    matrix_io.write_fvecs(f, rng.standard_normal((D, N)))
    matrix_io.write_bvecs(b, rng.integers(0, 256, size=(D, N)).astype(float))
    for X, ref in ((matrix_io.read_fvecs(f), _parse_records(f, "f", 4)),
                   (matrix_io.read_bvecs(b), _parse_records(b, "B", 1))):
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert X.shape == (D, N)
        np.testing.assert_array_equal(X, ref)


@pytest.mark.parametrize("header,message", [(5, "inconsistent dims 2 vs 5"),
                                            (0, "non-positive record dim 0")])
@pytest.mark.parametrize("reader,payload", [(matrix_io.read_fvecs, "<ff"),
                                            (matrix_io.read_bvecs, "<BB")])
def test_read_whole_records_with_one_bad_header(tmp_path, reader, payload,
                                                header, message):
    # three records of equal length: only the header check can see the fault
    p = tmp_path / "bad.vecs"
    p.write_bytes(struct.pack("<i", 2) + struct.pack(payload, 1, 2)
                  + struct.pack("<i", 2) + struct.pack(payload, 3, 4)
                  + struct.pack("<i", header) + struct.pack(payload, 5, 6))
    with pytest.raises(FormatError, match=message):
        reader(p)


def test_read_bvecs_values(tmp_path):
    p = tmp_path / "a.bvecs"
    p.write_bytes(struct.pack("<i", 4) + bytes([0x00, 0x7F, 0xFF, 0x01]))
    X = matrix_io.read_bvecs(p)
    np.testing.assert_array_equal(X[:, 0], [0, 127, 255, 1])


def test_bvecs_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.integers(0, 256, size=(7, 10)).astype(float)
    p = tmp_path / "r.bvecs"
    matrix_io.write_bvecs(p, X)
    np.testing.assert_array_equal(matrix_io.read_bvecs(p), X)


def test_fvecs_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 12)).astype(np.float32).astype(np.float64)
    p1, p2 = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
    matrix_io.write_fvecs(p1, X)
    matrix_io.write_fvecs(p2, matrix_io.read_fvecs(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_txt_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 9))
    p = tmp_path / "v.txt"
    matrix_io.write_txt(p, X)
    np.testing.assert_array_equal(matrix_io.read_txt(p), X)


def test_txt_ragged_rows_rejected(tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("1 2 3\n4 5\n")
    with pytest.raises(FormatError):
        matrix_io.read_txt(p)


def test_fit_normalizer_values():
    nz = fit_normalizer(np.array([[3.0], [4.0]]))
    assert nz.scale == pytest.approx(0.16)
    nz = fit_normalizer(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert nz.scale == pytest.approx(0.4)


def test_normalized_max_norm_is_08():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((6, 40)) * 3.0
    nz = fit_normalizer(X)
    Xn = apply_normalizer(nz, X)
    assert abs(np.linalg.norm(Xn, axis=0).max() - 0.8) < 1e-12


def test_normalizer_degenerate_and_round_trip():
    with pytest.raises(DegenerateScaleError):
        fit_normalizer(np.zeros((3, 4)))
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3, 5))
    nz = fit_normalizer(X)
    np.testing.assert_allclose(apply_normalizer(nz, X) / nz.scale, X, atol=1e-12)


def _random_params(rng, D, d):
    return NetworkParams(w1=rng.standard_normal((d, D)),
                         w2=rng.standard_normal((D, d)),
                         b1=rng.standard_normal(d),
                         b2=rng.standard_normal(D),
                         scale=float(rng.uniform(0.1, 2.0)))


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    p = _random_params(rng, 6, 4)
    path = tmp_path / "m.ajb"
    matrix_io.write_model(path, p)
    q = matrix_io.read_model(path)
    np.testing.assert_array_equal(q.w1, p.w1)
    np.testing.assert_array_equal(q.w2, p.w2)
    np.testing.assert_array_equal(q.b1, p.b1)
    np.testing.assert_array_equal(q.b2, p.b2)
    assert q.scale == p.scale


def test_model_bad_magic(tmp_path):
    path = tmp_path / "junk.ajb"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(FormatError):
        matrix_io.read_model(path)


def test_model_truncated(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "short.ajb"
    matrix_io.write_model(path, _random_params(rng, 5, 3))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        matrix_io.read_model(path)


def test_codes_round_trip(tmp_path):
    from autojacobin.hamming import BinaryCodes
    rng = np.random.default_rng(10)
    bits, n = 11, 17
    packed = np.packbits(rng.integers(0, 2, size=(n, bits)).astype(np.uint8),
                         axis=1, bitorder="little")
    codes = BinaryCodes(bits=bits, count=n, packed=packed)
    path = tmp_path / "c.ajbc"
    matrix_io.write_codes(path, codes)
    back = matrix_io.read_codes(path)
    assert back.bits == bits and back.count == n
    np.testing.assert_array_equal(back.packed, packed)


def test_read_codes_rejects_set_padding_bits(tmp_path):
    from autojacobin.hamming import BinaryCodes, hamming_topk
    bits, n = 11, 4
    packed = np.packbits(np.random.default_rng(13).integers(0, 2, size=(n, bits))
                         .astype(np.uint8), axis=1, bitorder="little")
    packed[2] = packed[0]
    path = tmp_path / "c.ajbc"
    matrix_io.write_codes(path, BinaryCodes(bits=bits, count=n, packed=packed))
    assert list(hamming_topk(matrix_io.read_codes(path), packed[0], 2)) == [0, 2]
    raw = bytearray(path.read_bytes())
    raw[16 + 2 * 2 + 1] |= 0b1111_1000  # point 2's five padding bits
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="point 2 has padding bits set"):
        matrix_io.read_codes(path)


def test_groundtruth_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    gt = rng.integers(0, 1000, size=(8, 5)).astype(np.uint32)
    path = tmp_path / "g.ajbg"
    matrix_io.write_groundtruth(path, gt)
    np.testing.assert_array_equal(matrix_io.read_groundtruth(path), gt)

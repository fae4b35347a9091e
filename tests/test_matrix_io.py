import struct
import tracemalloc

import numpy as np
import pytest

from autojacobin import matrix_io
from autojacobin.matrix_io import DegenerateScaleError, FormatError, fit_normalizer
from autojacobin.network import NetworkParams

F32_MAX = float(np.finfo(np.float32).max)


def test_read_fvecs_single_record(tmp_path):
    p = tmp_path / "a.fvecs"
    p.write_bytes(struct.pack("<i", 2) + struct.pack("<ff", 1.0, 2.0))
    X = matrix_io.read_fvecs(p)
    assert X.shape == (1, 2)
    np.testing.assert_array_equal(X, [[1.0, 2.0]])


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
    """(N, D) float64 from an fvecs/bvecs file, one record at a time."""
    raw = path.read_bytes()
    rows, off = [], 0
    while off < len(raw):
        (d,) = struct.unpack_from("<i", raw, off)
        rows.append(struct.unpack_from(f"<{d}{payload_format}", raw, off + 4))
        off += 4 + d * itemsize
    return np.array(rows, dtype=np.float64)


@pytest.mark.parametrize("D,N", [(1, 1), (3, 1), (1, 7), (5, 12), (64, 300)])
def test_readers_match_record_by_record_parse(tmp_path, D, N):
    rng = np.random.default_rng(D * 1000 + N)
    f, b = tmp_path / "a.fvecs", tmp_path / "a.bvecs"
    matrix_io.write_fvecs(f, rng.standard_normal((D, N)).T)
    matrix_io.write_bvecs(b, rng.integers(0, 256, size=(D, N)).astype(float).T)
    for X, ref in ((matrix_io.read_fvecs(f), _parse_records(f, "f", 4)),
                   (matrix_io.read_bvecs(b), _parse_records(b, "B", 1))):
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert X.shape == (N, D)
        np.testing.assert_array_equal(X, ref)


@pytest.mark.parametrize("N", [1023, 1024, 1025, 2085])
def test_readers_match_record_by_record_parse_across_tiles(tmp_path, N):
    # records written by struct, not by the writers under test
    rng = np.random.default_rng(N)
    D = 3
    F = rng.standard_normal((D, N)).astype(np.float32)
    B = rng.integers(0, 256, size=(D, N))
    f, b = tmp_path / "a.fvecs", tmp_path / "a.bvecs"
    f.write_bytes(b"".join(struct.pack(f"<i{D}f", D, *F[:, j]) for j in range(N)))
    b.write_bytes(b"".join(struct.pack(f"<i{D}B", D, *B[:, j]) for j in range(N)))
    for X, ref in ((matrix_io.read_fvecs(f), _parse_records(f, "f", 4)),
                   (matrix_io.read_bvecs(b), _parse_records(b, "B", 1))):
        assert X.shape == (N, D)
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


@pytest.mark.parametrize("header,message", [(5, "inconsistent dims 4 vs 5"),
                                            (-1, "non-positive record dim -1")])
def test_a_bad_header_past_the_first_block_is_named(tmp_path, header, message):
    # the records are read a block at a time, and the walk that names the
    # fault starts from the file's first byte
    D = 4
    rows = matrix_io._block_rows(D)
    records = np.zeros((2 * rows + 3, 4 + 4 * D), dtype=np.uint8)
    records[:, :4].view("<i4")[:] = D
    records[rows + 7, :4].view("<i4")[:] = header
    p = tmp_path / "bad.fvecs"
    records.tofile(p)
    with pytest.raises(FormatError, match=message):
        matrix_io.read_fvecs(p)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("write,read", [(matrix_io.write_fvecs, matrix_io.read_fvecs),
                                        (matrix_io.write_bvecs, matrix_io.read_bvecs)])
def test_readers_hold_the_result_and_one_block(tmp_path, write, read):
    # the records are widened a block of rows at a time from one reused
    # byte matrix, and the finiteness test takes a block of flags; reading
    # the whole file beside the result, with an N x D bool, took 1.63x the
    # result for fvecs
    N, D = 20000, 64
    p = tmp_path / "a.vecs"
    write(p, np.random.default_rng(4).integers(0, 256, size=(N, D)).astype(float))
    peak = _traced_peak(read, p)
    result = 8 * N * D
    assert peak < result + matrix_io._BLOCK_BYTES, (peak, result)


@pytest.mark.parametrize("fn", [matrix_io.fit_normalizer, matrix_io._check_matrix])
def test_norms_and_finiteness_test_hold_one_block(fn):
    # the norms' squares take one block (and its rows' sums 1/D of it), the
    # finiteness flags 1/8; over the whole matrix they took 2.03x of it
    X = np.random.default_rng(5).standard_normal((20000, 64))
    assert X.nbytes > 4 * matrix_io._BLOCK_BYTES
    assert _traced_peak(fn, X) < 1.1 * matrix_io._BLOCK_BYTES


def test_normalizer_scale_has_the_bits_of_linalg_norm():
    X = np.random.default_rng(6).standard_normal((20011, 128)) * 3.0
    X[12345] *= 2.0  # the largest norm well past the first block
    assert fit_normalizer(X) == 0.8 / float(np.linalg.norm(X, axis=1).max())


@pytest.mark.parametrize("value,message", [
    (1e200, r"the squared row norms overflow float64 \(largest entry magnitude 1e\+200\)"),
    (1e-200, r"the squared row norms underflow float64 to zero \(largest entry "
             r"magnitude 1e-200\)")])
def test_normalizer_names_norms_past_float64(value, message):
    # the scale read 0.0 for overflowing norms, and underflowing ones were
    # called an all-zero matrix
    X = np.full((20, 8), value)
    X[3, 2] = -value
    with pytest.raises(DegenerateScaleError, match=message):
        fit_normalizer(X)


@pytest.mark.parametrize("value", [1e39, -1e39, F32_MAX + 2.0 ** 103])
def test_write_fvecs_rejects_entries_past_float32_before_writing(tmp_path, value):
    path = tmp_path / "big.fvecs"
    with pytest.raises(ValueError, match=r"fvecs entries must lie in float32's range "
                                         r"\[-3.4028235e\+38, 3.4028235e\+38\]"):
        matrix_io.write_fvecs(path, np.array([[1.0, value]]))
    assert not path.exists()
    # entries that round to float32's largest, to a subnormal or to zero are written
    held = np.array([[F32_MAX + 2.0 ** 102, 1e-40, 1e-50]])
    matrix_io.write_fvecs(path, held)
    np.testing.assert_array_equal(matrix_io.read_fvecs(path),
                                  [[F32_MAX, float(np.float32(1e-40)), 0.0]])


def test_read_bvecs_values(tmp_path):
    p = tmp_path / "a.bvecs"
    p.write_bytes(struct.pack("<i", 4) + bytes([0x00, 0x7F, 0xFF, 0x01]))
    X = matrix_io.read_bvecs(p)
    np.testing.assert_array_equal(X[0], [0, 127, 255, 1])


def test_bvecs_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.integers(0, 256, size=(7, 10)).astype(float).T
    p = tmp_path / "r.bvecs"
    matrix_io.write_bvecs(p, X)
    np.testing.assert_array_equal(matrix_io.read_bvecs(p), X)


def test_fvecs_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 12)).astype(np.float32).astype(np.float64).T
    p1, p2 = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
    matrix_io.write_fvecs(p1, X)
    matrix_io.write_fvecs(p2, matrix_io.read_fvecs(p1))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("D, N", [(1, 1), (3, 0), (5, 7), (64, 30), (4, 2051)])
def test_writers_match_struct_packed_records(tmp_path, D, N):
    rng = np.random.default_rng(D + N)
    X = 100.0 * rng.standard_normal((D, N)).T  # F order: rows not contiguous
    B = np.clip(rng.integers(0, 256, (D, N)) + rng.uniform(-0.49, 0.49, (D, N)), 0, 255).T
    B[:N // 2, 0] = 2.5  # rounds half to even
    cases = ((matrix_io.write_fvecs, X, "f", X),
             (matrix_io.write_bvecs, B, "B", np.rint(B).astype(int)))
    for writer, M, fmt, values in cases:
        p = tmp_path / f"w.{fmt}"
        writer(p, M)
        ref = b"".join(struct.pack(f"<i{D}{fmt}", D, *values[j]) for j in range(N))
        assert p.read_bytes() == ref


def test_txt_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((4, 9)).T
    p = tmp_path / "v.txt"
    matrix_io.write_txt(p, X)
    np.testing.assert_array_equal(matrix_io.read_txt(p), X)


@pytest.mark.parametrize("name", ["nan.fvecs", "nan.txt"])
def test_vector_readers_name_the_file_of_a_non_finite_entry(tmp_path, name):
    # the writers reject NaN, so the files are written by hand
    X = np.ones((4, 3))
    X[2, 1] = np.nan
    path = tmp_path / name
    if name.endswith(".txt"):
        path.write_text("".join(" ".join(map(str, row)) + "\n" for row in X))
        read = matrix_io.read_txt
    else:
        path.write_bytes(b"".join(np.int32(3).tobytes() + row.astype("<f4").tobytes()
                                  for row in X))
        read = matrix_io.read_fvecs
    with pytest.raises(FormatError, match=f"{name}: matrix has 1 non-finite entries"):
        read(path)


def test_txt_ragged_rows_rejected(tmp_path):
    p = tmp_path / "ragged.txt"
    p.write_text("1 2 3\n4 5\n")
    with pytest.raises(FormatError, match=r"ragged.txt:2: inconsistent dims 3 vs 2"):
        matrix_io.read_txt(p)
    # the error names the file's line, blank lines included
    p.write_text("1 2 3\n\n4 5\n")
    with pytest.raises(FormatError, match=r"ragged.txt:3: inconsistent dims 3 vs 2"):
        matrix_io.read_txt(p)


def test_fit_normalizer_values():
    assert fit_normalizer(np.array([[3.0, 4.0]])) == pytest.approx(0.16)
    assert fit_normalizer(np.array([[1.0, 0.0], [0.0, 2.0]])) == pytest.approx(0.4)


def test_normalized_max_norm_is_08():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((6, 40)).T * 3.0
    nz = fit_normalizer(X)
    Xn = X * nz
    assert abs(np.linalg.norm(Xn, axis=1).max() - 0.8) < 1e-12


def test_normalizer_degenerate_and_round_trip():
    with pytest.raises(DegenerateScaleError):
        fit_normalizer(np.zeros((4, 3)))
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3, 5)).T
    scale = fit_normalizer(X)
    np.testing.assert_allclose(X * scale / scale, X, atol=1e-12)


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


# --- the binary codec: each format's writer, reader, a tiny fixed input,
# its bytes packed by hand, and the name its errors give the format ---

def _tiny_model():
    return NetworkParams(w1=np.array([[1.5, -2.0]]), w2=np.array([[0.25], [3.0]]),
                         b1=np.array([0.5]), b2=np.array([-1.0, 2.0]), scale=0.125)


def _tiny_codes():
    from autojacobin.hamming import BinaryCodes
    return BinaryCodes(bits=11, count=2,
                       packed=np.array([[0xA5, 0x03], [0x00, 0x07]], dtype=np.uint8))


_TINY_GT = np.array([[3, 1], [0, 2], [7, 5]], dtype=np.uint32)

FORMATS = {
    "model": (matrix_io.write_model, matrix_io.read_model, _tiny_model,
              b"AJBN" + struct.pack("<IIId", 1, 2, 1, 0.125)
              + struct.pack("<7d", 1.5, -2.0, 0.25, 3.0, 0.5, -1.0, 2.0)),
    "codes": (matrix_io.write_codes, matrix_io.read_codes, _tiny_codes,
              b"AJBC" + struct.pack("<IQ", 11, 2) + bytes([0xA5, 0x03, 0x00, 0x07])),
    "ground-truth": (matrix_io.write_groundtruth, matrix_io.read_groundtruth,
                     lambda: _TINY_GT,
                     b"AJBG" + struct.pack("<II", 2, 3) + struct.pack("<6I", 3, 1, 0, 2, 7, 5)),
}
HEADER_END = {"model": 24, "codes": 16, "ground-truth": 12}


@pytest.mark.parametrize("what", FORMATS)
def test_writer_output_equals_hand_packed_bytes(tmp_path, what):
    writer, reader, sample, golden = FORMATS[what]
    path = tmp_path / "f.bin"
    writer(path, sample())
    assert path.read_bytes() == golden
    assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]  # no temporary left
    back = reader(path)
    writer(tmp_path / "g.bin", back)
    assert (tmp_path / "g.bin").read_bytes() == golden


@pytest.mark.parametrize("what", FORMATS)
def test_header_cut_anywhere_is_a_format_error_naming_the_file(tmp_path, what):
    _, reader, _, golden = FORMATS[what]
    path = tmp_path / "cut.bin"
    for n in range(4, HEADER_END[what]):
        path.write_bytes(golden[:n])
        with pytest.raises(FormatError, match=rf"cut.bin: {what} header cut at {n} of"):
            reader(path)


@pytest.mark.parametrize("what", FORMATS)
def test_foreign_magic_and_wrong_size_are_format_errors(tmp_path, what):
    _, reader, _, golden = FORMATS[what]
    path = tmp_path / "bad.bin"
    for raw, message in ((b"", f"bad {what} magic"), (b"AJB", f"bad {what} magic"),
                         (b"XXXX" + golden[4:], f"bad {what} magic"),
                         (golden + b"\0", f"{what} size {len(golden) + 1}, expected"),
                         (golden[:-1], f"{what} size {len(golden) - 1}, expected")):
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"bad.bin: {message}"):
            reader(path)


@pytest.mark.parametrize("raw,message", [
    # each payload is the size the header gives, so only the header is at fault
    (b"AJBN" + struct.pack("<IIId", 1, 0, 3, 1.0) + bytes(24), "model header has D = 0"),
    (b"AJBN" + struct.pack("<IIId", 1, 3, 0, 1.0) + bytes(24), "model header has d = 0"),
    (b"AJBN" + struct.pack("<IIId", 2, 1, 1, 1.0) + bytes(32), "unsupported model version 2"),
    (b"AJBC" + struct.pack("<IQ", 0, 5), "codes header has bits = 0"),
    (b"AJBG" + struct.pack("<II", 0, 4), "ground-truth header has k = 0"),
], ids=["D0", "d0", "version2", "bits0", "k0"])
def test_zero_sized_or_unknown_header_rejected(tmp_path, raw, message):
    path = tmp_path / "h.bin"
    path.write_bytes(raw)
    reader = {b"AJBN": matrix_io.read_model, b"AJBC": matrix_io.read_codes,
              b"AJBG": matrix_io.read_groundtruth}[raw[:4]]
    with pytest.raises(FormatError, match=f"h.bin: {message}"):
        reader(path)


@pytest.mark.parametrize("field,value", [("w2", np.nan), ("scale", np.inf)])
def test_read_model_rejects_non_finite_values(tmp_path, field, value):
    p = _tiny_model()
    if field == "scale":
        p.scale = value
    else:
        getattr(p, field)[0, 0] = value
    path = tmp_path / "nf.ajb"
    matrix_io.write_model(path, p)
    with pytest.raises(FormatError, match="nf.ajb: model has non-finite weights or scale"):
        matrix_io.read_model(path)


class _FailingPayload:
    def __array__(self, dtype=None, copy=None):
        raise OSError("disk full")


def test_failed_write_leaves_the_destination_as_it_was(tmp_path):
    codes = _tiny_codes()
    codes.packed = _FailingPayload()  # fails after the header is written
    new = tmp_path / "new.ajbc"
    with pytest.raises(OSError, match="disk full"):
        matrix_io.write_codes(new, codes)
    assert list(tmp_path.iterdir()) == []
    old = tmp_path / "old.ajbc"
    old.write_bytes(b"old bytes")
    with pytest.raises(OSError, match="disk full"):
        matrix_io.write_codes(old, codes)
    assert list(tmp_path.iterdir()) == [old]
    assert old.read_bytes() == b"old bytes"

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elastiseg import ScalarField, VolumeFormatError, make_field, read_pgm, read_volume, write_pgm, write_volume


def test_vf32_header_and_payload_layout(tmp_path):
    f = ScalarField(np.array([[0.0, 1.0], [2.0, 3.0]]), 1.0)
    path = tmp_path / "t.vf32"
    write_volume(f, path)
    blob = path.read_bytes()
    header, payload = blob.split(b"\n", 1)
    assert header == b"VF32 2 2 2 1 1"
    assert len(payload) == 16
    np.testing.assert_array_equal(np.frombuffer(payload, "<f4"), [0.0, 1.0, 2.0, 3.0])


def test_vf32_roundtrip_random_fields(tmp_path):
    rng = np.random.default_rng(40)
    for i in range(25):
        if i % 2 == 0:
            shape = tuple(rng.integers(1, 20, size=2))
        else:
            shape = tuple(rng.integers(1, 9, size=3))
        spacing = tuple(float(s) for s in rng.choice([0.25, 0.5, 1.0, 1.5, 3.0], size=len(shape)))
        f = ScalarField(rng.standard_normal(shape) * 10.0, spacing)
        path = tmp_path / f"r{i}.vf32"
        write_volume(f, path)
        back = read_volume(path)
        assert back.shape == f.shape
        assert back.spacing == f.spacing
        np.testing.assert_array_equal(back.data, f.data.astype("<f4").astype(np.float64))


def test_vf32_fractional_spacing_roundtrip(tmp_path):
    f = ScalarField(np.zeros((3, 4)), (0.1, 1 / 3))
    path = tmp_path / "s.vf32"
    write_volume(f, path)
    assert read_volume(path).spacing == (0.1, 1 / 3)


def test_vf32_malformed_headers(tmp_path):
    good = tmp_path / "good.vf32"
    write_volume(make_field((3, 3), 1.0, 0.5), good)
    blob = good.read_bytes()

    bad_magic = tmp_path / "m.vf32"
    bad_magic.write_bytes(b"XF32" + blob[4:])
    with pytest.raises(VolumeFormatError):
        read_volume(bad_magic)

    bad_ndim = tmp_path / "n.vf32"
    bad_ndim.write_bytes(b"VF32 4 3 3 3 3 1 1 1 1\n" + b"\x00" * 4 * 81)
    with pytest.raises(VolumeFormatError):
        read_volume(bad_ndim)

    truncated = tmp_path / "t.vf32"
    truncated.write_bytes(blob[:-5])
    with pytest.raises(VolumeFormatError):
        read_volume(truncated)

    trailing = tmp_path / "x.vf32"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(VolumeFormatError):
        read_volume(trailing)


@pytest.mark.parametrize("header", [b"VF32 2 -4 -4 1 1", b"VF32 2 0 4 1 1", b"VF32 3 2 -2 2 1 1 1",
                                    b"VF32 2 4 4 nan 1", b"VF32 2 4 4 1 inf"])
def test_vf32_rejects_bad_extents_and_spacing(tmp_path, header):
    path = tmp_path / "bad.vf32"
    path.write_bytes(header + b"\n" + b"\x00" * 64)
    with pytest.raises(VolumeFormatError):
        read_volume(path)


@pytest.mark.parametrize("header,message", [
    (b"VF32 2 " + b"1 " * 200, "header line too long"),
    (b"VF32", "missing or invalid ndim"),
    (b"VF32 two 4 4 1 1", "missing or invalid ndim"),
    (b"VF32 2 4 4 1", "expected 6 header tokens, got 5"),
    (b"VF32 3 4 4 4 1 1 1 1", "expected 8 header tokens, got 9"),
])
def test_vf32_rejects_a_malformed_header_line(tmp_path, header, message):
    path = tmp_path / "bad.vf32"
    path.write_bytes(header + b"\n" + b"\x00" * 64)
    with pytest.raises(VolumeFormatError, match=message):
        read_volume(path)


def test_vf32_header_line_is_read_up_to_256_characters(tmp_path):
    payload = np.arange(4, dtype="<f4").tobytes()
    path = tmp_path / "h.vf32"
    path.write_bytes(b"VF32 2 2 2 1 1".ljust(256) + b"\n" + payload)
    np.testing.assert_array_equal(read_volume(path).data, [[0.0, 1.0], [2.0, 3.0]])
    path.write_bytes(b"VF32 2 2 2 1 1".ljust(257) + b"\n" + payload)
    with pytest.raises(VolumeFormatError, match="header line too long"):
        read_volume(path)
    for blob in (b"", b"VF32 2 2 2 1 1", b"VF32 2 2 2 1 1".ljust(256)):
        path.write_bytes(blob)
        with pytest.raises(VolumeFormatError, match="unexpected end of file in header"):
            read_volume(path)


def _traced_peak(read, path):
    tracemalloc.start()
    try:
        field = read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return field, peak


def test_read_volume_allocates_the_payload_and_one_field(tmp_path):
    path = tmp_path / "big.vf32"
    write_volume(ScalarField(np.random.default_rng(41).random((64, 64, 64)), 1.0), path)
    field, peak = _traced_peak(read_volume, path)
    # the float32 payload, the float64 field and ScalarField's one-byte-per-voxel finiteness mask
    assert peak <= 4 * field.data.size + field.data.nbytes + field.data.size + 64 * 1024, peak


def test_read_pgm_allocates_one_field(tmp_path):
    path = tmp_path / "big.pgm"
    write_pgm(ScalarField(np.random.default_rng(42).random((256, 256)) >= 0.5, 1.0), path)
    field, peak = _traced_peak(read_pgm, path)
    # besides the field only one-byte-per-voxel arrays: the file, the bool mask, the finiteness mask
    assert peak < 1.5 * field.data.nbytes, peak


def test_vf32_huge_declared_size_rejected_before_reading(tmp_path):
    # 1e10 voxels declared, 16 bytes present: must fail on the size check, not allocate
    path = tmp_path / "huge.vf32"
    path.write_bytes(b"VF32 2 100000 100000 1 1\n" + b"\x00" * 16)
    with pytest.raises(VolumeFormatError, match="truncated"):
        read_volume(path)


def test_pgm_all_foreground(tmp_path):
    m = make_field((3, 3), 1.0, 1.0)
    path = tmp_path / "m.pgm"
    write_pgm(m, path)
    blob = path.read_bytes()
    assert blob == b"P5\n3 3\n255\n" + b"\xff" * 9


def test_pgm_roundtrip_random_masks(tmp_path):
    rng = np.random.default_rng(41)
    for i in range(25):
        shape = tuple(rng.integers(1, 24, size=2))
        m = ScalarField((rng.random(shape) < 0.5).astype(np.float64), 1.0)
        path = tmp_path / f"m{i}.pgm"
        write_pgm(m, path)
        np.testing.assert_array_equal(read_pgm(path).data, m.data)


def test_pgm_rejects_ascii_variant_and_bad_maxval(tmp_path):
    p2 = tmp_path / "a.pgm"
    p2.write_bytes(b"P2\n2 2\n255\n0 255 255 0\n")
    with pytest.raises(VolumeFormatError):
        read_pgm(p2)
    bad = tmp_path / "b.pgm"
    bad.write_bytes(b"P5\n2 2\n127\n\x00\x00\x00\x00")
    with pytest.raises(VolumeFormatError):
        read_pgm(bad)
    short = tmp_path / "c.pgm"
    short.write_bytes(b"P5\n2 2\n255\n\x00\x00")
    with pytest.raises(VolumeFormatError):
        read_pgm(short)


@pytest.mark.parametrize("dims", [b"-4 -4", b"0 4", b"4 0", b"-2 8"])
def test_pgm_rejects_non_positive_extents(tmp_path, dims):
    path = tmp_path / "neg.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n" + b"\x00" * 16)
    with pytest.raises(VolumeFormatError):
        read_pgm(path)


@pytest.mark.parametrize("dims", [b"2 x", b"2.0 2"])
def test_pgm_rejects_a_non_integer_header_token(tmp_path, dims):
    path = tmp_path / "tok.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n" + b"\x00" * 4)
    with pytest.raises(VolumeFormatError, match="invalid PGM header token"):
        read_pgm(path)


def test_pgm_read_threshold_at_128(tmp_path):
    path = tmp_path / "g.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x80\x7f")  # 128 and 127
    np.testing.assert_array_equal(read_pgm(path).data, [[1.0, 0.0]])


def test_pgm_rejects_non_binary_and_3d(tmp_path):
    with pytest.raises(VolumeFormatError):
        write_pgm(make_field((3, 3), 1.0, 0.5), tmp_path / "x.pgm")
    with pytest.raises(VolumeFormatError):
        write_pgm(make_field((3, 3, 3), 1.0, 1.0), tmp_path / "y.pgm")


# header tokens near and past every check of the readers: magics, ndims, extents, spacings
_TOKENS = st.one_of(
    st.sampled_from(["VF32", "P5", "P2", "vf32", "2", "3", "4", "0", "-1", "255", "256",
                     "nan", "inf", "-inf", "1e-320", "1e400", "0.5", "99999999999", "x", "\u00e9"]),
    st.integers(-2, 6).map(str),
    st.floats().map(repr),
)
_SPACES = st.sampled_from([" ", "\t", "\n", "\r", "  "])


@st.composite
def _vf32_bytes(draw):
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    spacing = st.one_of(st.floats(1e-3, 1e3).map(repr), _TOKENS)
    tokens = ["VF32", str(len(shape)), *map(str, shape), *draw(st.lists(spacing, min_size=len(shape), max_size=len(shape)))]
    tokens = draw(st.one_of(st.just(tokens), st.lists(_TOKENS, max_size=9)))
    count = int(np.prod(shape))
    words = st.sampled_from([b"\x00\x00\x80\x3f", b"\x00\x00\xc0\x7f", b"\x00\x00\x80\xff"])  # 1, NaN, -inf
    payload = draw(st.one_of(st.binary(min_size=4 * count, max_size=4 * count), st.binary(max_size=4 * count + 8),
                             st.lists(words, min_size=count, max_size=count).map(b"".join)))
    return " ".join(tokens).encode("utf-8") + b"\n" + payload


@st.composite
def _pgm_bytes(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    tokens = draw(st.one_of(st.just(["P5", str(cols), str(rows), "255"]), st.lists(_TOKENS, max_size=5)))
    header = "".join(draw(_SPACES) + t for t in tokens)[1:]
    payload = draw(st.one_of(st.binary(min_size=rows * cols, max_size=rows * cols), st.binary(max_size=40)))
    return header.encode("utf-8") + draw(_SPACES).encode() + payload


def _read_or_reject(reader, blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz"
        path.write_bytes(blob)
        try:
            field = reader(path)
        except VolumeFormatError:
            return
    assert isinstance(field, ScalarField)
    assert np.all(np.isfinite(field.data))


@settings(max_examples=150, deadline=None)
@given(blob=st.one_of(_vf32_bytes(), st.binary(max_size=64)))
@example(blob=b"VF32 2 1 1 1.0 1.0\n\x00\x00\x81\x7f")  # a float32 signalling NaN
def test_fuzzed_vf32_bytes_read_as_a_finite_field_or_raise_volume_format_error(blob):
    _read_or_reject(read_volume, blob)


@settings(max_examples=150, deadline=None)
@given(blob=st.one_of(_pgm_bytes(), st.binary(max_size=64)))
def test_fuzzed_pgm_bytes_read_as_a_finite_field_or_raise_volume_format_error(blob):
    _read_or_reject(read_pgm, blob)

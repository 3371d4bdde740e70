import struct

import numpy as np
import pytest

from lpsrecon import (
    BadMagicError,
    DynamicVolume,
    HeaderError,
    PayloadError,
    SamplingMask,
    load_mask,
    load_volume,
    save_mask,
    save_volume,
)
from lpsrecon.io import volume_dims

from helpers import random_volume


@pytest.mark.parametrize("dims", [(8, 8, 4), (4, 6, 1), (1, 1, 1), (16, 8, 3)])
def test_volume_round_trip_bit_exact(tmp_path, dims):
    rng = np.random.default_rng(sum(dims))
    vol = random_volume(rng, dims)
    path = tmp_path / "v.lpsv"
    save_volume(path, vol)
    back = load_volume(path)
    assert back.dims == dims
    assert back.data.tobytes() == vol.data.tobytes()



def test_loaded_volume_owns_a_writable_array(tmp_path):
    vol = random_volume(np.random.default_rng(6), (8, 4, 3))
    path = tmp_path / "v.lpsv"
    save_volume(path, vol)
    back = load_volume(path)
    assert back.data.flags.owndata and back.data.flags.writeable
    assert back.data.dtype == np.complex128
    assert back.data.tobytes() == vol.data.tobytes()
    back.data[0, 0] = 0
    assert load_volume(path).data.tobytes() == vol.data.tobytes()


def test_volume_dims_checks_without_reading_the_payload(tmp_path):
    vol = random_volume(np.random.default_rng(7), (4, 4, 2))
    path = tmp_path / "v.lpsv"
    save_volume(path, vol)
    assert volume_dims(path) == (4, 4, 2)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(PayloadError, match="v.lpsv"):
        volume_dims(path)


def test_non_finite_payload_names_the_file(tmp_path):
    vol = random_volume(np.random.default_rng(8), (4, 4, 2))
    path = tmp_path / "nan.lpsv"
    save_volume(path, vol)
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(PayloadError, match="nan.lpsv.*non-finite"):
        load_volume(path)

def test_volume_file_layout(tmp_path):
    data = np.array([[1 + 2j], [3 + 4j]], dtype=complex)
    vol = DynamicVolume(data, (2, 1, 1))
    path = tmp_path / "tiny.lpsv"
    save_volume(path, vol)
    raw = path.read_bytes()
    expected = struct.pack("<4sIIII", b"LPSV", 1, 2, 1, 1) + struct.pack(
        "<4d", 1.0, 2.0, 3.0, 4.0
    )
    assert raw == expected


def test_volume_column_major_payload(tmp_path):
    # column-major: all of column 0, then column 1
    data = np.array([[1, 3], [2, 4]], dtype=complex)
    vol = DynamicVolume(data, (2, 1, 2))
    path = tmp_path / "cm.lpsv"
    save_volume(path, vol)
    payload = np.frombuffer(path.read_bytes()[20:], dtype="<c16")
    assert np.array_equal(payload, np.array([1, 2, 3, 4], dtype=complex))


@pytest.mark.parametrize("order", ["C", "F"])
def test_volume_file_bytes(tmp_path, order):
    dims = (8, 4, 3)
    vol = random_volume(np.random.default_rng(5), dims)
    vol.data = np.asarray(vol.data, order=order)
    path = tmp_path / "v.lpsv"
    save_volume(path, vol)
    header = struct.pack("<4sIIII", b"LPSV", 1, *dims)
    assert path.read_bytes() == header + vol.data.ravel(order="F").astype("<c16").tobytes()


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pattern = rng.random((9, 7)) < 0.4
    pattern[0, 0] = True
    path = tmp_path / "m.lpsm"
    save_mask(path, SamplingMask(pattern))
    header = struct.pack("<4sIIII", b"LPSM", 1, 9, 7, 1)
    assert path.read_bytes() == header + pattern.astype(np.uint8).ravel(order="F").tobytes()
    back = load_mask(path)
    assert np.array_equal(back.pattern, pattern)


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.lpsv"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(BadMagicError):
        load_volume(path)


def test_mask_magic_rejected_as_volume(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "m.lpsm"
    save_mask(path, SamplingMask(rng.random((4, 4)) < 0.5))
    with pytest.raises(BadMagicError):
        load_volume(path)


def test_truncated_payload(tmp_path):
    rng = np.random.default_rng(4)
    vol = random_volume(rng, (4, 4, 2))
    path = tmp_path / "t.lpsv"
    save_volume(path, vol)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(PayloadError):
        load_volume(path)


def test_trailing_bytes(tmp_path):
    rng = np.random.default_rng(5)
    vol = random_volume(rng, (4, 4, 2))
    path = tmp_path / "t.lpsv"
    save_volume(path, vol)
    path.write_bytes(path.read_bytes() + b"\0" * 4)
    with pytest.raises(PayloadError):
        load_volume(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "v2.lpsv"
    path.write_bytes(struct.pack("<4sIIII", b"LPSV", 99, 1, 1, 1) + bytes(16))
    with pytest.raises(HeaderError):
        load_volume(path)


def test_zero_dimension_header(tmp_path):
    path = tmp_path / "z.lpsv"
    path.write_bytes(struct.pack("<4sIIII", b"LPSV", 1, 0, 4, 1))
    with pytest.raises(HeaderError):
        load_volume(path)


def test_short_header(tmp_path):
    path = tmp_path / "s.lpsv"
    path.write_bytes(b"LPSV\x01\x00")
    with pytest.raises(HeaderError):
        load_volume(path)


def test_mask_requires_nz_one(tmp_path):
    path = tmp_path / "m.lpsm"
    path.write_bytes(struct.pack("<4sIIII", b"LPSM", 1, 2, 2, 3) + bytes(4))
    with pytest.raises(HeaderError):
        load_mask(path)


def test_mask_payload_values_validated(tmp_path):
    path = tmp_path / "m.lpsm"
    path.write_bytes(struct.pack("<4sIIII", b"LPSM", 1, 2, 2, 1) + bytes([0, 1, 2, 1]))
    with pytest.raises(PayloadError):
        load_mask(path)

"""On-disk binary formats for volumes and sampling masks.

Both formats share one little-endian container:

    magic   4 bytes   "LPSV" (volume) or "LPSM" (mask)
    version u32       1
    n_x     u32
    n_y     u32
    n_z     u32       always 1 for masks
    payload           volume: n_x*n_y*n_z interleaved (f64 real, f64 imag)
                      pairs, column-major over the (n_x*n_y) x n_z matrix
                      mask:   n_x*n_y bytes of 0/1, column-major over the
                      (n_x, n_y) grid

A complex128 array in memory is already an interleaved (real, imag) f64
pair, so payloads are written/read as little-endian complex128 directly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import DynamicVolume
from .operators import SamplingMask

__all__ = [
    "VolumeFileError",
    "BadMagicError",
    "HeaderError",
    "PayloadError",
    "save_volume",
    "load_volume",
    "save_mask",
    "load_mask",
]

VOLUME_MAGIC = b"LPSV"
MASK_MAGIC = b"LPSM"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIIII")


class VolumeFileError(ValueError):
    """Base class for LPSV/LPSM file errors."""


class BadMagicError(VolumeFileError):
    """The file does not start with the expected magic bytes."""


class HeaderError(VolumeFileError):
    """The header is truncated, has an unknown version, or invalid dims."""


class PayloadError(VolumeFileError):
    """The payload size does not match what the header promises."""


def _read_header(raw: bytes, magic: bytes, path) -> tuple[int, int, int]:
    if len(raw) < _HEADER.size:
        raise HeaderError(f"{path}: file shorter than the {_HEADER.size}-byte header")
    got_magic, version, n_x, n_y, n_z = _HEADER.unpack_from(raw)
    if got_magic != magic:
        raise BadMagicError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise HeaderError(f"{path}: unsupported version {version}")
    if min(n_x, n_y, n_z) < 1:
        raise HeaderError(f"{path}: invalid dims ({n_x}, {n_y}, {n_z})")
    return n_x, n_y, n_z


def _check_payload(raw: bytes, expected: int, path) -> None:
    size = len(raw) - _HEADER.size
    if size < expected:
        raise PayloadError(f"{path}: payload holds {size} bytes, header promises {expected}")
    if size > expected:
        raise PayloadError(f"{path}: {size - expected} trailing bytes after payload")


def _write(path, header: bytes, payload: np.ndarray) -> None:
    """Write the header, then the C-contiguous payload's own buffer."""
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def save_volume(path, volume: DynamicVolume) -> None:
    """Write a volume in LPSV format. Round-trips bit-exactly."""
    n_x, n_y, n_z = volume.dims
    header = _HEADER.pack(VOLUME_MAGIC, FORMAT_VERSION, n_x, n_y, n_z)
    # The transpose of a column-major matrix is C-contiguous, so this is no
    # copy unless the layout or the byte order has to change.
    _write(path, header, np.ascontiguousarray(volume.data.astype("<c16", copy=False).T))


def load_volume(path) -> DynamicVolume:
    """Read an LPSV file back into a DynamicVolume."""
    raw = Path(path).read_bytes()
    n_x, n_y, n_z = _read_header(raw, VOLUME_MAGIC, path)
    count = n_x * n_y * n_z
    _check_payload(raw, count * 16, path)
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape((n_x * n_y, n_z), order="F")
    return DynamicVolume(data.astype(np.complex128), (n_x, n_y, n_z))


def save_mask(path, mask: SamplingMask) -> None:
    """Write a sampling mask in LPSM format (n_z recorded as 1)."""
    n_x, n_y = mask.pattern.shape
    header = _HEADER.pack(MASK_MAGIC, FORMAT_VERSION, n_x, n_y, 1)
    _write(path, header, np.ascontiguousarray(mask.pattern.T, dtype=np.uint8))


def load_mask(path) -> SamplingMask:
    """Read an LPSM file back into a SamplingMask."""
    raw = Path(path).read_bytes()
    n_x, n_y, n_z = _read_header(raw, MASK_MAGIC, path)
    if n_z != 1:
        raise HeaderError(f"{path}: mask header must have n_z = 1, got {n_z}")
    _check_payload(raw, n_x * n_y, path)
    flat = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    if not np.isin(flat, (0, 1)).all():
        raise PayloadError(f"{path}: mask payload contains values other than 0/1")
    pattern = flat.reshape((n_x, n_y), order="F").astype(bool)
    return SamplingMask(pattern)

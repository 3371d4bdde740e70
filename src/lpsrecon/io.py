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

import math
import os
import struct

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
    "volume_dims",
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


def _read_header(fh, magic: bytes, path) -> tuple[int, int, int]:
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise HeaderError(f"{path}: file shorter than the {_HEADER.size}-byte header")
    got_magic, version, n_x, n_y, n_z = _HEADER.unpack(raw)
    if got_magic != magic:
        raise BadMagicError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise HeaderError(f"{path}: unsupported version {version}")
    if min(n_x, n_y, n_z) < 1:
        raise HeaderError(f"{path}: invalid dims ({n_x}, {n_y}, {n_z})")
    return n_x, n_y, n_z


def _check_payload(fh, expected: int, path) -> None:
    """Compare the file length past the header with the promised payload size."""
    size = os.fstat(fh.fileno()).st_size - _HEADER.size
    if size < expected:
        raise PayloadError(f"{path}: payload holds {size} bytes, header promises {expected}")
    if size > expected:
        raise PayloadError(f"{path}: {size - expected} trailing bytes after payload")


def _check_volume(fh, path) -> tuple[int, int, int]:
    dims = _read_header(fh, VOLUME_MAGIC, path)
    _check_payload(fh, 16 * math.prod(dims), path)
    return dims


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


def volume_dims(path) -> tuple[int, int, int]:
    """Check an LPSV file's header and payload size, without reading the
    payload, and return its dims."""
    with open(path, "rb") as fh:
        return _check_volume(fh, path)


def load_volume(path) -> DynamicVolume:
    """Read an LPSV file back into a DynamicVolume.

    The payload is read straight into the column-major matrix the volume
    keeps: its transpose is C-contiguous and matches the file's byte order.
    """
    with open(path, "rb") as fh:
        n_x, n_y, n_z = _check_volume(fh, path)
        data = np.empty((n_x * n_y, n_z), dtype="<c16", order="F")
        if fh.readinto(data.T) != data.nbytes:
            raise PayloadError(f"{path}: payload shorter than its {data.nbytes} bytes")
    try:
        # No copy on a little-endian host.
        return DynamicVolume(data.astype(np.complex128, copy=False), (n_x, n_y, n_z))
    except ValueError as exc:  # non-finite entries
        raise PayloadError(f"{path}: {exc}") from exc


def save_mask(path, mask: SamplingMask) -> None:
    """Write a sampling mask in LPSM format (n_z recorded as 1)."""
    n_x, n_y = mask.pattern.shape
    header = _HEADER.pack(MASK_MAGIC, FORMAT_VERSION, n_x, n_y, 1)
    _write(path, header, np.ascontiguousarray(mask.pattern.T, dtype=np.uint8))


def load_mask(path) -> SamplingMask:
    """Read an LPSM file back into a SamplingMask."""
    with open(path, "rb") as fh:
        n_x, n_y, n_z = _read_header(fh, MASK_MAGIC, path)
        if n_z != 1:
            raise HeaderError(f"{path}: mask header must have n_z = 1, got {n_z}")
        _check_payload(fh, n_x * n_y, path)
        flat = np.frombuffer(fh.read(n_x * n_y), dtype=np.uint8)
    if not np.isin(flat, (0, 1)).all():
        raise PayloadError(f"{path}: mask payload contains values other than 0/1")
    pattern = flat.reshape((n_x, n_y), order="F").astype(bool)
    return SamplingMask(pattern)

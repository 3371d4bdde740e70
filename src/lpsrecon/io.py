"""On-disk binary format for volumes (LPSV), little-endian:

    magic   4 bytes   "LPSV"
    version u32       1
    n_x     u32
    n_y     u32
    n_z     u32
    payload           n_x*n_y*n_z interleaved (f64 real, f64 imag) pairs,
                      column-major over the (n_x*n_y) x n_z matrix

A complex128 array in memory is already an interleaved (real, imag) f64
pair, so payloads are written/read as little-endian complex128 directly.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .core import DynamicVolume

__all__ = [
    "VolumeFileError",
    "BadMagicError",
    "HeaderError",
    "PayloadError",
    "save_volume",
    "load_volume",
    "volume_dims",
]

VOLUME_MAGIC = b"LPSV"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIIII")


class VolumeFileError(ValueError):
    """Base class for LPSV file errors."""


class BadMagicError(VolumeFileError):
    """The file does not start with the expected magic bytes."""


class HeaderError(VolumeFileError):
    """The header is truncated, has an unknown version, or invalid dims."""


class PayloadError(VolumeFileError):
    """The payload size does not match what the header promises."""


def _check_volume(fh, path) -> tuple[int, int, int]:
    """Check the header, and the file length past it against the payload size
    the header promises; return the dims."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise HeaderError(f"{path}: file shorter than the {_HEADER.size}-byte header")
    magic, version, n_x, n_y, n_z = _HEADER.unpack(raw)
    if magic != VOLUME_MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {VOLUME_MAGIC!r}")
    if version != FORMAT_VERSION:
        raise HeaderError(f"{path}: unsupported version {version}")
    if min(n_x, n_y, n_z) < 1:
        raise HeaderError(f"{path}: invalid dims ({n_x}, {n_y}, {n_z})")
    size = os.fstat(fh.fileno()).st_size - _HEADER.size
    expected = 16 * n_x * n_y * n_z
    if size < expected:
        raise PayloadError(f"{path}: payload holds {size} bytes, header promises {expected}")
    if size > expected:
        raise PayloadError(f"{path}: {size - expected} trailing bytes after payload")
    return n_x, n_y, n_z


def save_volume(path, volume: DynamicVolume) -> None:
    """Write a volume in LPSV format. Round-trips bit-exactly."""
    # The transpose of a column-major matrix is C-contiguous, so this is no
    # copy unless the layout or the byte order has to change.
    payload = np.ascontiguousarray(volume.data.astype("<c16", copy=False).T)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(VOLUME_MAGIC, FORMAT_VERSION, *volume.dims))
        fh.write(payload)


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


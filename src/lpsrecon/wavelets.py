"""Orthogonal 2D wavelet transform, applied slice by slice.

Daubechies-4 (four vanishing moments, 8-tap filter), 3 decomposition
levels, periodic boundary handling. Each level is realized as an exactly
orthogonal matrix acting on the current approximation block, so the whole
transform is unitary: perfect reconstruction and Parseval hold to rounding
error, and the inverse equals the adjoint.

Coefficients are laid out in place: level-1 details fill the outer three
quadrants, deeper levels subdivide the top-left block, and the coarsest
approximation ends up in the top-left (n_x/8) x (n_y/8) corner.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import DynamicVolume

__all__ = ["WAVELET_LEVELS", "wavelet_forward", "wavelet_inverse"]

WAVELET_LEVELS = 3

# Orthonormal Daubechies-4 scaling filter; highpass is its alternating flip.
_DEC_LO = np.array(
    [
        0.23037781330885523,
        0.71484657055254153,
        0.63088076792959036,
        -0.027983769416983849,
        -0.18703481171888114,
        0.030841381835986965,
        0.032883011666982945,
        -0.010597401784997278,
    ]
)
_DEC_HI = _DEC_LO[::-1].copy()
_DEC_HI[1::2] *= -1.0


@lru_cache(maxsize=None)
def _level_matrix(n: int) -> np.ndarray:
    """One-level periodized analysis matrix of size n x n.

    Rows 0..n/2-1 are circular even shifts of the lowpass filter, rows
    n/2.. of the highpass. Orthogonal for any even n.
    """
    if n % 2 != 0:
        raise ValueError(f"analysis block length must be even, got {n}")
    w = np.zeros((n, n))
    half = n // 2
    for i in range(half):
        for k, (lo, hi) in enumerate(zip(_DEC_LO, _DEC_HI)):
            j = (2 * i + k) % n
            w[i, j] += lo
            w[half + i, j] += hi
    return w


def _require_divisible(n_x: int, n_y: int, levels: int) -> None:
    block = 2 ** levels
    if n_x % block or n_y % block:
        raise ValueError(
            f"slice dims ({n_x}, {n_y}) must each be divisible by 2^{levels} = {block} "
            f"for a {levels}-level transform"
        )


def _dwt2_stack(slices: np.ndarray, levels: int, inverse: bool = False) -> np.ndarray:
    """Multi-level 2D DWT of an (n_z, n_x, n_y) stack, in place layout; with
    ``inverse``, its inverse (the transpose of each level, coarsest first).

    The real and imaginary planes go into one real (2 n_z, n_x, n_y) array,
    so each level is two real products with the real level matrices.
    """
    n_z, n_x, n_y = slices.shape
    planes = np.ascontiguousarray(np.concatenate((slices.real, slices.imag)))
    scratch = np.empty_like(planes)
    for lev in reversed(range(levels)) if inverse else range(levels):
        bx, by = n_x >> lev, n_y >> lev
        wx, wy = _level_matrix(bx), _level_matrix(by)
        if inverse:
            wx, wy = wx.T, wy.T
        np.matmul(wx, planes[:, :bx, :by], out=scratch[:, :bx, :by])
        np.matmul(scratch[:, :bx, :by], wy.T, out=planes[:, :bx, :by])
    out = scratch.view(np.complex128).reshape(slices.shape)  # same bytes as the result
    out.real, out.imag = planes[:n_z], planes[n_z:]
    return out


def _forward_matrix(data: np.ndarray, dims: tuple[int, int, int], levels: int) -> np.ndarray:
    n_x, n_y, n_z = dims
    _require_divisible(n_x, n_y, levels)
    slices = data.T.reshape(n_z, n_x, n_y)
    return _dwt2_stack(slices, levels).reshape(n_z, -1).T


def _inverse_matrix(w: np.ndarray, dims: tuple[int, int, int], levels: int) -> np.ndarray:
    n_x, n_y, n_z = dims
    _require_divisible(n_x, n_y, levels)
    coeffs = w.T.reshape(n_z, n_x, n_y)
    return _dwt2_stack(coeffs, levels, inverse=True).reshape(n_z, -1).T


def wavelet_forward(s: DynamicVolume, levels: int = WAVELET_LEVELS) -> np.ndarray:
    """Per-slice multi-level 2D wavelet coefficients, same matrix shape."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return _forward_matrix(s.data, s.dims, levels)


def wavelet_inverse(w: np.ndarray, dims: tuple[int, int, int], levels: int = WAVELET_LEVELS) -> DynamicVolume:
    """Reconstruct a volume from its per-slice wavelet coefficients."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    w = np.asarray(w, dtype=np.complex128)
    n_x, n_y, n_z = dims
    if w.shape != (n_x * n_y, n_z):
        raise ValueError(f"coefficient shape {w.shape} inconsistent with dims {dims}")
    return DynamicVolume(_inverse_matrix(w, dims, levels), dims)

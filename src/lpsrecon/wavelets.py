"""Orthogonal 2D wavelet transform, applied slice by slice.

Daubechies-4 (four vanishing moments, 8-tap filter), 3 decomposition
levels, periodic boundary handling. Each level is the periodized filter
bank of Mallat (IEEE PAMI 1989), an exactly orthogonal matrix acting on the
current approximation block, so the whole transform is unitary: perfect
reconstruction and Parseval hold to rounding error, and the inverse equals
the adjoint.

That matrix has 8 non-zeros per row, so a long block is applied as banded
tiles of at most _TILE rows: each tile's outputs read only its own rows plus
the next 6, through one small band matrix cut from the level matrix. A block
that fits in one tile keeps the dense level matrix.

Coefficients are laid out in place: level-1 details fill the outer three
quadrants, deeper levels subdivide the top-left block, and the coarsest
approximation ends up in the top-left (n_x/8) x (n_y/8) corner. When the j
finest levels hold no detail, every nonzero lies in the top-left level block
of (n_x >> j) x (n_y >> j), and the synthesis is that block's, at fewer
levels, followed by j lowpass upsamplings; in k-space each upsampling is a
tiling times a frequency response (``_lowpass_response``). The public
transforms check the slice dims (``check_slice_dims``), as ``solvers.solve``
does once per solve; the in-place matrix forms take them as checked.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import DynamicVolume, _slice_view

__all__ = ["WAVELET_LEVELS", "check_slice_dims", "wavelet_forward", "wavelet_inverse"]

WAVELET_LEVELS = 3
# Rows of a level block per banded tile. A block with no tile clear of the
# periodic wrap (fewer than _TILE + _SPAN rows) is one tile. The tile that
# crosses the wrap takes the remainder, which can reach _TILE + 4 rows.
_TILE = 32

# Orthonormal Daubechies-4 scaling filter (Daubechies, Ten Lectures on
# Wavelets, Table 6.1), to 20 significant digits from a 50-digit spectral
# factorization; highpass is its alternating flip.
_DEC_LO = np.array(
    [
        0.23037781330889650086,
        0.71484657055291564709,
        0.63088076792985890788,
        -0.027983769416859854211,
        -0.18703481171909308408,
        0.030841381835560763627,
        0.032883011666885199735,
        -0.010597401785069032105,
    ]
)
_DEC_HI = _DEC_LO[::-1].copy()
_DEC_HI[1::2] *= -1.0
# Inputs a tile reads past its own rows (outputs 2i, 2i+1 read inputs 2i..2i+7).
_SPAN = _DEC_LO.size - 2


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


def _full_tiles(b: int) -> int:
    """Tiles of a b-row block whose inputs do not wrap around; 0 means the
    block is one tile."""
    return max(0, (b - _SPAN) // _TILE)


def _windows(a: np.ndarray, start: int, count: int, length: int, step: int) -> np.ndarray:
    """``count`` views of ``length`` rows each along axis -2 of ``a``, the
    first at row ``start`` and each ``step`` rows after the one before."""
    *lead, _, cols = a.shape
    *lead_strides, row, col = a.strides
    shape, strides = (*lead, count, length, cols), (*lead_strides, step * row, row, col)
    return as_strided(a[..., start:, :], shape, strides)


@lru_cache(maxsize=None)
def _bands(t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band matrices of one tile of ``t`` rows, cut from the level matrix of
    length 2*_TILE away from its wrap: the lowpass and highpass analysis
    rows, (t/2) x (t+6) each, and the synthesis band, t x (t+6), which acts
    on interleaved lowpass/highpass coefficients.

    They are stored in Fortran order. Along y numpy forms the transposed
    product, and BLAS then reads the band untransposed, which runs about
    twice as fast there; along x the order makes no measurable difference."""
    w = _level_matrix(2 * _TILE)
    r = np.arange((t + _SPAN) // 2)
    interleaved = w[np.stack((r, _TILE + r), axis=1).ravel(), _SPAN : t + _SPAN]
    lo, hi = w[: t // 2, : t + _SPAN], w[_TILE : _TILE + t // 2, : t + _SPAN]
    return np.asfortranarray(lo), np.asfortranarray(hi), np.asfortranarray(interleaved.T)


def _analysis(src: np.ndarray, dst: np.ndarray) -> None:
    """One analysis level along axis -2 of ``src``, written to ``dst``:
    lowpass outputs in the top half, highpass in the bottom half."""
    b = src.shape[-2]
    n = _full_tiles(b)
    if n == 0:
        np.matmul(_level_matrix(b), src, out=dst)
        return
    half, edge = b // 2, n * _TILE
    lo, hi, _ = _bands(_TILE)
    windows = _windows(src, 0, n, _TILE + _SPAN, _TILE)
    np.matmul(lo, windows, out=_windows(dst, 0, n, _TILE // 2, _TILE // 2))
    np.matmul(hi, windows, out=_windows(dst, half, n, _TILE // 2, _TILE // 2))
    # The last tile reads past the end of the block: gather its inputs.
    wrap = np.concatenate((src[..., edge:, :], src[..., :_SPAN, :]), axis=-2)
    lo, hi, _ = _bands(b - edge)
    np.matmul(lo, wrap, out=dst[..., edge // 2 : half, :])
    np.matmul(hi, wrap, out=dst[..., half + edge // 2 :, :])


def _synthesis(coef: np.ndarray, work: np.ndarray) -> None:
    """Inverse of ``_analysis`` along axis -2, in place in ``coef``;
    ``work`` is scratch space of the same shape."""
    b = coef.shape[-2]
    n = _full_tiles(b)
    if n == 0:  # one tile along this axis, in a level tiled along the other
        work[...] = coef
        np.matmul(_level_matrix(b).T, work, out=coef)
        return
    half, head = b // 2, b - n * _TILE
    work[..., 0::2, :] = coef[..., :half, :]
    work[..., 1::2, :] = coef[..., half:, :]
    # Output tile [s, s + t) reads interleaved coefficients [s - 6, s + t).
    np.matmul(
        _bands(_TILE)[2],
        _windows(work, head - _SPAN, n, _TILE + _SPAN, _TILE),
        out=_windows(coef, head, n, _TILE, _TILE),
    )
    # The first tile reads before the start of the block: gather its inputs.
    wrap = np.concatenate((work[..., b - _SPAN :, :], work[..., :head, :]), axis=-2)
    np.matmul(_bands(head)[2], wrap, out=coef[..., :head, :])


def _dwt2_stack(slices: np.ndarray, levels: int, inverse: bool = False) -> np.ndarray:
    """Multi-level 2D DWT of a C-contiguous (n_z, n_x, n_y) stack, in place
    layout, written back into ``slices``; with ``inverse``, its inverse (the
    transpose of each level, coarsest first). Returns ``slices``.

    The real and imaginary planes go into one real (2 n_z, n_x, n_y) array,
    so each level is real products along x, then along y (a swapped view).
    The stack's own bytes are the scratch space of every level.
    """
    n_z, n_x, n_y = slices.shape
    planes = np.concatenate((slices.real, slices.imag))
    scratch = slices.view(np.float64).reshape(planes.shape)
    for lev in reversed(range(levels)) if inverse else range(levels):
        bx, by = n_x >> lev, n_y >> lev
        p, q = planes[:, :bx, :by], scratch[:, :bx, :by]
        if not inverse:
            _analysis(p, q)
            _analysis(q.swapaxes(1, 2), p.swapaxes(1, 2))
        elif _full_tiles(bx) == _full_tiles(by) == 0:  # one tile each way: two dense products
            np.matmul(_level_matrix(bx).T, p, out=q)
            np.matmul(q, _level_matrix(by), out=p)
        else:
            _synthesis(p, q)
            _synthesis(p.swapaxes(1, 2), q.swapaxes(1, 2))
    slices.real, slices.imag = planes[:n_z], planes[n_z:]
    return slices


def check_slice_dims(dims: tuple[int, int, int]) -> None:
    """Raise ValueError, naming the dims, unless the slices of a volume of
    these dims fit WAVELET_LEVELS: n_x and n_y divisible by 2^WAVELET_LEVELS."""
    n_x, n_y, _ = dims
    block = 2 ** WAVELET_LEVELS
    if n_x % block or n_y % block:
        raise ValueError(
            f"slice dims ({n_x}, {n_y}) must each be divisible by 2^{WAVELET_LEVELS} = {block} "
            f"for a {WAVELET_LEVELS}-level transform"
        )


def _forward_matrix(data: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Coefficients of a column-major Casorati matrix, in place; returns ``data``."""
    _dwt2_stack(_slice_view(data, dims), WAVELET_LEVELS)
    return data


def _inverse_matrix(
    w: np.ndarray, dims: tuple[int, int, int], levels: int = WAVELET_LEVELS
) -> np.ndarray:
    """Inverse of ``_forward_matrix``, in place in ``w``; returns ``w``. With
    fewer ``levels``, the synthesis of a level block (``_detail_free_levels``)."""
    _dwt2_stack(_slice_view(w, dims), levels, inverse=True)
    return w


def _detail_free_levels(coef: np.ndarray) -> int:
    """How many of the finest levels of the (n_z, n_x, n_y) coefficient stack
    have all-zero detail bands, at most WAVELET_LEVELS. With j of them, every
    nonzero lies in the top-left (n_x >> j) x (n_y >> j) level block."""
    parts = coef.view(np.float64)  # (n_z, n_x, 2 n_y): the test reads no complex temporary
    n_x, n_y = coef.shape[1:]
    for lev in range(WAVELET_LEVELS):
        bx, by = n_x >> lev, n_y >> lev
        if parts[:, bx // 2 : bx, : 2 * by].any() or parts[:, : bx // 2, by : 2 * by].any():
            return lev
    return WAVELET_LEVELS


# -2 pi i in long double: where that is wider than float64, each response is
# rounded to float64 once, at the end.
_MINUS_2PI_I = -2j * np.arccos(np.longdouble(-1))


@lru_cache(maxsize=None)
def _lowpass_response(n: int, levels: int) -> np.ndarray:
    """The unitary-DFT response, along an axis of length n, of ``levels``
    lowpass synthesis steps (1 for none): with zero details, the spectrum of a
    synthesis is the approximation block's spectrum tiled out, times this along
    each axis. A step on rows of length N upsamples by 2 and filters with the
    periodized lowpass, so it multiplies frequency k by H(2 pi k / N) / sqrt(2),
    H being the filter's transfer function. Read-only, since it is cached."""
    k, taps = np.arange(n), np.arange(_DEC_LO.size)
    response = np.ones(n, dtype=np.clongdouble)
    for lev in range(levels):
        # Phases reduced mod n in integers, so large k loses no precision.
        phase = (np.outer(k << lev, taps) % n).astype(np.longdouble)
        response *= np.exp(_MINUS_2PI_I * phase / n) @ _DEC_LO.astype(np.longdouble)
        response /= np.sqrt(np.longdouble(2))
    response = response.astype(np.complex128)
    response.flags.writeable = False
    return response


def wavelet_forward(s: DynamicVolume) -> np.ndarray:
    """Per-slice multi-level 2D wavelet coefficients, same matrix shape."""
    check_slice_dims(s.dims)
    return _forward_matrix(s.data.copy(order="F"), s.dims)


def wavelet_inverse(w: np.ndarray, dims: tuple[int, int, int]) -> DynamicVolume:
    """Reconstruct a volume from its per-slice wavelet coefficients."""
    w = np.array(w, dtype=np.complex128, order="F")  # a copy: the transform runs in place
    n_x, n_y, n_z = dims
    if w.shape != (n_x * n_y, n_z):
        raise ValueError(f"coefficient shape {w.shape} inconsistent with dims {dims}")
    check_slice_dims(dims)
    return DynamicVolume(_inverse_matrix(w, dims), dims)

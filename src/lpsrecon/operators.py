"""Measurement and spectral operators.

The acquisition operator undersamples the centered 2D spatial-frequency
plane of each slice independently, with one shared mask per volume. The
Fourier transform uses the unitary convention throughout, so the operator
has orthonormal rows and its adjoint acts as the inverse on the sampled
subspace.

Mask patterns are indexed on the *centered* spectrum: the DC coefficient
sits at (n_x // 2, n_y // 2), the geometric center of the grid.

One acquisition is one ``KSpaceData``: the samples on a mask, with the
volume dims derived from both. The sampling kernels (``_adjoint_matrix``,
``_data_consistency``) take it whole, and ``_take_samples``, the one gather,
returns samples in its m x n_z layout, so that layout is known only here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DynamicVolume, _require_int, _shrink_scale, _slice_view

__all__ = [
    "SamplingMask",
    "KSpaceData",
    "make_mask",
    "acquire",
    "acquire_adjoint",
    "sv_threshold",
]


@dataclass(frozen=True)
class SamplingMask:
    """Boolean frequency-sampling pattern over an (n_x, n_y) grid.

    ``index`` holds the flat indices of the sampled entries in the unshifted
    spectrum (``_sample_index``), derived once here for every transform that
    reads or writes the samples. The mask is frozen and keeps a read-only
    copy of the pattern, so the index cannot go stale.
    """

    pattern: np.ndarray
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pat = np.array(self.pattern)
        if pat.dtype != bool:
            raise ValueError(f"mask pattern must be boolean, got dtype {pat.dtype}")
        if pat.ndim != 2:
            raise ValueError(f"mask pattern must be 2-D, got ndim {pat.ndim}")
        if not pat.any():
            raise ValueError("mask must sample at least one frequency")
        pat.flags.writeable = False
        object.__setattr__(self, "pattern", pat)
        object.__setattr__(self, "index", _sample_index(pat))

    @property
    def m(self) -> int:
        """Number of sampled frequencies."""
        return int(self.pattern.sum())

    @property
    def rate(self) -> float:
        """Fraction of the grid that is sampled."""
        return self.m / self.pattern.size


@dataclass(frozen=True)
class KSpaceData:
    """Undersampled frequency-domain measurements of one volume.

    ``samples`` is m x n_z: column z holds the sampled coefficients of
    slice z, in row-major order of the mask's True positions. ``dims``,
    (n_x, n_y, n_z), is derived here from the mask's grid and the sample
    columns. The acquisition is frozen, so no field can be rebound: the row
    count and ``dims`` checked here hold for its life.
    """

    samples: np.ndarray
    mask: SamplingMask
    dims: tuple[int, int, int] = field(init=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 2:
            raise ValueError("samples must be a 2-D matrix")
        if samples.shape[0] != self.mask.m:
            raise ValueError(f"samples shape {samples.shape} inconsistent with m={self.mask.m}")
        if samples.shape[1] == 0:
            raise ValueError(f"samples shape {samples.shape} has no slice columns")
        if not np.isfinite(samples).all():
            raise ValueError("k-space samples contain non-finite entries")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dims", (*self.mask.pattern.shape, samples.shape[1]))


# Exponent of the variable-density weight in make_mask.
DENSITY_FALLOFF = 2.0


def make_mask(n_x: int, n_y: int, rate: float, *, seed: int = 0) -> SamplingMask:
    """Variable-density sampling mask with denser sampling near the center.

    Selects exactly round(rate * n_x * n_y) grid points, weighting the
    selection probability by (1 + d/d0)^(-2) (``DENSITY_FALLOFF``) where d
    is the distance from the grid center and d0 is one eighth of the grid
    diagonal. The center point (DC) is always included. Deterministic for
    a fixed seed, which must be an integer >= 0.
    """
    _require_int("n_x", n_x, 1)
    _require_int("n_y", n_y, 1)
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    _require_int("seed", seed, 0)
    total = n_x * n_y
    m = int(round(rate * total))
    if m < 1:
        raise ValueError(f"rate {rate} selects no samples on a {n_x}x{n_y} grid")

    cx, cy = n_x // 2, n_y // 2
    ix, iy = np.meshgrid(np.arange(n_x), np.arange(n_y), indexing="ij")
    dist = np.hypot(ix - cx, iy - cy)
    d0 = np.hypot(n_x, n_y) / 8.0
    weight = (1.0 + dist / d0) ** (-DENSITY_FALLOFF)

    # Weighted sampling without replacement: smallest exponential keys win.
    rng = np.random.default_rng(seed)
    keys = rng.exponential(size=total).reshape(n_x, n_y) / weight
    keys[cx, cy] = -1.0  # center always sampled
    chosen = np.argsort(keys, axis=None, kind="stable")[:m]
    pattern = np.zeros(total, dtype=bool)
    pattern[chosen] = True
    return SamplingMask(pattern.reshape(n_x, n_y))


def _sample_index(pattern: np.ndarray) -> np.ndarray:
    """Flat indices of the mask's True entries (row-major) into the unshifted
    spectrum: centered (ix, iy) is unshifted ((ix - n_x//2) % n_x, (iy - n_y//2) % n_y)."""
    n_x, n_y = pattern.shape
    ix, iy = np.nonzero(pattern)
    return ((ix - n_x // 2) % n_x) * n_y + (iy - n_y // 2) % n_y


# Stacks of at most this many entries take two 1-D FFTs, which numpy runs
# faster than one ``fftn`` there: 43 against 52 us on 4 x 32 x 32, 14 against
# 20 on 4 x 8 x 8 (numpy 2.4, one core of a 2-vCPU Xeon VM); at 8 x 32 x 32
# the two tie, and at 8 x 128 x 128 ``fftn`` is 13% faster.
_SMALL_FFT = 4096


def _spectra(x: np.ndarray, dims: tuple[int, int, int], inverse: bool = False) -> np.ndarray:
    """The unitary 2D spectra of the slices of the column-major matrix x (with
    ``inverse``, the inverse transform), taken in place in x's own
    (n_z, n_x, n_y) slice stack, which is returned. This is the package's one
    FFT. It uses ``fftn``/``ifftn``, since ``ifft2`` ignores ``out=``; a small
    stack (``_SMALL_FFT``) takes the 1-D transforms along y, then x, which is
    the order ``fftn`` runs them in, so both forms agree bit for bit."""
    slices = _slice_view(x, dims)
    if slices.size <= _SMALL_FFT:
        transform = np.fft.ifft if inverse else np.fft.fft
        transform(slices, axis=2, norm="ortho", out=slices)
        transform(slices, axis=1, norm="ortho", out=slices)
    else:
        (np.fft.ifftn if inverse else np.fft.fftn)(slices, axes=(1, 2), norm="ortho", out=slices)
    return slices


def _put_samples(x: np.ndarray, y: KSpaceData, samples: np.ndarray | None = None) -> None:
    """Write y's samples, or other m x n_z ``samples`` on y's mask, into the
    spectra of the column-major matrix x: row z of ``samples.T`` at the mask's
    ``index`` of slice z's flat spectrum, one ``np.put`` per slice, since a
    fancy-index assignment over the whole (n_z, n_x*n_y) stack is about twice
    as slow."""
    spectra = _slice_view(x, y.dims).reshape(y.dims[2], -1)
    for spectrum, row in zip(spectra, (y.samples if samples is None else samples).T):
        np.put(spectrum, y.mask.index, row)


def _scattered_samples(y: KSpaceData) -> np.ndarray:
    """F A^H y as a column-major matrix: y's samples scattered into zeroed
    unshifted spectra."""
    n_x, n_y, n_z = y.dims
    x = np.zeros((n_x * n_y, n_z), dtype=np.complex128, order="F")
    _put_samples(x, y)
    return x


def _adjoint_matrix(y: KSpaceData) -> np.ndarray:
    """A^H y as a column-major matrix: the scattered samples, inverted in place."""
    x = _scattered_samples(y)
    _spectra(x, y.dims, inverse=True)
    return x


def _data_consistency(x: np.ndarray, y: KSpaceData) -> np.ndarray:
    """x <- x - A^H(A x - y), in place on the column-major matrix x.

    The transform is unitary, so this is F^H[F x with the sampled entries set
    to y]: one transform pair on x's own slice stack.
    """
    _spectra(x, y.dims)
    _put_samples(x, y)
    _spectra(x, y.dims, inverse=True)
    return x


def _take_samples(x: np.ndarray, dims: tuple[int, int, int], mask: SamplingMask) -> np.ndarray:
    """``KSpaceData``'s m x n_z samples on ``mask`` of the column-major matrix x, column
    z from slice z's spectrum at ``mask.index``. x is overwritten by its spectra, in place."""
    spectra = _spectra(x, dims).reshape(dims[2], -1)
    return np.take(spectra, mask.index, axis=1).T


def acquire(x: DynamicVolume, mask: SamplingMask) -> KSpaceData:
    """Frame-by-frame k-space undersampling of a volume.

    Each slice is transformed with the unitary 2D DFT, shifted so DC is
    centered, and the mask's True entries are extracted in row-major
    order.
    """
    n_x, n_y, _ = x.dims
    if mask.pattern.shape != (n_x, n_y):
        raise ValueError(f"mask grid {mask.pattern.shape} does not match volume dims {x.dims}")
    return KSpaceData(_take_samples(x.data.copy(order="F"), x.dims, mask), mask)


def acquire_adjoint(y: KSpaceData) -> DynamicVolume:
    """Adjoint of ``acquire``: zero-fill unsampled frequencies and invert.

    Because the transform is unitary, this is also the least-squares
    zero-filled reconstruction.
    """
    return DynamicVolume(_adjoint_matrix(y), y.dims)


def _gram_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending singular values and right singular vectors of an m x n matrix
    M from eigh(M^H M): n of each, so a wide M (m < n) gets n - m more values
    of 0. Trailing values near 0 read as ~sqrt(eps) * sigma_max, so use a full
    SVD where those matter."""
    eigvals, vecs = np.linalg.eigh(m.T.conj() @ m)
    return np.sqrt(np.maximum(eigvals[::-1], 0.0)), vecs[:, ::-1]


def sv_threshold(m: np.ndarray, lam: float) -> np.ndarray:
    """Soft-threshold the singular values of a matrix (nuclear-norm prox), as
    M V diag(f) V^H in column-major layout, with ``core._shrink_scale``'s factor
    f = max(sigma - lam, 0) / sigma, 0 where sigma = 0: the result lies in range(M).
    """
    m = np.asarray(m, dtype=np.complex128)
    sigma, v = _gram_spectrum(m)
    # (M V diag(f) V^H)^T computed on the row-major transpose M^T.
    return ((v.conj() * _shrink_scale(sigma, lam)) @ v.T @ m.T).T

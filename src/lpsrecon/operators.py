"""Measurement and spectral operators.

The acquisition operator undersamples the centered 2D spatial-frequency
plane of each slice independently, with one shared mask per volume. The
Fourier transform uses the unitary convention throughout, so the operator
has orthonormal rows and its adjoint acts as the inverse on the sampled
subspace.

Mask patterns are indexed on the *centered* spectrum: the DC coefficient
sits at (n_x // 2, n_y // 2), the geometric center of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DynamicVolume, _slice_view

__all__ = [
    "SamplingMask",
    "KSpaceData",
    "make_mask",
    "acquire",
    "acquire_adjoint",
    "sv_threshold",
    "extract_support",
]


@dataclass
class SamplingMask:
    """Boolean frequency-sampling pattern over an (n_x, n_y) grid."""

    pattern: np.ndarray

    def __post_init__(self):
        pat = np.asarray(self.pattern)
        if pat.dtype != bool:
            raise ValueError(f"mask pattern must be boolean, got dtype {pat.dtype}")
        if pat.ndim != 2:
            raise ValueError(f"mask pattern must be 2-D, got ndim {pat.ndim}")
        if not pat.any():
            raise ValueError("mask must sample at least one frequency")
        self.pattern = pat

    @property
    def m(self) -> int:
        """Number of sampled frequencies."""
        return int(self.pattern.sum())

    @property
    def rate(self) -> float:
        """Fraction of the grid that is sampled."""
        return self.m / self.pattern.size


@dataclass
class KSpaceData:
    """Undersampled frequency-domain measurements of one volume.

    ``samples`` is m x n_z: column z holds the sampled coefficients of
    slice z, in row-major order of the mask's True positions.
    """

    samples: np.ndarray
    mask: SamplingMask
    dims: tuple[int, int, int]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        n_x, n_y, n_z = self.dims
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-D matrix")
        if self.mask.pattern.shape != (n_x, n_y):
            raise ValueError(
                f"mask grid {self.mask.pattern.shape} inconsistent with dims {self.dims}"
            )
        if self.samples.shape != (self.mask.m, n_z):
            raise ValueError(
                f"samples shape {self.samples.shape} inconsistent with "
                f"m={self.mask.m}, n_z={n_z}"
            )
        if not np.isfinite(self.samples).all():
            raise ValueError("k-space samples contain non-finite entries")


# Exponent of the variable-density weight in make_mask.
DENSITY_FALLOFF = 2.0


def make_mask(n_x: int, n_y: int, rate: float, *, seed: int = 0) -> SamplingMask:
    """Variable-density sampling mask with denser sampling near the center.

    Selects exactly round(rate * n_x * n_y) grid points, weighting the
    selection probability by (1 + d/d0)^(-2) (``DENSITY_FALLOFF``) where d
    is the distance from the grid center and d0 is one eighth of the grid
    diagonal. The center point (DC) is always included. Deterministic for
    a fixed seed, which must be >= 0.
    """
    if min(n_x, n_y) < 1:
        raise ValueError(f"grid dims must be positive, got ({n_x}, {n_y})")
    if not 0 < rate <= 1:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    total = n_x * n_y
    m = int(round(rate * total))
    if m < 1:
        raise ValueError(f"rate {rate} selects no samples on a {n_x}x{n_y} grid")
    if m >= total:
        return SamplingMask(np.ones((n_x, n_y), dtype=bool))

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


def _spectra(x: np.ndarray, dims: tuple[int, int, int], inverse: bool = False) -> np.ndarray:
    """The unitary 2D spectra of the slices of the column-major matrix x (with
    ``inverse``, the inverse transform), taken in place in x's own
    (n_z, n_x, n_y) slice stack, which is returned. This is the package's one
    FFT. It uses ``fftn``/``ifftn``, since ``ifft2`` ignores ``out=``."""
    slices = _slice_view(x, dims)
    (np.fft.ifftn if inverse else np.fft.fftn)(slices, axes=(1, 2), norm="ortho", out=slices)
    return slices


def _put_samples(
    x: np.ndarray, samples_t: np.ndarray, dims: tuple[int, int, int], index: np.ndarray
) -> None:
    """Write row z of ``samples_t`` at ``index`` of slice z's flat spectrum, in
    the column-major matrix x: one ``np.put`` per slice, since a fancy-index
    assignment over the whole (n_z, n_x*n_y) stack is about twice as slow.
    ``np.put`` would repeat a short row, so the shape is checked first."""
    if samples_t.shape != (dims[2], index.size):
        raise ValueError(f"samples shape {samples_t.T.shape} does not match ({index.size}, {dims[2]})")
    for spectrum, samples in zip(_slice_view(x, dims).reshape(dims[2], -1), samples_t):
        np.put(spectrum, index, samples)


def _adjoint_matrix(samples: np.ndarray, dims: tuple[int, int, int], index: np.ndarray) -> np.ndarray:
    """A^H y as a column-major matrix: the samples scattered into zeroed
    spectra, inverted in place."""
    x = np.zeros((dims[0] * dims[1], dims[2]), dtype=np.complex128, order="F")
    _put_samples(x, samples.T, dims, index)
    _spectra(x, dims, inverse=True)
    return x


def _data_consistency(
    x: np.ndarray, samples_t: np.ndarray, dims: tuple[int, int, int], index: np.ndarray
) -> np.ndarray:
    """x <- x - A^H(A x - y), in place on the column-major matrix x.

    The transform is unitary, so this is F^H[F x with the sampled entries set
    to y]: one transform pair on x's own slice stack, with ``samples_t`` the
    (n_z, m) transpose of y's samples.
    """
    _spectra(x, dims)
    _put_samples(x, samples_t, dims, index)
    _spectra(x, dims, inverse=True)
    return x


def _sample_residual(
    x: np.ndarray, samples_t: np.ndarray, dims: tuple[int, int, int], index: np.ndarray
) -> float:
    """||A x - y||_F, with ``samples_t`` as in ``_data_consistency``. The
    transform runs in place, so x is overwritten by its spectra."""
    spectra = _spectra(x, dims).reshape(dims[2], -1)
    return float(np.linalg.norm(spectra[:, index] - samples_t))


def acquire(x: DynamicVolume, mask: SamplingMask) -> KSpaceData:
    """Frame-by-frame k-space undersampling of a volume.

    Each slice is transformed with the unitary 2D DFT, shifted so DC is
    centered, and the mask's True entries are extracted in row-major
    order.
    """
    n_x, n_y, _ = x.dims
    if mask.pattern.shape != (n_x, n_y):
        raise ValueError(
            f"mask grid {mask.pattern.shape} does not match volume dims {x.dims}"
        )
    spectra = _spectra(x.data.copy(order="F"), x.dims).reshape(x.dims[2], -1)
    return KSpaceData(np.take(spectra, _sample_index(mask.pattern), axis=1).T, mask, x.dims)


def acquire_adjoint(y: KSpaceData) -> DynamicVolume:
    """Adjoint of ``acquire``: zero-fill unsampled frequencies and invert.

    Because the transform is unitary, this is also the least-squares
    zero-filled reconstruction.
    """
    data = _adjoint_matrix(y.samples, y.dims, _sample_index(y.mask.pattern))
    return DynamicVolume(data, y.dims)


def _gram_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending singular values and right singular vectors of an m x n matrix
    M from eigh(M^H M): n of each, so a wide M (m < n) gets n - m more values
    of 0. Trailing values near 0 read as ~sqrt(eps) * sigma_max, so use a full
    SVD where those matter."""
    eigvals, vecs = np.linalg.eigh(m.T.conj() @ m)
    return np.sqrt(np.maximum(eigvals[::-1], 0.0)), vecs[:, ::-1]


def sv_threshold(
    m: np.ndarray,
    lam: float,
    sigma_prev: np.ndarray | None = None,
    lambda_p: float = 0.0,
) -> np.ndarray:
    """Soft-threshold the singular values of a matrix (nuclear-norm prox), as
    M V diag(f / sigma) V^H with f = max(sigma - lam, 0), in column-major layout.

    With a prior spectrum ``sigma_prev``, the thresholded spectrum is then
    stepped toward it, f <- max(f - lambda_p * (f - sigma_prev), 0), on the
    same singular vectors: one spectral map of M, so no second decomposition.
    Where sigma = 0 the factor stays 0, so the result lies in range(M).
    lambda_p = 0 gives exactly the prox alone.
    """
    if lam < 0:
        raise ValueError(f"threshold must be >= 0, got {lam}")
    m = np.asarray(m, dtype=np.complex128)
    sigma, v = _gram_spectrum(m)
    shrunk = np.maximum(sigma - lam, 0.0)
    if sigma_prev is not None:
        if not 0 <= lambda_p <= 1:
            raise ValueError(f"lambda_p must be in [0, 1], got {lambda_p}")
        if np.shape(sigma_prev) != sigma.shape:
            raise ValueError(
                f"sigma_prev shape {np.shape(sigma_prev)} does not match matrix columns {m.shape[1]}"
            )
        shrunk = np.maximum(shrunk - lambda_p * (shrunk - sigma_prev), 0.0)
    factor = np.divide(shrunk, sigma, out=np.zeros_like(sigma), where=sigma > 0)
    # (M V diag(f) V^H)^T computed on the row-major transpose M^T.
    return ((v.conj() * factor) @ v.T @ m.T).T


def extract_support(w: np.ndarray, support_eps: float) -> np.ndarray:
    """Boolean mask of the coefficients with magnitude above
    support_eps * max|w|.

    An all-zero matrix has empty support. The relative cutoff makes
    "support" well-defined on continuous-valued iterates.
    """
    if not 0 < support_eps < 1:
        raise ValueError(f"support_eps must be in (0, 1), got {support_eps}")
    w = np.asarray(w)
    if not np.isfinite(w).all():
        raise ValueError("coefficient matrix contains non-finite entries")
    mag = np.abs(w)
    return mag > support_eps * (mag.max() if mag.size else 0.0)

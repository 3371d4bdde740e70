"""Shared containers and elementwise proximal operators.

Everything downstream works on Casorati matrices: a complex 3D volume of
shape (n_x, n_y, n_z) stored as an (n_x*n_y) x n_z matrix whose columns are
vectorized slices. Low-rank structure across columns captures inter-slice
correlation; the sparse component captures localized change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DynamicVolume",
    "Decomposition",
    "Prior",
    "SolverConfig",
    "soft_threshold",
    "soft_threshold_matrix",
]


def _as_complex_matrix(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


def _slice_view(data: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """The (n_z, n_x, n_y) slice stack of a Casorati matrix, as a view of it.

    Only a column-major matrix has one; for any other, ``data.T.reshape``
    would be a copy and an in-place transform would be lost without a word.
    """
    if not data.flags.f_contiguous:
        raise ValueError("an in-place slice transform needs a column-major (F-contiguous) matrix")
    n_x, n_y, n_z = dims
    return data.T.reshape(n_z, n_x, n_y)


@dataclass
class DynamicVolume:
    """One complex volume at a single time instant, in Casorati form.

    ``data`` has shape (n_x*n_y, n_z); column z is slice z flattened in
    row-major order. All entries must be finite.
    """

    data: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        self.data = _as_complex_matrix(self.data, "data")
        n_x, n_y, n_z = self.dims
        if min(n_x, n_y, n_z) < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.data.shape != (n_x * n_y, n_z):
            raise ValueError(
                f"data shape {self.data.shape} inconsistent with dims {self.dims}: "
                f"expected ({n_x * n_y}, {n_z})"
            )
        if not np.isfinite(self.data).all():
            raise ValueError("volume contains non-finite entries")


@dataclass
class Decomposition:
    """A low-rank / sparse split of one Casorati matrix.

    The reconstruction estimate is exactly ``L + S`` -- there is no hidden
    residual term.
    """

    L: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        self.L = _as_complex_matrix(self.L, "L")
        self.S = _as_complex_matrix(self.S, "S")
        if self.L.shape != self.S.shape:
            raise ValueError(f"L shape {self.L.shape} != S shape {self.S.shape}")

    def estimate(self) -> np.ndarray:
        """The combined estimate L + S."""
        return self.L + self.S


@dataclass
class Prior:
    """Reconstruction knowledge carried over from the previous time instant.

    ``sigma_prev`` is the singular-value vector of the previous low-rank
    component; ``support_prev`` the significant-coefficient support of the
    previous sparse component, a boolean mask over its transform-domain
    coefficient matrix.
    """

    sigma_prev: np.ndarray
    support_prev: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigma_prev, dtype=np.float64)
        if sig.ndim != 1:
            raise ValueError("sigma_prev must be a 1-D vector")
        if not np.isfinite(sig).all():
            raise ValueError("sigma_prev contains non-finite entries")
        if sig.size and sig.min() < 0:
            raise ValueError("sigma_prev must be non-negative")
        if sig.size > 1 and (np.diff(sig) > 0).any():
            raise ValueError("sigma_prev must be sorted descending")
        self.sigma_prev = sig
        mask = np.asarray(self.support_prev)
        if mask.dtype != np.bool_ or mask.ndim != 2:
            raise ValueError(f"support_prev must be a 2-D boolean mask, got {mask.dtype} ndim={mask.ndim}")
        self.support_prev = mask


@dataclass
class SolverConfig:
    """Thresholds and stopping rules for the iterative solvers.

    lambda_L scales singular-value shrinkage, lambda_S the transform-domain
    shrinkage. A threshold left None is data-scaled from the zero-filled
    proxy X0 = A^H(y) by ``solvers.default_config``: lambda_L =
    lambda_l_scale * sigma_max(X0), lambda_S = lambda_s_scale * max|T(X0)|.
    lambda_p in [0, 1] is the step toward the prior spectrum (0 disables the
    prior step). ``support_eps`` is the relative magnitude cutoff used when
    reading a support off a coefficient matrix.
    """

    lambda_L: float | None = None
    lambda_S: float | None = None
    lambda_p: float = 0.7
    tol: float = 1e-3
    max_iter: int = 300
    support_eps: float = 0.02
    lambda_l_scale: float = 0.05
    lambda_s_scale: float = 0.02

    def __post_init__(self):
        for name in ("lambda_L", "lambda_S", "lambda_l_scale", "lambda_s_scale"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 <= self.lambda_p <= 1:
            raise ValueError(f"lambda_p must be in [0, 1], got {self.lambda_p}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter}")
        if not 0 < self.support_eps < 1:
            raise ValueError(f"support_eps must be in (0, 1), got {self.support_eps}")


def soft_threshold(x: complex, lam: float) -> complex:
    """Complex soft-thresholding: shrink |x| by lam, preserve the phase.

    Returns exactly 0 when |x| <= lam (in particular at x = 0, where the
    phase is undefined).
    """
    if lam < 0:
        raise ValueError(f"threshold must be >= 0, got {lam}")
    mag = abs(x)
    if mag <= lam:
        return 0j
    return x * ((mag - lam) / mag)


def soft_threshold_matrix(m: np.ndarray, lam: float, keep: np.ndarray | None = None) -> np.ndarray:
    """Elementwise complex soft-thresholding of a matrix, on a copy.

    Entries where the boolean mask ``keep`` is True pass through unchanged
    (restricted soft-thresholding); with no ``keep`` every entry is shrunk.
    """
    m = np.array(m, dtype=np.complex128)
    if keep is not None:
        keep = np.asarray(keep)
        if keep.dtype != np.bool_ or keep.shape != m.shape:
            raise ValueError(f"keep must be a boolean mask of shape {m.shape}, got {keep.dtype} {keep.shape}")
    return _soft_threshold_keep(m, lam, keep)


def _shrink_scale(m: np.ndarray, lam: float) -> np.ndarray:
    """Real factor max(|m| - lam, 0) / |m| per entry, 0 where m = 0; NaN
    where m is NaN or infinite.

    Both parts come from max(|m|, lam), taken in the magnitude's own buffer:
    less lam it is max(|m| - lam, 0) exactly, and as the divisor it equals
    |m| wherever that numerator is nonzero. With lam > 0 it turns the 0/0 at
    m = 0 into 0/lam, so no masked divide is needed.
    """
    if lam < 0:
        raise ValueError(f"threshold must be >= 0, got {lam}")
    mag = np.abs(m)
    np.maximum(mag, lam, out=mag)
    scale = mag - lam
    if lam > 0:
        np.divide(scale, mag, out=scale)
    else:
        np.divide(scale, mag, out=scale, where=mag > 0)
    return scale


def _soft_threshold_keep(m: np.ndarray, lam: float, keep_mask: np.ndarray | None = None) -> np.ndarray:
    """Soft-threshold the complex array ``m`` in place, except where
    ``keep_mask`` is True; returns ``m``. The real scale multiplies the real
    and the imaginary parts of ``m`` in place, one strided real multiply
    each, so no complex temporary forms."""
    scale = _shrink_scale(m, lam)
    if keep_mask is not None:
        scale[keep_mask] = 1.0
    np.multiply(m.real, scale, out=m.real)
    np.multiply(m.imag, scale, out=m.imag)
    return m

"""Shared containers and elementwise proximal operators.

Everything downstream works on Casorati matrices: a complex 3D volume of
shape (n_x, n_y, n_z) stored as an (n_x*n_y) x n_z matrix whose columns are
vectorized slices. Low-rank structure across columns captures inter-slice
correlation; the sparse component captures localized change.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DynamicVolume",
    "Decomposition",
    "SolverConfig",
    "soft_threshold",
    "soft_threshold_matrix",
]


def _as_complex_matrix(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


def _require_int(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer (a
    ``numbers.Integral`` other than bool) and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _require_threshold(lam) -> None:
    """Raise ValueError unless the shrinkage threshold ``lam`` is finite and >= 0."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {lam}")


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
    row-major order. All entries must be finite. ``dims`` must be three
    integers >= 1, and is kept as a tuple.
    """

    data: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        self.data = _as_complex_matrix(self.data, "data")
        if len(self.dims) != 3:
            raise ValueError(f"dims must be (n_x, n_y, n_z), got {self.dims}")
        for name, value in zip(("n_x", "n_y", "n_z"), self.dims):
            _require_int(f"dims {name}", value, 1)
        self.dims = n_x, n_y, n_z = tuple(self.dims)
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
class SolverConfig:
    """Thresholds and stopping rules for the iterative solvers.

    lambda_L scales singular-value shrinkage, lambda_S the transform-domain
    shrinkage. A threshold left None is data-scaled from the zero-filled
    proxy X0 = A^H(y) by ``solvers.default_config``: lambda_L =
    0.05 sigma_max(X0) and lambda_S = 0.02 max|T(X0)|, the scales being
    ``solvers.LAMBDA_L_SCALE`` and ``LAMBDA_S_SCALE``.
    """

    lambda_L: float | None = None
    lambda_S: float | None = None
    tol: float = 1e-3
    max_iter: int = 300

    def __post_init__(self):
        for name in ("lambda_L", "lambda_S"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be > 0 and finite, got {self.tol}")
        _require_int("max_iter", self.max_iter, 1)


def soft_threshold(x: complex, lam: float) -> complex:
    """Complex soft-thresholding: shrink |x| by lam, preserve the phase.

    Returns exactly 0 when |x| <= lam (in particular at x = 0, where the
    phase is undefined).
    """
    _require_threshold(lam)
    mag = abs(x)
    if mag <= lam:
        return 0j
    return x * ((mag - lam) / mag)


def soft_threshold_matrix(m: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise complex soft-thresholding of a matrix, on a copy."""
    return _soft_threshold_keep(np.array(m, dtype=np.complex128), lam)


def _shrink_scale(m: np.ndarray, lam: float) -> np.ndarray:
    """Real factor max(|m| - lam, 0) / |m| per entry, 0 where m = 0; NaN
    where m is NaN or infinite.

    Both parts come from max(|m|, lam), taken in the magnitude's own buffer:
    less lam it is max(|m| - lam, 0) exactly, and as the divisor it equals
    |m| wherever that numerator is nonzero. With lam > 0 it turns the 0/0 at
    m = 0 into 0/lam, so no masked divide is needed.
    """
    _require_threshold(lam)
    mag = np.abs(m)
    np.maximum(mag, lam, out=mag)
    scale = mag - lam
    if lam > 0:
        np.divide(scale, mag, out=scale)
    else:
        np.divide(scale, mag, out=scale, where=mag > 0)
    return scale


def _soft_threshold_keep(m: np.ndarray, lam: float) -> np.ndarray:
    """Soft-threshold the complex array ``m`` in place; returns ``m``. The
    real scale multiplies the real and the imaginary parts of ``m`` in place,
    one strided real multiply each, so no complex temporary forms. Every
    entry is thresholded: the name outlived the keep mask it once took,
    because the benchmark's tracer binds it."""
    scale = _shrink_scale(m, lam)
    np.multiply(m.real, scale, out=m.real)
    np.multiply(m.imag, scale, out=m.imag)
    return m

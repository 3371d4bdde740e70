"""Iterative low-rank plus sparse solvers and the sequential pipeline.

Both solvers run the same soft-thresholding iteration from the zero-filled
proxy X0 = A^H(y), S0 = 0:

    1. L <- singular-value soft-thresholding of (X - S) with lambda_L; with
       a prior, the thresholded spectrum is then stepped toward the previous
       frame's spectrum with step lambda_p, on the same singular vectors
    2. S <- inverse transform of the soft-thresholded coefficients of
       (X - L); with a prior, coefficients on the previous frame's support
       are exempt from shrinkage
    3. X <- L + S - A^H(A(L + S) - y)   (data consistency); the transform
       is unitary, so this is the spectral replacement F^H[F(L + S) with
       the sampled entries set to y], done in place on the L + S buffer
       (``operators._data_consistency``; reference test
       ``tests/test_operators.py::TestDataConsistency``)

and stop once the relative change of X drops below ``tol``. The returned
reconstruction estimate is L + S.

With lambda_p = 0 and an empty prior support, the prior-informed solver
reduces exactly to the baseline one.

The baseline ``ls`` solver targets the convex objective

    F(L, S) = 1/2 ||A(L + S) - y||^2 + lambda_L ||L||_* + lambda_S ||T S||_1

with T the orthogonal wavelet transform: with g = A^H(A(L + S) - y), the
loop's fixed points satisfy L = SVT(L - g) and S = T^H soft(T(S - g)), the
proximal-gradient optimality conditions of F. ``priori-ls`` changes two
terms:

- the sigma pull: the prior step adds (c/2) ||sigma(L) - sigma_prev||^2 with
  c = lambda_p / (1 - lambda_p), a difference of convex terms, so the
  objective is no longer convex; the step f <- f - lambda_p (f - sigma_prev)
  is its exact prox wherever sigma >= lambda_L, and lambda_p = 1 pins the
  spectrum to sigma_prev;
- the exempt support: coefficients on the prior support carry no l1 weight,
  so the sparse term is lambda_S times the l1 norm of T S off that support.

Settings come as one ``SolverConfig``. Its thresholds may be left None:
``default_config`` resolves them from the acquisition before a solve. The
prior (``core.Prior``) carries the previous frame's singular values and its
sparse support, a boolean mask over the wavelet coefficient matrix that the
shrink step uses as it is.

``solve_sequence(frames, ls_cfg, priori_cfg=None)`` chains the frames of a
sequence: frame 1 runs the baseline with ``ls_cfg``; every later frame runs
the prior-informed solver with ``priori_cfg``, or the baseline with
``ls_cfg`` when ``priori_cfg`` is None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .core import Decomposition, Prior, SolverConfig, _slice_view, _soft_threshold_keep
from .operators import (
    KSpaceData,
    _adjoint_matrix,
    _data_consistency,
    _gram_spectrum,
    _sample_index,
    _sample_residual,
    extract_support,
    sv_threshold,
)
from .wavelets import _forward_matrix, _inverse_matrix

__all__ = [
    "SolveResult",
    "FrameSolveError",
    "default_config",
    "solve_ls",
    "solve_priori_ls",
    "solve_sequence",
    "prior_from_result",
]


class FrameSolveError(RuntimeError):
    """A per-frame failure inside a sequence reconstruction."""

    def __init__(self, frame_index: int, cause: Exception):
        super().__init__(f"reconstruction failed at frame {frame_index}: {cause}")
        self.frame_index = frame_index


@dataclass
class SolveResult:
    """Outcome of one solve: the (L, S) pair plus convergence bookkeeping.

    ``residual_history`` holds the per-iteration relative change of the
    iterate; ``data_residual`` is the final ||Y - A(L + S)||_F.
    """

    decomposition: Decomposition
    iterations: int
    converged: bool
    residual_history: np.ndarray
    data_residual: float

    def __post_init__(self):
        self.residual_history = np.asarray(self.residual_history, dtype=np.float64)
        if self.residual_history.shape != (self.iterations,):
            raise ValueError("residual_history length must equal the iteration count")

    def estimate(self) -> np.ndarray:
        return self.decomposition.estimate()


def default_config(y: KSpaceData, cfg: SolverConfig | None = None) -> SolverConfig:
    """``cfg`` (default ``SolverConfig()``) with every None threshold
    data-scaled from the zero-filled proxy X0 = A^H(y):

        lambda_L = lambda_l_scale * sigma_max(X0)
        lambda_S = lambda_s_scale * max|T(X0)|

    A config with both thresholds set is returned as it is, without reading y.
    X0 becomes T(X0) in place once sigma_max is read.
    """
    cfg = cfg or SolverConfig()
    if cfg.lambda_L is not None and cfg.lambda_S is not None:
        return cfg
    x0 = _adjoint_matrix(y.samples, y.dims, _sample_index(y.mask.pattern))
    sigma_max = float(_gram_spectrum(x0)[0][0])
    coeff_peak = float(np.abs(_forward_matrix(x0, y.dims)).max())
    if sigma_max == 0.0 or coeff_peak == 0.0:
        raise ValueError("all-zero measurements give no data scale; set thresholds explicitly")
    return replace(
        cfg,
        lambda_L=cfg.lambda_L if cfg.lambda_L is not None else cfg.lambda_l_scale * sigma_max,
        lambda_S=cfg.lambda_S if cfg.lambda_S is not None else cfg.lambda_s_scale * coeff_peak,
    )


def _relative_change(x: np.ndarray, x_new: np.ndarray, dims: tuple[int, int, int]) -> float:
    """||x - x_new|| / ||x|| (the plain ||x - x_new|| when x = 0), taken in the
    column-major buffer of x, which is left holding x - x_new.

    Each norm is one contiguous real dot over the float64 view of that buffer.
    The view dies on return, so it never keeps the caller's old iterate alive.
    """
    parts = _slice_view(x, dims).reshape(-1).view(np.float64)
    norm_old = math.sqrt(parts @ parts)
    x -= x_new
    norm_diff = math.sqrt(parts @ parts)
    return norm_diff / norm_old if norm_old else norm_diff


def _iterate(y: KSpaceData, cfg: SolverConfig, prior: Prior | None) -> SolveResult:
    # Iterates stay column-major (a C-contiguous slice stack): no reshape copies.
    dims = y.dims
    index = _sample_index(y.mask.pattern)
    keep_mask = sigma_prev = None
    if prior is not None:
        keep_mask, sigma_prev = prior.support_prev, prior.sigma_prev

    x = _adjoint_matrix(y.samples, dims, index)
    samples_t = np.ascontiguousarray(y.samples.T)
    s = np.zeros_like(x)
    history: list[float] = []
    converged = False

    # Four full-size buffers: X, L, S and the work buffer r, which holds
    # X - S, then X - L, and becomes S through the in-place sparse step. S and
    # the old L are dropped once dead, before sv_threshold allocates the new L.
    for it in range(1, cfg.max_iter + 1):
        r = x - s
        l = s = None
        l = sv_threshold(r, cfg.lambda_L, sigma_prev, cfg.lambda_p)
        np.subtract(x, l, out=r)
        _forward_matrix(r, dims)
        _soft_threshold_keep(r, cfg.lambda_S, keep_mask)
        s = _inverse_matrix(r, dims)
        x_new = _data_consistency(l + s, samples_t, dims, index)
        # x is finite, so a non-finite x_new shows as a non-finite change. A
        # non-finite L + S shows in x_new unless every frequency is sampled;
        # the data residual below catches that case.
        change = _relative_change(x, x_new, dims)
        if not np.isfinite(change):
            raise FloatingPointError(f"solver produced a non-finite iterate at iteration {it}")
        history.append(change)
        x = x_new
        if change < cfg.tol:
            converged = True
            break

    # The last iterate is dead: the final L + S and its spectra go in its buffer.
    data_residual = _sample_residual(np.add(l, s, out=x), samples_t, dims, index)
    if not np.isfinite(data_residual):
        raise FloatingPointError(f"solver produced a non-finite estimate at iteration {len(history)}")
    return SolveResult(
        decomposition=Decomposition(l, s),
        iterations=len(history),
        converged=converged,
        residual_history=np.array(history),
        data_residual=data_residual,
    )


def solve_ls(y: KSpaceData, cfg: SolverConfig) -> SolveResult:
    """Baseline L+S reconstruction of one volume; None thresholds in ``cfg``
    are resolved by ``default_config``."""
    return _iterate(y, default_config(y, cfg), prior=None)


def solve_priori_ls(y: KSpaceData, prior: Prior, cfg: SolverConfig) -> SolveResult:
    """Prior-informed L+S reconstruction of one volume.

    The prior's spectrum pulls the low-rank iterate toward the previous
    frame's singular values; coefficients on the prior support are never
    shrunk, so the sparse component is penalized only outside it. None
    thresholds in ``cfg`` are resolved by ``default_config``.
    """
    n_x, n_y, n_z = y.dims
    if prior.sigma_prev.size != n_z:
        raise ValueError(f"prior spectrum length {prior.sigma_prev.size} does not match n_z {n_z}")
    if prior.support_prev.shape != (n_x * n_y, n_z):
        raise ValueError(
            f"prior support shape {prior.support_prev.shape} does not match the "
            f"coefficient matrix {(n_x * n_y, n_z)}"
        )
    return _iterate(y, default_config(y, cfg), prior=prior)


def prior_from_result(
    decomposition: Decomposition, dims: tuple[int, int, int], support_eps: float
) -> Prior:
    """Build the next frame's prior from a reconstruction's (L, S) pair. The
    spectrum comes from a full SVD, which resolves L's trailing singular values
    (``compute_uv=False`` differs from it in the last bits)."""
    n_x, n_y, n_z = dims
    if decomposition.L.shape != (n_x * n_y, n_z):
        raise ValueError(f"prior L/S shape {decomposition.L.shape} inconsistent with dims {dims}")
    sigma_prev = np.linalg.svd(decomposition.L, full_matrices=False)[1]
    coeffs = _forward_matrix(decomposition.S.copy(order="F"), dims)
    support_prev = extract_support(coeffs, support_eps)
    return Prior(sigma_prev=sigma_prev, support_prev=support_prev)


def solve_sequence(
    frames: Iterable[KSpaceData],
    ls_cfg: SolverConfig,
    priori_cfg: SolverConfig | None = None,
) -> Iterator[SolveResult]:
    """Reconstruct a time sequence, yielding each frame's result once solved.

    Frames are read from ``frames`` one at a time. Frame 1 is solved with the
    baseline solver (no prior exists yet), with ``ls_cfg`` resolved from its
    own samples (``default_config``). With ``priori_cfg`` every later frame
    reuses the previous result's spectrum and sparse support and is solved
    with ``priori_cfg``; without it, every later frame is solved with the
    baseline and ``ls_cfg``. Either config is resolved once, from frame 2.
    The prior is built when the next frame arrives and the previous (L, S) is
    dropped before that frame's solve, so memory does not grow with the frame
    count. Mixed dims raise ValueError; any other failure at a frame aborts
    with that frame's 1-based index.
    """
    rest_cfg = ls_cfg if priori_cfg is None else priori_cfg
    dims = cfg = previous = None
    for t, frame in enumerate(frames, start=1):
        if dims is None:
            dims = frame.dims
        elif frame.dims != dims:
            raise ValueError(f"frame {t} dims {frame.dims} differ from frame 1 dims {dims}")
        try:
            if t <= 2:
                cfg = default_config(frame, ls_cfg if t == 1 else rest_cfg)
            if previous is None:
                result = solve_ls(frame, cfg)
            else:
                prior = prior_from_result(previous, dims, cfg.support_eps)
                previous = None
                result = solve_priori_ls(frame, prior, cfg)
        except Exception as exc:  # noqa: BLE001 - abort must carry the frame index
            raise FrameSolveError(t, exc) from exc
        yield result
        if priori_cfg is not None:
            previous = result.decomposition
        del result
    if dims is None:
        raise ValueError("frame list must be nonempty")

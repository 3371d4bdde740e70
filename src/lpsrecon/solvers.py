"""Iterative low-rank plus sparse solvers and the sequential pipeline.

``solve(y, cfg, previous=None)``, the one way into a solve, runs one
soft-thresholding scheme, the baseline ``ls`` without a previous frame and
the prior-informed ``priori-ls`` with the previous frame's (L, S). From X0
and S0 = 0 its loop, ``_iterate``, repeats

    1. L <- singular-value soft-thresholding of (X - S) with lambda_L
    2. S <- inverse transform of the soft-thresholded coefficients of (X - L)
    3. X <- L + S - A^H(A(L + S) - y)   (data consistency); the transform
       is unitary, so this is the spectral replacement F^H[F(L + S) with
       the sampled entries set to y], done in place on the L + S buffer
       (``operators._data_consistency``; reference test
       ``tests/test_operators.py::TestDataConsistency``)

and stops once the relative change of X drops below ``tol``. The returned
reconstruction estimate is L + S.

Both solvers target the convex objective

    F(L, S) = 1/2 ||A(L + S) - y||^2 + lambda_L ||L - L_prev||_*
              + lambda_S ||T (S - S_prev)||_1

with T the orthogonal wavelet transform and, for ``ls``, L_prev = S_prev =
0: with g = A^H(A(L + S) - y), the loop's fixed points satisfy
L - L_prev = SVT(L - L_prev - g) and S - S_prev = T^H soft(T(S - S_prev -
g)), the proximal-gradient optimality conditions of F. In the change
(L - L_prev, S - S_prev), F is the ``ls`` objective on the residual data
y - A(L_prev + S_prev). So ``priori-ls`` is the ``ls`` loop on those samples,
from X0 = A^H(y - A(L_prev + S_prev)), and ``solve`` adds the previous pair
back to the (L, S) it returns: CS-residual (Vaswani, IEEE TSP 2010) for both
components, and for L the recursive form of ReProCS (Qiu, Vaswani et al.,
IEEE TIT 2014). Its first iterate L_prev + S_prev + X0 is view
sharing, the previous estimate with the new samples put in. A zero pair
gives exactly the solve without one.

Settings come as one ``SolverConfig``. Its thresholds may be left None:
``default_config`` resolves them from the acquisition before a solve.

``solve_sequence(frames, cfg, solver)`` solves the frames of a sequence
through ``solve`` under one config: frame 1 has no prior; every later frame
has the previous frame's (L, S) for ``priori-ls``, and none for ``ls``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .core import Decomposition, SolverConfig, _slice_view, _soft_threshold_keep
from .operators import (
    KSpaceData,
    _adjoint_matrix,
    _data_consistency,
    _gram_spectrum,
    _take_samples,
    sv_threshold,
)
from .wavelets import _forward_matrix, _inverse_matrix, check_slice_dims

__all__ = [
    "KNOWN_SOLVERS",
    "LAMBDA_L_SCALE",
    "LAMBDA_S_SCALE",
    "SolveResult",
    "FrameSolveError",
    "default_config",
    "solve",
    "solve_sequence",
    "uses_prior",
]

KNOWN_SOLVERS = ("ls", "priori-ls")
# Scales of the data-scaled default thresholds (``default_config``).
LAMBDA_L_SCALE = 0.05
LAMBDA_S_SCALE = 0.02


class FrameSolveError(RuntimeError):
    """A per-frame failure inside a sequence reconstruction."""

    def __init__(self, frame_index: int, cause: Exception):
        super().__init__(f"reconstruction failed at frame {frame_index}: {cause}")
        self.frame_index = frame_index


@dataclass
class SolveResult(Decomposition):
    """Outcome of one solve: its (L, S) pair plus convergence bookkeeping.

    A result is a ``Decomposition``, so it can be the next frame's ``previous``.
    ``residual_history`` holds the per-iteration relative change of the iterate, one
    entry per iteration (``iterations`` is its length); ``data_residual`` is the final
    ||Y - A(L + S)||_F, read off the last data-consistency iterate X as ||X - L - S||.
    """

    converged: bool
    residual_history: np.ndarray
    data_residual: float

    @property
    def iterations(self) -> int:
        return len(self.residual_history)


def default_config(y: KSpaceData, cfg: SolverConfig | None = None) -> SolverConfig:
    """``cfg`` (default ``SolverConfig()``) with every None threshold
    data-scaled from the zero-filled proxy X0 = A^H(y):

        lambda_L = LAMBDA_L_SCALE * sigma_max(X0)
        lambda_S = LAMBDA_S_SCALE * max|T(X0)|

    A config with both thresholds set is returned as it is, without reading y.
    X0 becomes T(X0) in place once sigma_max is read.
    """
    cfg = cfg or SolverConfig()
    if cfg.lambda_L is not None and cfg.lambda_S is not None:
        return cfg
    check_slice_dims(y.dims)
    x0 = _adjoint_matrix(y)
    sigma_max = float(_gram_spectrum(x0)[0][0])
    coeff_peak = float(np.abs(_forward_matrix(x0, y.dims)).max())
    if sigma_max == 0.0 or coeff_peak == 0.0:
        raise ValueError("all-zero measurements give no data scale; set thresholds explicitly")
    return replace(
        cfg,
        lambda_L=cfg.lambda_L if cfg.lambda_L is not None else LAMBDA_L_SCALE * sigma_max,
        lambda_S=cfg.lambda_S if cfg.lambda_S is not None else LAMBDA_S_SCALE * coeff_peak,
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


def _iterate(y: KSpaceData, cfg: SolverConfig) -> SolveResult:
    """The ``ls`` loop on y from X0 = A^H(y), with both thresholds of ``cfg`` set; ``solve``
    is its only caller. The data residual is ||X - L - S|| on the last iterate
    X = L + S + A^H(y - A(L + S)), so no transform follows the loop."""
    # Iterates stay column-major (a C-contiguous slice stack): no reshape copies.
    dims = y.dims
    x = _adjoint_matrix(y)
    s = np.zeros_like(x)
    history: list[float] = []
    converged = False

    # Four full-size buffers, X, L, S and the work buffer r, beside the
    # previous pair: r holds X - S, then X - L, and becomes S through the
    # in-place sparse step. S and the old L are dropped once dead, before
    # sv_threshold allocates the new L.
    for it in range(1, cfg.max_iter + 1):
        r = x - s
        l = s = None
        l = sv_threshold(r, cfg.lambda_L)
        np.subtract(x, l, out=r)
        _forward_matrix(r, dims)
        _soft_threshold_keep(r, cfg.lambda_S)
        s = _inverse_matrix(r, dims)
        x_new = _data_consistency(l + s, y)
        # x is finite, so a non-finite x_new shows as a non-finite change. A
        # non-finite L + S shows in x_new unless every frequency is sampled;
        # the data residual below, taken against L and S, catches that case.
        change = _relative_change(x, x_new, dims)
        if not np.isfinite(change):
            raise FloatingPointError(f"solver produced a non-finite iterate at iteration {it}")
        history.append(change)
        x = x_new
        if change < cfg.tol:
            converged = True
            break

    x -= l  # the dead last iterate L + S + A^H(y - A(L + S)) becomes A^H(y - A(L + S)),
    x -= s  # whose norm is ||y - A(L + S)||, since A A^H = I
    data_residual = float(np.linalg.norm(x))
    if not np.isfinite(data_residual):
        raise FloatingPointError(f"solver produced a non-finite estimate at iteration {len(history)}")
    return SolveResult(l, s, converged, np.array(history), data_residual)


def solve(y: KSpaceData, cfg: SolverConfig, previous: Decomposition | None = None) -> SolveResult:
    """L+S reconstruction of one volume: ``ls`` without ``previous``,
    ``priori-ls`` with the previous frame's (L, S), such as its result. None
    thresholds in ``cfg`` are resolved by ``default_config``.

    The one way into a solve: its inputs are checked once, before any kernel
    runs. With the pair, the loop runs on the residual samples y - A(L_prev +
    S_prev), formed in the samples gathered from the column-major sum L_prev +
    S_prev, and the pair is added back to the (L, S) it finds, in place.
    """
    if previous is not None and not isinstance(previous, Decomposition):
        raise TypeError(f"previous must be a Decomposition (the previous frame's L, S), "
                        f"got {type(previous).__name__}")
    if previous is not None and previous.L.shape != (y.dims[0] * y.dims[1], y.dims[2]):
        raise ValueError(f"previous pair shape {previous.L.shape} inconsistent with dims {y.dims}")
    check_slice_dims(y.dims)
    cfg = default_config(y, cfg)
    if previous is None:
        return _iterate(y, cfg)
    predicted = _take_samples(np.add(previous.L, previous.S, order="F"), y.dims, y.mask)
    if not np.isfinite(predicted).all():  # a non-finite entry spreads over its slice's spectrum
        raise ValueError("previous pair contains non-finite entries")
    result = _iterate(KSpaceData(np.subtract(y.samples, predicted, out=predicted), y.mask), cfg)
    result.L += previous.L
    result.S += previous.S
    return result


def uses_prior(solver: str) -> bool:
    """Whether ``solver`` reuses the previous frame's prior; an unknown name raises ValueError."""
    if solver not in KNOWN_SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {KNOWN_SOLVERS}")
    return solver == "priori-ls"


def solve_sequence(
    frames: Iterable[KSpaceData], cfg: SolverConfig, solver: str
) -> Iterator[SolveResult]:
    """Reconstruct a time sequence with ``solver``, yielding each frame's result once solved.

    Frames are read from ``frames`` one at a time and solved by ``solve``. Frame 1
    has no prior (none exists yet) and ``cfg`` resolved from its own samples
    (``default_config``); every later frame has ``cfg`` resolved once, from frame 2,
    and the previous result's (L, S) under ``priori-ls``, none under ``ls``. The
    previous result is held through the next frame's solve and dropped before that
    frame's result is yielded, so memory does not grow with the frame count. An
    unknown solver raises ValueError before any frame is read, mixed dims raise
    ValueError, and any other failure at a frame aborts with its 1-based index.
    """
    threads_prior = uses_prior(solver)
    dims = resolved = previous = None
    for t, frame in enumerate(frames, start=1):
        if dims is None:
            dims = frame.dims
        elif frame.dims != dims:
            raise ValueError(f"frame {t} dims {frame.dims} differ from frame 1 dims {dims}")
        try:
            if t <= 2:
                resolved = default_config(frame, cfg)
            result = solve(frame, resolved, previous)
        except Exception as exc:  # noqa: BLE001 - abort must carry the frame index
            raise FrameSolveError(t, exc) from exc
        previous = None
        yield result
        if threads_prior:
            previous = result
        del result
    if dims is None:
        raise ValueError("frame list must be nonempty")

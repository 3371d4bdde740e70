"""Iterative low-rank plus sparse solvers and the sequential pipeline.

``solve(y, cfg, previous=None)``, the one way into a solve, runs one
soft-thresholding scheme, the baseline ``ls`` without a previous frame and
the prior-informed ``priori-ls`` with the previous frame's (L, S). From X0
and S0 = 0 its loop, ``_iterate``, repeats

    1. L <- singular-value soft-thresholding of (X - S) with lambda_L
    2. S <- inverse transform of the soft-thresholded coefficients of (X - L)
    3. X <- L + S - A^H(A(L + S) - y)   (data consistency); the transform
       is unitary, so this is the spectral replacement F^H[F(L + S) with
       the sampled entries set to y] (``operators._data_consistency``)

and stops once the relative change of X drops below ``tol``. The returned
reconstruction estimate is L + S.

The loop runs in k-space, as Otazo, Candes & Sodickson's L+S (MRM 2015)
does. F, the unitary 2D DFT of each slice, multiplies the Casorati matrix
from the left, so (F M)^H (F M) = M^H M and SVT(F M) = F SVT(M): step 1 on
F X - F S gives F L, and step 3 is only the sample write. ``_iterate`` holds
F L on the samples only, where it lives, and S as its coarse wavelet block.
Step 2's analysis starts at level 1 or 2 whenever a bound on the samples
proves that the shrink zeroes every detail of the levels below it: the
samples are then folded onto that level's grid, a quarter or a sixteenth of
the full one (Mallat's alias sum). So a solve of k iterations runs two
full-size FFTs and k folded ones, and a folded FFT is full-size in each
iteration whose level-1 bound does not clear.

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

from .core import Decomposition, SolverConfig, _soft_threshold_keep
from .operators import (
    KSpaceData,
    _adjoint_matrix,
    _gram_spectrum,
    _spectra,
    _take_samples,
    sv_threshold,
)
from .wavelets import (
    WAVELET_LEVELS,
    _detail_free_levels,
    _forward_matrix,
    _inverse_matrix,
    _lowpass_response,
    check_slice_dims,
)

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
    ||Y - A(L + S)||_F, taken on the sample rows of the last iteration's L and S.
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
    F X0 is y on the samples and 0 elsewhere, and F is unitary on each slice,
    so sigma_max(X0) is that of the m x n_z sample rows, read from their Gram.
    """
    cfg = cfg or SolverConfig()
    if cfg.lambda_L is not None and cfg.lambda_S is not None:
        return cfg
    check_slice_dims(y.dims)
    sigma_max = float(_gram_spectrum(y.samples)[0][0])
    coeff_peak = float(np.abs(_forward_matrix(_adjoint_matrix(y), y.dims)).max())
    if sigma_max == 0.0 or coeff_peak == 0.0:
        raise ValueError("all-zero measurements give no data scale; set thresholds explicitly")
    return replace(
        cfg,
        lambda_L=cfg.lambda_L if cfg.lambda_L is not None else LAMBDA_L_SCALE * sigma_max,
        lambda_S=cfg.lambda_S if cfg.lambda_S is not None else LAMBDA_S_SCALE * coeff_peak,
    )


def _tiling(
    dims: tuple[int, int, int], skipped: int, index: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Where F T^H W reads its block's spectrum, and by what it multiplies it,
    at the flat positions ``index`` of each slice's unshifted spectrum (the
    whole (n_x, n_y) grid when None), when the ``skipped`` finest levels of W
    hold no detail.

    The synthesis of W is then that of its top-left level block of (b_x, b_y)
    = (n_x >> j, n_y >> j), at WAVELET_LEVELS - j levels, upsampled j times by
    the lowpass; in k-space, frequency (k_x, k_y) is the block spectrum's
    (k_x mod b_x, k_y mod b_y) times R_x(k_x) R_y(k_y), the response of the
    skipped levels (``_lowpass_response``; 1 when j = 0). Returns the flat
    block positions and those responses, in the shape of ``index`` or of the
    grid.
    """
    n_x, n_y, _ = dims
    bx, by = n_x >> skipped, n_y >> skipped
    kx, ky = np.ogrid[:n_x, :n_y] if index is None else np.divmod(index, n_y)
    response = _lowpass_response(n_x, skipped)[kx] * _lowpass_response(n_y, skipped)[ky]
    return kx % bx * by + ky % by, response


def _sparse_spectrum(block: np.ndarray, tiling: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """F T^H W at the positions of ``tiling`` (``_tiling``), from B, the
    (n_z, b_x, b_y) spectra of the synthesis of W's level block
    (``_block_spectrum``), as a new column-major (positions x n_z) matrix: the
    whole spectra when ``tiling`` covers the grid, the values on a mask when
    it covers its index."""
    at, response = tiling
    rows = np.take(block.reshape(block.shape[0], -1), at, axis=1)
    rows *= response
    return rows.reshape(rows.shape[0], -1).T


def _fold_plan(tiling: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """What ``_fold`` reads of a ``_tiling`` on the samples: the float64
    positions of each sample's real and imaginary parts in a block spectrum,
    interleaved, and the conjugate responses."""
    at, response = tiling
    pairs = np.repeat(2 * at, 2)
    pairs[1::2] += 1
    return pairs, response.conj()


def _fold(rows: np.ndarray, plan: tuple[np.ndarray, np.ndarray], out: np.ndarray) -> np.ndarray:
    """The adjoint of ``_sparse_spectrum`` on the samples: each block
    frequency k' gets the sum over the sampled k that read it (``_tiling``)
    of conj(R(k)) times the m x n_z ``rows`` at k, one ``np.bincount`` per
    slice, written into the (n_z, b_x b_y) stack ``out``, which is returned.
    ``rows``, column-major, is left multiplied by the conjugate responses
    (``_fold_plan``). With the tiling of j levels, its inverse DFT on the
    (n_x >> j, n_y >> j) grid is the lowpass block of j analysis levels of
    F^H of the rows scattered out (Mallat's alias sum, over the 4^j
    frequencies that fold onto each point); with j = 0 it is that scatter,
    ``operators._put_samples`` into zeroed spectra."""
    pairs, weights = plan
    rows *= weights[:, None]
    for spectrum, row in zip(out, rows.T):
        spectrum[:] = np.bincount(pairs, row.view(np.float64), 2 * spectrum.size).view(np.complex128)
    return out


def _detail_bounds(dims: tuple[int, int, int], index: np.ndarray) -> np.ndarray:
    """The 6 x m weights, at the flat positions ``index``, that bound the
    level-1 and level-2 details of F^H of a spectrum D nonzero only there:
    every coefficient of detail band b (lowpass and highpass along x and y in
    its three mixed pairs) of level l of each slice is at most row 3(l - 1) + b
    of this times |D| of that slice. The band's spectrum on the (n_x >> l,
    n_y >> l) grid is the alias sum of conj(R_b(k)) D[k], and its unitary
    inverse DFT is at most 2^l / sqrt(n_x n_y) times the sum of its
    magnitudes. Along each axis R_b is the l-level lowpass response, or the
    (l - 1)-level one times the one-level highpass response on the n >> (l - 1)
    grid at k mod n >> (l - 1), where |R_hi(k)| = |R_lo(k + n / 2)|."""
    n_x, n_y, _ = dims
    kx, ky = np.divmod(index, n_y)
    rows = []
    for lev in (1, 2):
        lo_x, lo_y = (np.abs(_lowpass_response(n, lev)) for n in (n_x, n_y))
        hi_x, hi_y = (
            np.abs(_lowpass_response(n, lev - 1))
            * np.tile(np.roll(np.abs(_lowpass_response(n >> (lev - 1), 1)), -(n >> lev)), 1 << (lev - 1))
            for n in (n_x, n_y)
        )
        scale = (1 << lev) / math.sqrt(n_x * n_y)
        rows += [lo_x[kx] * hi_y[ky] * scale, hi_x[kx] * lo_y[ky] * scale, hi_x[kx] * hi_y[ky] * scale]
    return np.stack(rows)


def _block_spectrum(w: np.ndarray, skipped: int) -> np.ndarray:
    """B, the (n_z, b_x, b_y) spectra of the synthesis of the coefficient block
    ``w`` (an (n_z, b_x, b_y) stack, left as it is), the top-left level block of
    W when the ``skipped`` finest levels hold no detail: that block's synthesis
    at WAVELET_LEVELS - j levels, then its small FFT, in a column-major copy."""
    n_z, bx, by = w.shape
    block = w.reshape(n_z, -1).T.copy(order="F")
    _inverse_matrix(block, (bx, by, n_z), WAVELET_LEVELS - skipped)
    return _spectra(block, (bx, by, n_z))


def _off_sample_weights(dims: tuple[int, int, int], skipped: int, index: np.ndarray) -> np.ndarray:
    """G, over the (n_x >> j, n_y >> j) grid of a block spectrum B: at each of
    its frequencies k', the sum of |R_x(k_x) R_y(k_y)|^2 over the frequencies k
    of the full spectrum that read k' (``_tiling``) and are not at ``index``.
    The energy of F T^H W off the samples is then sum |B|^2 G, a sum of
    nonnegative terms."""
    n_x, n_y, _ = dims
    rx, ry = (np.abs(_lowpass_response(n, skipped)) ** 2 for n in (n_x, n_y))
    weight = rx[:, None] * ry[None, :]
    weight.flat[index] = 0.0
    return weight.reshape(1 << skipped, n_x >> skipped, 1 << skipped, n_y >> skipped).sum(axis=(0, 2))


def _refined(block: np.ndarray, skipped: int, finer: int) -> np.ndarray:
    """The block spectrum B of W's level block with ``skipped`` detail-free
    levels, as that of its larger level block with ``finer`` (at most
    ``skipped``): tiled out 2^(skipped - finer) times each way, times the
    response of the levels between. The response of j levels is that of the
    first ``finer`` times that of the rest on the coarser grid, so both give
    one F T^H W."""
    if finer == skipped:
        return block
    n_z, bx, by = block.shape
    reps = 1 << (skipped - finer)
    rx, ry = (_lowpass_response(b * reps, skipped - finer) for b in (bx, by))
    return np.tile(block, (1, reps, reps)) * (rx[:, None] * ry[None, :])


def _iterate(y: KSpaceData, cfg: SolverConfig) -> SolveResult:
    """The ``ls`` loop on y, with both thresholds of ``cfg`` set; ``solve`` is
    its only caller.

    It holds neither X^ = F X nor F L nor F S in full. The SVT acts on the
    slices, from the right, so each frequency's row of F L is that row of
    X^ - S^ times one n_z x n_z matrix: from L^ = 0, the rows off the samples
    stay 0, and X^ is S^ there and y on the samples. So L^ lives as its m x n_z
    sample rows L_O, and S as its shrunk coefficient block W_S (its j finest
    levels hold no detail) and B, the block's spectra, from which S^ is read
    at the samples, S_O (``_sparse_spectrum``). Each iteration:

    1. M_O = y - S_O, and L_O = ``sv_threshold`` of it: the one SVT, on the
       sample rows.
    2. D = M - L^, M_O - L_O on the samples and 0 elsewhere. The analysis of
       X - L starts at level ``first``, the largest l of 0, 1 and 2 such that
       W_S has no detail in its l finest levels and ``_detail_bounds`` times
       |D_O| is below lambda_S for every level up to l, which proves that the
       shrink zeroes every detail there. D is folded onto the (n_x >> first,
       n_y >> first) grid in the work buffer (``_fold``; at level 0, the
       scatter), then one inverse FFT of that size. The fold plan of one
       level is held at a time, and rebuilt when ``first`` changes.
    3. The wavelet planes of the rest of the levels, in the planes' top-left
       block, plus the old W_S on its block: X^ - L^ = D + S^, so these are
       the coefficients of X - L.
    4. The detail-free levels from |c|^2 > lambda_S^2 on that block, from
       level ``first``; only their block is shrunk (``_soft_threshold_keep``),
       the new W_S.
    5. B from W_S's synthesis and small FFT (``_block_spectrum``), and S_O.
    6. The stopping test and the data residual. X^_old - X^_new is 0 on the
       samples and S^_old - S^_new off them, so ||X^_old - X^_new||^2 =
       sum |B_old - B|^2 G and ||X^_old||^2 = ||y||^2 + sum |B_old|^2 G, with
       the blocks on one grid (``_refined``) and G the weight of the
       frequencies off the samples (``_off_sample_weights``): sums of
       nonnegative terms, so nothing cancels. The data residual
       ||y - A(L + S)|| is ||y - L_O - S_O|| of the last iteration.

    A non-finite L_O fails the bound, so it shows in the planes, whatever is
    sampled, and so as a non-finite change. S^ is tiled out in full once, and
    L and S take one inverse FFT each, at the end."""
    # Full-size arrays stay column-major (a C-contiguous slice stack): no reshape copies.
    dims = n_x, n_y, n_z = y.dims
    work = np.empty((n_x * n_y, n_z), dtype=np.complex128, order="F")
    stacked = work.T.reshape(-1)  # its slice stack, flat: a level block's stack fills its head
    planes = np.empty((2 * n_z, n_x, n_y))
    s = np.zeros(y.samples.shape, dtype=np.complex128, order="F")  # S_O: S = 0 to start
    w = np.zeros((n_z, 0, 0), dtype=np.complex128)  # W_S, an empty block
    skipped = WAVELET_LEVELS
    block = np.zeros((n_z, n_x >> skipped, n_y >> skipped), dtype=np.complex128)  # B
    y_norm = _norm2(y.samples)
    s_off = 0.0  # ||S^ off the samples||^2
    bounds = _detail_bounds(dims, y.mask.index)
    tilings: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # per j, on the samples
    fold, folded = None, None  # the fold plan on the samples, and its first level
    weights: dict[int, np.ndarray] = {}  # per j, off the samples
    history: list[float] = []
    converged = False

    for it in range(1, cfg.max_iter + 1):
        d, s = np.subtract(y.samples, s, out=s), None  # in S_O's buffer: step 5 renews S_O
        l = sv_threshold(d, cfg.lambda_L)
        d -= l
        peaks = (bounds @ np.abs(d)).reshape(-1, 3 * n_z).max(axis=1).tolist()  # per level, from 1
        first = 0
        while first < min(skipped, len(peaks)) and peaks[first] < cfg.lambda_S:
            first += 1
        if folded != first:
            fold = None  # one plan at a time: the old one goes before the next is built
            fold, folded = _fold_plan(_tiling(dims, first, y.mask.index)), first
        bx, by = n_x >> first, n_y >> first
        spectra = _fold(d, fold, stacked[: n_z * bx * by].reshape(n_z, -1)).T
        d = None
        _spectra(spectra, (bx, by, n_z), inverse=True)
        coef = _forward_matrix(spectra, (bx, by, n_z), planes[:, :bx, :by], WAVELET_LEVELS - first)
        wx, wy = w.shape[1:]
        coef[:n_z, :wx, :wy] += w.real
        coef[n_z:, :wx, :wy] += w.imag
        # |c|^2 in the folded spectra's dead bytes: c survives the shrink iff |c| > lambda_S.
        energy = spectra.T.view(np.float64).reshape(coef.shape)
        np.square(coef, out=energy)
        energy = np.add(energy[:n_z], energy[n_z:], out=energy[:n_z])
        block_old, skipped_old = block, skipped
        skipped = first + _detail_free_levels(energy, cfg.lambda_S ** 2, WAVELET_LEVELS - first)
        energy = spectra = None
        bx, by = n_x >> skipped, n_y >> skipped
        w = np.empty((n_z, bx, by), dtype=np.complex128)
        w.real, w.imag = coef[:n_z, :bx, :by], coef[n_z:, :bx, :by]
        coef = None
        _soft_threshold_keep(w, cfg.lambda_S)
        block = _block_spectrum(w, skipped)
        if skipped not in tilings:
            tilings[skipped] = _tiling(dims, skipped, y.mask.index)
        s = _sparse_spectrum(block, tilings[skipped])
        fine = min(skipped, skipped_old)
        for j in (skipped, fine):
            if j not in weights:
                weights[j] = _off_sample_weights(dims, j, y.mask.index)
        # X^_old - X^_new is S^_old - S^_new off the samples and 0 on them.
        change = _refined(block_old, skipped_old, fine) - _refined(block, skipped, fine)
        change = _off_energy(change, weights[fine])
        norm_old = y_norm + s_off  # ||X^_old||^2 = ||y||^2 + ||S^_old off the samples||^2
        change = math.sqrt(change / norm_old if norm_old else change)
        s_off = _off_energy(block, weights[skipped])
        if not math.isfinite(change):
            raise FloatingPointError(f"solver produced a non-finite iterate at iteration {it}")
        history.append(change)
        if change < cfg.tol:
            converged = True
            break

    e = y.samples - s
    e -= l
    data_residual = math.sqrt(_norm2(e))
    if not math.isfinite(data_residual):
        raise FloatingPointError(f"solver produced a non-finite estimate at iteration {len(history)}")
    # The loop's buffers and per-solve caches go before S^ and L are formed in full.
    work = stacked = planes = e = bounds = fold = tilings = weights = None
    s = _sparse_spectrum(block, _tiling(dims, skipped))
    _spectra(s, dims, inverse=True)
    l = _adjoint_matrix(KSpaceData(l, y.mask))  # L^ lives on the samples
    return SolveResult(l, s, converged, np.array(history), data_residual)


def _off_energy(block: np.ndarray, weights: np.ndarray) -> float:
    """sum |B|^2 G over a block spectrum and its ``_off_sample_weights``: the
    energy off the samples of the spectrum B tiles out to."""
    return float(np.vdot(block, block * weights).real)


def _norm2(x: np.ndarray) -> float:
    """||x||^2 of a complex array, as one real dot over the float64 view of
    its buffer (of a copy, if x is not contiguous)."""
    parts = x.reshape(-1, order="A").view(np.float64)
    return float(parts @ parts)


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

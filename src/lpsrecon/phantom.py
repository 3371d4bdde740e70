"""Synthetic dynamic volumes with known low-rank and sparse ground truth.

The background is an exact rank-r Casorati matrix built from smooth random
spatial modes mixed across slices, optionally drifting slowly in amplitude
over time. The dynamic component is a handful of compact Gaussian bumps
that translate a fixed step per frame, so it stays compressible in the
wavelet domain and its support moves slowly -- the regime the prior-informed
solver is designed for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import DynamicVolume

__all__ = ["PhantomSpec", "PhantomSequence", "generate", "generate_frames", "psnr"]

PSNR_SENTINEL_DB = float("inf")


@dataclass
class PhantomSpec:
    """Parameters of one synthetic sequence. Deterministic per seed."""

    dims: tuple[int, int, int] = (32, 32, 4)
    n_frames: int = 6
    background_rank: int = 2
    n_blobs: int = 3
    blob_amplitude: float = 0.04
    motion_step: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0
    drift_rate: float = 0.02  # per-frame fractional amplitude drift; 0 disables
    blob_width: float = 4.0  # Gaussian sigma of each bump, in pixels

    def __post_init__(self):
        n_x, n_y, n_z = self.dims
        if min(n_x, n_y, n_z) < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if not 1 <= self.background_rank <= n_z:
            raise ValueError(
                f"background_rank must be in [1, n_z={n_z}], got {self.background_rank}"
            )
        if self.n_blobs < 0:
            raise ValueError("n_blobs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("blob_amplitude", "motion_step", "noise_sigma", "drift_rate", "blob_width"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.drift_rate < 0:
            raise ValueError("drift_rate must be >= 0")
        if self.blob_width <= 0:
            raise ValueError("blob_width must be > 0")


@dataclass
class PhantomSequence:
    """Generated frames plus the per-frame ground-truth components."""

    frames: list[DynamicVolume]
    l_true: list[DynamicVolume]
    s_true: list[DynamicVolume]


def _smooth_modes(rng: np.random.Generator, n_x: int, n_y: int, rank: int) -> np.ndarray:
    """Orthonormal columns of smooth complex random fields, (n_x*n_y, rank)."""
    fx = np.fft.fftfreq(n_x)[:, None] * n_x
    fy = np.fft.fftfreq(n_y)[None, :] * n_y
    lowpass = np.exp(-(fx**2 + fy**2) / (2.0 * 2.0**2))
    fields = []
    for _ in range(rank):
        white = rng.standard_normal((n_x, n_y)) + 1j * rng.standard_normal((n_x, n_y))
        smooth = np.fft.ifft2(white * lowpass)
        fields.append(smooth.ravel())
    q, _ = np.linalg.qr(np.stack(fields, axis=1))
    return q


def _slice_mixing(rng: np.random.Generator, rank: int, n_z: int) -> np.ndarray:
    """Rank x n_z complex matrix with orthonormal rows."""
    raw = rng.standard_normal((n_z, rank)) + 1j * rng.standard_normal((n_z, rank))
    q, _ = np.linalg.qr(raw)
    return q.conj().T


def generate_frames(spec: PhantomSpec) -> Iterator[tuple[DynamicVolume, DynamicVolume, DynamicVolume]]:
    """Generate the frames one at a time, each as the triple (X, L, S) with
    X = L + S + noise, so that only one frame is held at once.

    Raises ValueError here, before any frame is made, when a blob
    trajectory would leave the grid within the requested number of frames.
    """
    n_x, n_y, n_z = spec.dims
    rng = np.random.default_rng(spec.seed)

    modes = _smooth_modes(rng, n_x, n_y, spec.background_rank)
    mixing = _slice_mixing(rng, spec.background_rank, n_z)
    amps = 0.6 ** np.arange(spec.background_rank)
    drift_weights = rng.uniform(0.5, 1.0, spec.background_rank)

    # Blobs ride one shared heading (bulk motion), placed on a jittered ring
    # around the grid center with the trajectory centered mid-sequence, so
    # the constellation geometry is rigid and stays clear of the boundary.
    margin = max(2.0, spec.blob_width)
    ring = 0.18 * min(n_x, n_y)
    angles = 2.0 * np.pi * np.arange(spec.n_blobs) / max(1, spec.n_blobs) + rng.uniform(
        0.0, 2.0 * np.pi
    )
    jitter = rng.uniform(-1.0, 1.0, (spec.n_blobs, 2))
    heading = rng.uniform(0.0, 2.0 * np.pi)
    direction = np.array([np.cos(heading), np.sin(heading)])
    center = np.array([(n_x - 1) / 2.0, (n_y - 1) / 2.0])
    travel = spec.motion_step * (spec.n_frames - 1)
    starts = (
        center
        + ring * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        + jitter
        - 0.5 * travel * direction
    )
    slice_weights = rng.uniform(0.5, 1.0, (spec.n_blobs, n_z)) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, (spec.n_blobs, n_z))
    )

    last = spec.n_frames - 1
    for b in range(spec.n_blobs):
        for t in (0, last):
            cx, cy = starts[b] + spec.motion_step * t * direction
            if not (margin <= cx <= n_x - 1 - margin and margin <= cy <= n_y - 1 - margin):
                raise ValueError(
                    f"blob {b} leaves the grid at frame {t + 1}: center ({cx:.1f}, {cy:.1f}) "
                    f"violates the {margin:.1f}-pixel margin on a {n_x}x{n_y} grid"
                )

    gx = np.arange(n_x)[:, None]
    gy = np.arange(n_y)[None, :]

    def frame(t):
        scale = amps * (1.0 + spec.drift_rate * t * drift_weights)
        l_mat = (modes * scale) @ mixing

        s_mat = np.zeros((n_x * n_y, n_z), dtype=np.complex128)
        for b in range(spec.n_blobs):
            cx, cy = starts[b] + spec.motion_step * t * direction
            bump = np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * spec.blob_width**2))
            s_mat += spec.blob_amplitude * bump.ravel()[:, None] * slice_weights[b][None, :]

        x_mat = l_mat + s_mat
        if spec.noise_sigma > 0:
            noise = rng.standard_normal((n_x * n_y, n_z)) + 1j * rng.standard_normal(
                (n_x * n_y, n_z)
            )
            x_mat = x_mat + spec.noise_sigma / math.sqrt(2.0) * noise

        return (DynamicVolume(x_mat, spec.dims), DynamicVolume(l_mat, spec.dims),
                DynamicVolume(s_mat, spec.dims))

    # The checks above run at the call; each frame is made when it is asked for.
    return (frame(t) for t in range(spec.n_frames))


def generate(spec: PhantomSpec) -> PhantomSequence:
    """Generate frames X = L + S + noise together with L and S ground truth.

    Raises ValueError when a blob trajectory would leave the grid within
    the requested number of frames.
    """
    frames, l_true, s_true = zip(*generate_frames(spec))
    return PhantomSequence(list(frames), list(l_true), list(s_true))


def psnr(reference: DynamicVolume, estimate: DynamicVolume) -> float:
    """Peak signal-to-noise ratio in dB, computed on magnitude images.

    peak = max|reference|; rmse is taken over |reference| - |estimate|.
    Returns the infinite sentinel when the error is exactly zero.
    """
    if reference.dims != estimate.dims:
        raise ValueError(f"dims mismatch: {reference.dims} vs {estimate.dims}")
    err = np.abs(reference.data)
    peak = float(err.max())
    if peak == 0.0:
        raise ValueError("reference volume is all-zero; PSNR undefined")
    # |reference| - |estimate| and its square, in the |reference| buffer.
    err -= np.abs(estimate.data)
    rmse = float(np.sqrt(np.mean(np.square(err, out=err))))
    if rmse == 0.0:
        return PSNR_SENTINEL_DB
    return 20.0 * math.log10(peak / rmse)

"""The benchmark workloads, driven through ``lpsrecon.cli.main``.

Each workload has

    setup(work, seed) -> state   writes its inputs (config file, phantom
                                 frames) under ``work``, all from ``seed``
    run(state, out) -> Pass      one pass: the timed CLI calls and the
                                 checks of everything they wrote to ``out``

Only the ``cli.main`` calls are timed. The checks read the output files with
their own LPSV reader and PSNR, so a fault in the package's I/O or metrics
code cannot hide itself. Any failed check fails every frame of the pass.

Frames solved by the baseline ``ls`` solver must converge: they do at every
seed tried, so one that stops at ``max_iter`` is a fault. ``priori-ls``
frames that stop at ``max_iter`` are the known defect of ROADMAP item 1;
they are counted in ``Pass.unconverged`` but are not failures.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lpsrecon.cli as cli

_LPSV_HEADER = struct.Struct("<4sIIII")


class CheckError(Exception):
    """An output of the program is missing or wrong."""


@dataclass
class Pass:
    """One pass of a workload: its timed call and what its outputs show."""

    frames: int  # frames attempted
    seconds: float = math.nan  # the timed cli.main call
    iterations: int = 0  # solver iterations over all frames
    unconverged: int = 0  # priori-ls frames that stopped at max_iter
    psnr_db: float = math.nan  # mean PSNR of the paper solver's frames >= 2
    psnr_frames: int = 0
    gaps: dict[str, float] = field(default_factory=dict)  # desk-sweep: per-rate PSNR gap
    error: str | None = None  # first failed check, if any

    def iter_ms(self) -> float:
        return 1e3 * self.seconds / self.iterations


def call_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run ``lpsrecon.cli.main(argv)`` and time only that call.

    The module attribute is looked up at call time, so a traced pass sees
    the wrapped entry point. Output goes to buffers; stderr is returned. An
    argument the CLI rejects exits through ``SystemExit``; its code is
    returned like any other.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - started
    return code, seconds, err.getvalue()


def read_volume(path: Path) -> np.ndarray:
    """Read an LPSV volume file as its (n_x*n_y, n_z) complex matrix."""
    try:
        raw = path.read_bytes()
        magic, version, n_x, n_y, n_z = _LPSV_HEADER.unpack_from(raw)
    except (OSError, struct.error) as exc:
        raise CheckError(f"{path.name}: unreadable ({exc})") from exc
    if magic != b"LPSV" or version != 1:
        raise CheckError(f"{path.name}: bad header {magic!r} v{version}")
    if len(raw) != _LPSV_HEADER.size + 16 * n_x * n_y * n_z:
        raise CheckError(f"{path.name}: payload size does not match dims ({n_x}, {n_y}, {n_z})")
    data = np.frombuffer(raw, dtype="<c16", offset=_LPSV_HEADER.size)
    return data.reshape((n_x * n_y, n_z), order="F")


def magnitude_psnr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """PSNR of magnitude images, peak = max |reference|."""
    ref_mag = np.abs(reference)
    rmse = math.sqrt(float(np.mean((ref_mag - np.abs(estimate)) ** 2)))
    return 20.0 * math.log10(float(ref_mag.max()) / rmse) if rmse else math.inf


def _csv_rows(path: Path, header: str) -> list[list[str]]:
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{path.name}: unreadable ({exc})") from exc
    if not lines or lines[0] != header:
        raise CheckError(f"{path.name}: unexpected header {lines[:1]}")
    return [line.split(",") for line in lines[1:]]


def _check_ls_converged(stalled: list[str]) -> None:
    if stalled:
        raise CheckError(f"ls stopped at max_iter on {len(stalled)} frame(s): {', '.join(stalled[:3])}")


def _finite(value: str, what: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise CheckError(f"{what}: non-finite PSNR {value}")
    return number


class DeskSweep:
    """``lpsrecon sweep`` on the acceptance grid of criterion 5."""

    name = "desk-sweep"
    header = "solver,rate,seed,frame,psnr_db,iterations,converged"
    solvers = ("ls", "priori-ls")
    first_rate = 0.5
    rates = (1 / 7, 1 / 5, 1 / 3)
    n_seeds = 5
    n_frames = 6
    psnr_floor_db = 17.0  # seeds 0-20 give 18.16 to 19.77 dB
    min_gap_db = 0.5  # at the lowest rate, as in acceptance criterion 5

    @property
    def frames(self) -> int:
        return len(self.solvers) * len(self.rates) * self.n_seeds * self.n_frames

    def setup(self, work: Path, seed: int) -> Path:
        config = work / "sweep.cfg"
        config.write_text(
            f"[phantom]\nseed = {seed}\n\n[sweep]\nfirst_frame_rate = {self.first_rate!r}\n"
            f"rates = {', '.join(repr(r) for r in self.rates)}\n"
            f"solvers = {', '.join(self.solvers)}\nn_seeds = {self.n_seeds}\n"
        )
        return config

    def run(self, config: Path, out: Path) -> Pass:
        result = Pass(self.frames)
        try:
            code, seconds, err = call_cli(["sweep", "--config", str(config), "--out", str(out)])
            result.seconds = seconds
            if code != 0:
                raise CheckError(f"sweep exited {code}: {err.strip()}")
            rows = _csv_rows(out / "sweep.csv", self.header)
            self.check(rows, result)
        except (CheckError, ValueError, IndexError) as exc:
            result.error = str(exc)
        return result

    def check(self, rows: list[list[str]], result: Pass) -> None:
        # Frame 1 of every cell is sampled at the first-frame rate.
        grid = sorted((s, f"{rate if t else self.first_rate:.6f}", str(k), str(t + 1))
                      for s in self.solvers for rate in self.rates
                      for k in range(self.n_seeds) for t in range(self.n_frames))
        if sorted(tuple(r[:4]) for r in rows) != grid:
            raise CheckError(f"sweep.csv has {len(rows)} rows, not the {len(grid)}-row grid")
        result.iterations = sum(int(r[5]) for r in rows)
        stalled = [r for r in rows if r[6] != "true"]
        _check_ls_converged([f"ls rate {r[1]} seed {r[2]} frame {r[3]}" for r in stalled
                             if r[0] == "ls"])
        result.unconverged = len(stalled)
        means = {}
        for solver, rate, seed, frame, psnr, _, _ in rows:
            value = _finite(psnr, f"{solver} rate {rate} seed {seed} frame {frame}")
            if int(frame) >= 2:
                means.setdefault((solver, rate), []).append(value)
        paper = [v for (solver, _), values in means.items() if solver == "priori-ls" for v in values]
        result.psnr_db, result.psnr_frames = float(np.mean(paper)), len(paper)
        for rate in (f"{r:.6f}" for r in self.rates):
            result.gaps[rate] = float(np.mean(means[("priori-ls", rate)]) - np.mean(means[("ls", rate)]))
        for rate, gap in result.gaps.items():
            if gap < 0:
                raise CheckError(f"priori-ls loses to ls at rate {rate}: {gap:+.3f} dB")
        lowest = result.gaps[f"{self.rates[0]:.6f}"]
        if lowest < self.min_gap_db:
            raise CheckError(f"gap at the lowest rate is {lowest:+.3f} dB < {self.min_gap_db}")
        if result.psnr_db < self.psnr_floor_db:
            raise CheckError(f"priori-ls PSNR {result.psnr_db:.3f} dB below floor {self.psnr_floor_db}")


@dataclass
class _SequenceInputs:
    config: Path
    frames: Path
    mask_seed: int


@dataclass
class Sequence:
    """``lpsrecon recon-seq`` on a phantom sequence the benchmark writes."""

    name: str
    dims: tuple[int, int, int]
    n_frames: int
    solver: str
    first_rate: float  # sampling rate of frame 1
    rate: float  # sampling rate of frames >= 2
    psnr_floor_db: float

    @property
    def frames(self) -> int:
        return self.n_frames

    def setup(self, work: Path, seed: int) -> _SequenceInputs:
        n_x, n_y, n_z = self.dims
        config = work / "phantom.cfg"
        config.write_text(
            f"[phantom]\nn_x = {n_x}\nn_y = {n_y}\nn_z = {n_z}\n"
            f"n_frames = {self.n_frames}\nseed = {seed}\n"
        )
        frames = work / "frames"
        code, _, err = call_cli(["phantom", "gen", "--config", str(config), "--out", str(frames)])
        if code != 0:
            raise CheckError(f"phantom gen exited {code}: {err.strip()}")
        return _SequenceInputs(config, frames, mask_seed=seed)

    def run(self, inputs: _SequenceInputs, out: Path) -> Pass:
        result = Pass(self.n_frames)
        try:
            code, seconds, err = call_cli([
                "recon-seq", "--frames", str(inputs.frames), "--out", str(out),
                "--config", str(inputs.config), "--solver", self.solver,
                "--first-rate", repr(self.first_rate), "--rate", repr(self.rate),
                "--mask-seed", str(inputs.mask_seed),
            ])
            result.seconds = seconds
            if code != 0:
                raise CheckError(f"recon-seq exited {code}: {err.strip()}")
            self.check(inputs.frames, out, result)
        except (CheckError, ValueError, IndexError) as exc:
            result.error = str(exc)
        return result

    def check(self, frames: Path, out: Path, result: Pass) -> None:
        rows = _csv_rows(out / "metrics.csv", "frame,iterations,converged,data_residual,psnr_db")
        if [int(r[0]) for r in rows] != list(range(1, self.n_frames + 1)):
            raise CheckError(f"metrics.csv has frames {[r[0] for r in rows]}, "
                             f"expected 1..{self.n_frames}")
        result.iterations = sum(int(r[1]) for r in rows)
        # Frame 1 is always solved by ls; with --solver ls every frame is.
        stalled = [r[0] for r in rows if r[2] != "true"]
        _check_ls_converged([f"frame {f}" for f in stalled if f == "1" or self.solver == "ls"])
        result.unconverged = len(stalled)
        # Frames >= 2 are scored; a one-frame sequence scores its only frame.
        scored = [_finite(r[4], f"frame {r[0]}") for r in rows[1:] or rows]
        result.psnr_db, result.psnr_frames = float(np.mean(scored)), len(scored)
        for frame, _, _, _, psnr in rows:
            base = f"frame{int(frame):04d}"
            x = read_volume(out / f"{base}.x")
            l_part = read_volume(out / f"{base}.l")
            s_part = read_volume(out / f"{base}.s")
            if not (l_part.shape == s_part.shape == x.shape and np.array_equal(l_part + s_part, x)):
                raise CheckError(f"{base}: .l + .s does not equal .x bit for bit")
            measured = magnitude_psnr(read_volume(frames / f"{base}.x"), x)
            if abs(measured - float(psnr)) > 1e-5:
                raise CheckError(f"{base}: metrics.csv PSNR {psnr} but files give {measured:.6f}")
        if result.psnr_db < self.psnr_floor_db:
            raise CheckError(f"PSNR {result.psnr_db:.3f} dB below floor {self.psnr_floor_db}")


WORKLOADS = {
    w.name: w
    for w in (
        DeskSweep(),
        # FFT, wavelet, SVT and the sigma-prior SVD each take 10-20% of an
        # iteration; the prior path and volume I/O run every frame.
        Sequence(
            "seq-128-priori", dims=(128, 128, 8), n_frames=6, solver="priori-ls",
            first_rate=0.5, rate=1 / 7,
            psnr_floor_db=23.0,  # seeds 0-20 give 25.82 to 31.03 dB
        ),
        # Dense wavelet level matrices and the 65536x16 SVD dominate; no prior
        # step runs. One frame keeps a pass near 20 s on one core.
        Sequence(
            "seq-256-ls", dims=(256, 256, 16), n_frames=1, solver="ls",
            first_rate=1 / 3, rate=1 / 3,
            psnr_floor_db=39.0,  # seeds 0-20 give 41.89 to 46.07 dB
        ),
    )
}

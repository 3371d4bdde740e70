"""Reproducible experiments: config files, paired sweeps, CSV reports.

A sweep runs every (solver, rate, seed) cell of the experiment grid on
freshly generated phantoms, reconstructs the whole sequence, and reports
per-frame PSNR. The first frame is always sampled at ``first_frame_rate``
(no prior exists for it); the swept rate applies to the later frames, so
summary rows average frames 2..n only.

Masks are regenerated per (seed, rate, frame-tier) with seeds derived
arithmetically from the experiment seed, and are shared by both solvers so
comparisons are paired. sweep.csv is byte-stable across reruns of the same
config: wall-clock times and timestamps go to run.log only.
"""

from __future__ import annotations

import configparser
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import DynamicVolume, SolverConfig
from .operators import KSpaceData, acquire, make_mask
from .phantom import PhantomSpec, generate, psnr
from .solvers import SolveResult, default_config, solve_sequence

__all__ = [
    "ExperimentSpec",
    "SolverOptions",
    "SweepRow",
    "parse_config",
    "build_solver_config",
    "reconstruct_sequence",
    "run_sweep",
    "write_sweep_csv",
    "write_summary_csv",
]

KNOWN_SOLVERS = ("ls", "priori-ls")


@dataclass
class SolverOptions:
    """Raw per-solver settings; None thresholds mean data-scaled defaults."""

    lambda_l: float | None = None
    lambda_s: float | None = None
    lambda_p: float = 0.7
    tol: float = 1e-3
    max_iter: int = 300
    support_eps: float = 0.02
    lambda_l_scale: float = 0.05
    lambda_s_scale: float = 0.02


@dataclass
class ExperimentSpec:
    """One sweep: phantom, sampling protocol, solvers, seeds, output."""

    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    first_frame_rate: float = 0.5
    rates: tuple[float, ...] = (1 / 7, 1 / 5, 1 / 3)
    solvers: tuple[str, ...] = KNOWN_SOLVERS
    n_seeds: int = 5
    output_dir: str = "sweep_out"
    density_falloff: float = 2.0

    def __post_init__(self):
        if len(self.rates) == 0:
            raise ValueError("rates must be nonempty")
        if any(not 0 < r < 1 for r in self.rates):
            raise ValueError(f"rates must lie in (0, 1), got {self.rates}")
        if any(b <= a for a, b in zip(self.rates, self.rates[1:])):
            raise ValueError(f"rates must be strictly increasing, got {self.rates}")
        if not 0 < self.first_frame_rate <= 1:
            raise ValueError(f"first_frame_rate must be in (0, 1], got {self.first_frame_rate}")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if len(self.solvers) == 0:
            raise ValueError("solvers must be nonempty")
        for s in self.solvers:
            if s not in KNOWN_SOLVERS:
                raise ValueError(f"unknown solver {s!r}, expected one of {KNOWN_SOLVERS}")


@dataclass
class SweepRow:
    """One reconstructed frame of one sweep cell."""

    solver: str
    rate: float
    seed: int
    frame: int
    psnr_db: float
    iterations: int
    converged: bool

    def sort_key(self):
        return (self.solver, round(self.rate, 6), self.seed, self.frame)


def _get_typed(section, key, cast, default):
    if section is None or key not in section:
        return default
    raw = section[key].strip()
    if cast is bool:
        return raw.lower() in ("1", "true", "yes", "on")
    return cast(raw)


def _parse_phantom(section) -> PhantomSpec:
    base = PhantomSpec()
    dims = (
        _get_typed(section, "n_x", int, base.dims[0]),
        _get_typed(section, "n_y", int, base.dims[1]),
        _get_typed(section, "n_z", int, base.dims[2]),
    )
    return PhantomSpec(
        dims=dims,
        n_frames=_get_typed(section, "n_frames", int, base.n_frames),
        background_rank=_get_typed(section, "background_rank", int, base.background_rank),
        n_blobs=_get_typed(section, "n_blobs", int, base.n_blobs),
        blob_amplitude=_get_typed(section, "blob_amplitude", float, base.blob_amplitude),
        motion_step=_get_typed(section, "motion_step", float, base.motion_step),
        noise_sigma=_get_typed(section, "noise_sigma", float, base.noise_sigma),
        seed=_get_typed(section, "seed", int, base.seed),
        drift_rate=_get_typed(section, "drift_rate", float, base.drift_rate),
        blob_width=_get_typed(section, "blob_width", float, base.blob_width),
    )


def _parse_solver(section) -> SolverOptions:
    base = SolverOptions()

    def threshold(key):
        if section is None or key not in section:
            return None
        raw = section[key].strip().lower()
        return None if raw == "auto" else float(raw)

    return SolverOptions(
        lambda_l=threshold("lambda_l"),
        lambda_s=threshold("lambda_s"),
        lambda_p=_get_typed(section, "lambda_p", float, base.lambda_p),
        tol=_get_typed(section, "tol", float, base.tol),
        max_iter=_get_typed(section, "max_iter", int, base.max_iter),
        support_eps=_get_typed(section, "support_eps", float, base.support_eps),
        lambda_l_scale=_get_typed(section, "lambda_l_scale", float, base.lambda_l_scale),
        lambda_s_scale=_get_typed(section, "lambda_s_scale", float, base.lambda_s_scale),
    )


def parse_config(path) -> tuple[ExperimentSpec, SolverOptions, SolverOptions]:
    """Parse a plain-text config file.

    Sections: [phantom], [solver.ls], [solver.priori], [sweep]; key=value
    lines; '#' starts a comment. Missing keys fall back to defaults.
    """
    cp = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    text = Path(path).read_text()
    cp.read_string(text, source=str(path))

    phantom = _parse_phantom(cp["phantom"] if cp.has_section("phantom") else None)
    ls_opts = _parse_solver(cp["solver.ls"] if cp.has_section("solver.ls") else None)
    priori_opts = _parse_solver(cp["solver.priori"] if cp.has_section("solver.priori") else None)

    sw = cp["sweep"] if cp.has_section("sweep") else None
    base = ExperimentSpec()
    rates = base.rates
    if sw is not None and "rates" in sw:
        rates = tuple(float(tok) for tok in sw["rates"].split(",") if tok.strip())
    solvers = base.solvers
    if sw is not None and "solvers" in sw:
        solvers = tuple(tok.strip() for tok in sw["solvers"].split(",") if tok.strip())
    experiment = ExperimentSpec(
        phantom=phantom,
        first_frame_rate=_get_typed(sw, "first_frame_rate", float, base.first_frame_rate),
        rates=rates,
        solvers=solvers,
        n_seeds=_get_typed(sw, "n_seeds", int, base.n_seeds),
        output_dir=_get_typed(sw, "output_dir", str, base.output_dir),
        density_falloff=_get_typed(sw, "density_falloff", float, base.density_falloff),
    )
    return experiment, ls_opts, priori_opts


def build_solver_config(y: KSpaceData, opts: SolverOptions) -> SolverConfig:
    """Concrete SolverConfig for one acquisition, resolving auto thresholds."""
    if opts.lambda_l is None or opts.lambda_s is None:
        cfg = default_config(
            y,
            lambda_p=opts.lambda_p,
            tol=opts.tol,
            max_iter=opts.max_iter,
            support_eps=opts.support_eps,
            lambda_l_scale=opts.lambda_l_scale,
            lambda_s_scale=opts.lambda_s_scale,
        )
        lambda_l = opts.lambda_l if opts.lambda_l is not None else cfg.lambda_L
        lambda_s = opts.lambda_s if opts.lambda_s is not None else cfg.lambda_S
    else:
        lambda_l, lambda_s = opts.lambda_l, opts.lambda_s
    return SolverConfig(
        lambda_L=lambda_l,
        lambda_S=lambda_s,
        lambda_p=opts.lambda_p,
        tol=opts.tol,
        max_iter=opts.max_iter,
        support_eps=opts.support_eps,
    )


def _mask_seed(base_seed: int, seed_index: int, rate: float, tier: int) -> int:
    # Stable arithmetic derivation; keeps masks paired across solvers.
    return (base_seed * 1_000_003 + seed_index * 9_176 + int(round(rate * 1e6)) * 31 + tier) % (
        2**31 - 1
    )


def reconstruct_sequence(
    frames: Iterable[KSpaceData],
    solver: str,
    ls_opts: SolverOptions,
    priori_opts: SolverOptions,
) -> Iterator[SolveResult]:
    """Reconstruct a sequence with ``solver``, yielding each frame's result
    as soon as it is solved (see ``solve_sequence``). Frame 1 has no prior: it
    is solved by ``ls`` with ``ls_opts``, configured from its own samples.
    The later frames share one config, resolved from frame 2 with the
    solver's options."""
    if solver not in KNOWN_SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {KNOWN_SOLVERS}")
    use_prior = solver == "priori-ls"
    rest_opts = priori_opts if use_prior else ls_opts
    return solve_sequence(
        frames,
        lambda y: build_solver_config(y, ls_opts),
        lambda y: build_solver_config(y, rest_opts),
        use_prior=use_prior,
    )


def _solve_cell(
    experiment: ExperimentSpec,
    solver: str,
    rate: float,
    seed_index: int,
    ls_opts: SolverOptions,
    priori_opts: SolverOptions,
) -> list[SweepRow]:
    phantom_spec = replace(experiment.phantom, seed=experiment.phantom.seed + seed_index)
    sequence = generate(phantom_spec)
    n_x, n_y, _ = phantom_spec.dims
    base = experiment.phantom.seed
    mask_first = make_mask(
        n_x, n_y, experiment.first_frame_rate, experiment.density_falloff,
        seed=_mask_seed(base, seed_index, rate, 0),
    )
    mask_rest = make_mask(
        n_x, n_y, rate, experiment.density_falloff,
        seed=_mask_seed(base, seed_index, rate, 1),
    )
    kspace = (
        acquire(frame, mask_first if t == 0 else mask_rest)
        for t, frame in enumerate(sequence.frames)
    )
    results = reconstruct_sequence(kspace, solver, ls_opts, priori_opts)
    return [
        SweepRow(
            solver=solver,
            rate=experiment.first_frame_rate if t == 0 else rate,
            seed=seed_index,
            frame=t + 1,
            psnr_db=psnr(reference, DynamicVolume(result.estimate(), phantom_spec.dims)),
            iterations=result.iterations,
            converged=result.converged,
        )
        for t, (reference, result) in enumerate(zip(sequence.frames, results))
    ]


def _fmt_psnr(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6f}"


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    lines = ["solver,rate,seed,frame,psnr_db,iterations,converged"]
    for row in sorted(rows, key=SweepRow.sort_key):
        lines.append(
            f"{row.solver},{row.rate:.6f},{row.seed},{row.frame},"
            f"{_fmt_psnr(row.psnr_db)},{row.iterations},{str(row.converged).lower()}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary_csv(path, rows: list[SweepRow]) -> None:
    """Mean PSNR per (solver, rate) over frames >= 2 (the swept frames)."""
    groups: dict[tuple[str, float], list[float]] = {}
    for row in rows:
        if row.frame < 2:
            continue
        groups.setdefault((row.solver, round(row.rate, 6)), []).append(row.psnr_db)
    lines = ["solver,rate,mean_psnr_db"]
    for (solver, rate), values in sorted(groups.items()):
        lines.append(f"{solver},{rate:.6f},{_fmt_psnr(float(np.mean(values)))}")
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep(
    experiment: ExperimentSpec,
    ls_opts: SolverOptions | None = None,
    priori_opts: SolverOptions | None = None,
) -> list[SweepRow]:
    """Run the full solver x rate x seed grid and write CSV reports.

    Writes sweep.csv, summary.csv, and run.log into the experiment's
    output directory and returns the rows. Cells run sequentially; row
    order in the files is sorted, independent of execution order.
    """
    ls_opts = ls_opts or SolverOptions()
    priori_opts = priori_opts or SolverOptions()
    out = Path(experiment.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_lines = [f"sweep started {time.strftime('%Y-%m-%dT%H:%M:%S')}"]

    all_rows: list[SweepRow] = []
    for solver in experiment.solvers:
        for rate in experiment.rates:
            for seed_index in range(experiment.n_seeds):
                started = time.perf_counter()
                rows = _solve_cell(experiment, solver, rate, seed_index, ls_opts, priori_opts)
                wall = time.perf_counter() - started
                log_lines.append(
                    f"cell solver={solver} rate={rate:.6f} seed={seed_index} wall={wall:.3f}s"
                )
                all_rows.extend(rows)

    write_sweep_csv(out / "sweep.csv", all_rows)
    write_summary_csv(out / "summary.csv", all_rows)
    unconverged = sum(not row.converged for row in all_rows)
    log_lines.append(f"unconverged frames: {unconverged} of {len(all_rows)} stopped at max_iter")
    log_lines.append(f"sweep finished {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    (out / "run.log").write_text("\n".join(log_lines) + "\n")
    return all_rows

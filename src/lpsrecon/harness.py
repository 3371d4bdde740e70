"""Reproducible experiments: config files, paired sweeps, CSV reports.

A sweep runs every (solver, rate, seed) cell of the experiment grid on
freshly generated phantoms, reconstructs the whole sequence, and reports
per-frame PSNR. The first frame is always sampled at ``first_frame_rate``
(no prior exists for it); the swept rate applies to the later frames, so
summary rows average frames 2..n only.

Masks are regenerated per (seed, rate, frame-tier) with seeds derived
arithmetically from the experiment seed. They are shared by both solvers, as
is the one solver config, so comparisons are paired. sweep.csv is
byte-stable across reruns of the same config: wall-clock times and
timestamps go to run.log only.
"""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import DynamicVolume, SolverConfig
from .operators import acquire, make_mask
from .phantom import PhantomSpec, generate, psnr
from .solvers import KNOWN_SOLVERS, solve_sequence
from .wavelets import check_slice_dims

__all__ = [
    "ExperimentSpec",
    "SweepRow",
    "parse_config",
    "run_sweep",
    "write_sweep_csv",
    "write_summary_csv",
]

@dataclass
class ExperimentSpec:
    """One sweep: phantom, sampling protocol, solvers, seeds, output."""

    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    first_frame_rate: float = 0.5
    rates: tuple[float, ...] = (1 / 7, 1 / 5, 1 / 3)
    solvers: tuple[str, ...] = KNOWN_SOLVERS
    n_seeds: int = 5
    output_dir: str = "sweep_out"

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


def _threshold(raw: str) -> float | None:
    return None if raw.lower() == "auto" else float(raw)


def _name_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(map(float, _name_list(raw)))


# Section -> {field: cast}; a field's key in the file is its lower-cased name.
_SECTIONS = {
    "phantom": {
        **dict.fromkeys(("n_x", "n_y", "n_z", "n_frames", "background_rank", "n_blobs", "seed"), int),
        **dict.fromkeys(("blob_amplitude", "motion_step", "noise_sigma", "drift_rate", "blob_width"),
                        float),
    },
    "solver": {
        "lambda_L": _threshold,
        "lambda_S": _threshold,
        "max_iter": int,
        **dict.fromkeys(("lambda_p", "tol", "support_eps", "lambda_l_scale", "lambda_s_scale"),
                        float),
    },
    "sweep": {
        "first_frame_rate": float,
        "rates": _float_list,
        "solvers": _name_list,
        "n_seeds": int,
        "output_dir": str,
    },
}


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    """Typed field values of one section; an unknown key or an unreadable
    value raises ValueError naming the section and key."""
    casts = _SECTIONS[name]
    fields = {field.lower(): field for field in casts}
    values = {}
    for key, raw in (cp[name] if cp.has_section(name) else {}).items():
        if key not in fields:
            raise ValueError(f"[{name}] unknown key {key!r}, expected one of {', '.join(fields)}")
        try:
            values[fields[key]] = casts[fields[key]](raw.strip())
        except ValueError as exc:
            raise ValueError(f"[{name}] {key}: {exc}") from None
    return values


def _build(name: str, make, **values):
    """``make(**values)``, with a validation error prefixed by the section."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ValueError(f"[{name}] {exc}") from None


def parse_config(path) -> tuple[ExperimentSpec, SolverConfig]:
    """Parse a plain-text config file into the experiment and the one solver
    config that every solver and frame of the run uses.

    Sections: [phantom], [solver], [sweep]; key=value lines; '#' starts a
    comment. Missing sections and keys fall back to defaults; an unknown
    section or key, or a value that does not parse or validate, raises
    ValueError naming the section and key.
    """
    cp = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    cp.read_string(Path(path).read_text(), source=str(path))
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}], expected one of "
                             f"{', '.join(f'[{known}]' for known in _SECTIONS)}")

    phantom = _section(cp, "phantom")
    dims = tuple(phantom.pop(key, n) for key, n in zip(("n_x", "n_y", "n_z"), PhantomSpec().dims))
    experiment = _build(
        "sweep", ExperimentSpec, phantom=_build("phantom", PhantomSpec, dims=dims, **phantom),
        **_section(cp, "sweep"),
    )
    return experiment, _build("solver", SolverConfig, **_section(cp, "solver"))


def _mask_seed(base_seed: int, seed_index: int, rate: float, tier: int) -> int:
    # Stable arithmetic derivation; keeps masks paired across solvers.
    return (base_seed * 1_000_003 + seed_index * 9_176 + int(round(rate * 1e6)) * 31 + tier) % (
        2**31 - 1
    )


def _solve_cell(
    experiment: ExperimentSpec,
    solver: str,
    rate: float,
    seed_index: int,
    cfg: SolverConfig,
) -> list[SweepRow]:
    phantom_spec = replace(experiment.phantom, seed=experiment.phantom.seed + seed_index)
    sequence = generate(phantom_spec)
    n_x, n_y, _ = phantom_spec.dims
    base = experiment.phantom.seed
    mask_first = make_mask(n_x, n_y, experiment.first_frame_rate,
                           seed=_mask_seed(base, seed_index, rate, 0))
    mask_rest = make_mask(n_x, n_y, rate, seed=_mask_seed(base, seed_index, rate, 1))
    kspace = (
        acquire(frame, mask_first if t == 0 else mask_rest)
        for t, frame in enumerate(sequence.frames)
    )
    results = solve_sequence(kspace, cfg, solver)
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


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    lines = ["solver,rate,seed,frame,psnr_db,iterations,converged"]
    for row in sorted(rows, key=SweepRow.sort_key):
        lines.append(
            f"{row.solver},{row.rate:.6f},{row.seed},{row.frame},"
            f"{row.psnr_db:.6f},{row.iterations},{str(row.converged).lower()}"
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
        lines.append(f"{solver},{rate:.6f},{float(np.mean(values)):.6f}")
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep(experiment: ExperimentSpec, cfg: SolverConfig | None = None) -> list[SweepRow]:
    """Run the full solver x rate x seed grid and write CSV reports.

    Writes sweep.csv, summary.csv, and run.log into the experiment's
    output directory and returns the rows. Cells run sequentially; row
    order in the files is sorted, independent of execution order.
    """
    cfg = cfg or SolverConfig()
    check_slice_dims(experiment.phantom.dims)
    out = Path(experiment.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_lines = [f"sweep started {time.strftime('%Y-%m-%dT%H:%M:%S')}"]

    all_rows: list[SweepRow] = []
    for solver in experiment.solvers:
        for rate in experiment.rates:
            for seed_index in range(experiment.n_seeds):
                started = time.perf_counter()
                rows = _solve_cell(experiment, solver, rate, seed_index, cfg)
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

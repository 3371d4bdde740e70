"""Command-line interface.

Subcommands:
    phantom gen   generate a synthetic sequence and write frame files
    mask gen      generate a variable-density sampling mask
    recon         reconstruct one volume from a simulated acquisition
    recon-seq     reconstruct a whole sequence, threading priors
    sweep         run the full solver x rate x seed grid from a config
    eval          PSNR between two volume files

Exit codes: 0 success, 1 runtime failure (diagnostic on stderr), 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from .core import Decomposition, DynamicVolume, SolverConfig
from .harness import ExperimentSpec, parse_config, run_sweep
from .io import load_mask, load_volume, save_mask, save_volume, volume_dims
from .operators import acquire, make_mask
from .phantom import generate_frames, psnr
from .solvers import (
    KNOWN_SOLVERS, prior_from_result, solve_ls, solve_priori_ls, solve_sequence, uses_prior,
)
from .wavelets import check_slice_dims

__all__ = ["main"]


def _seed(text: str) -> int:
    """argparse type of a mask seed: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpsrecon",
        description="Low-rank plus sparse reconstruction of dynamic volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phantom = sub.add_parser("phantom", help="phantom utilities")
    phantom_sub = p_phantom.add_subparsers(dest="subcommand", required=True)
    p_pg = phantom_sub.add_parser("gen", help="generate a phantom sequence")
    p_pg.add_argument("--config", help="config file with a [phantom] section")
    p_pg.add_argument("--out", required=True, help="output directory")

    p_mask = sub.add_parser("mask", help="mask utilities")
    mask_sub = p_mask.add_subparsers(dest="subcommand", required=True)
    p_mg = mask_sub.add_parser("gen", help="generate a variable-density mask")
    p_mg.add_argument("--nx", type=int, required=True)
    p_mg.add_argument("--ny", type=int, required=True)
    p_mg.add_argument("--rate", type=float, required=True)
    p_mg.add_argument("--seed", type=_seed, default=0)
    p_mg.add_argument("--out", required=True, help="output .lpsm file")

    p_recon = sub.add_parser("recon", help="reconstruct a single volume")
    p_recon.add_argument("--input", required=True, help="ground-truth volume file")
    p_recon.add_argument("--mask", required=True, help="sampling mask file")
    p_recon.add_argument("--out", required=True, help="output basename (writes .x/.l/.s)")
    p_recon.add_argument("--config", help="config file for solver settings")
    p_recon.add_argument("--prior-l", help="previous frame's L volume file")
    p_recon.add_argument("--prior-s", help="previous frame's S volume file")
    p_recon.add_argument("--reference", help="reference volume for PSNR")

    p_seq = sub.add_parser("recon-seq", help="reconstruct a sequence of volumes")
    p_seq.add_argument("--frames", required=True, help="directory of frame*.x files")
    p_seq.add_argument("--out", required=True, help="output directory")
    p_seq.add_argument("--config", help="config file")
    p_seq.add_argument("--solver", choices=KNOWN_SOLVERS, default="priori-ls")
    p_seq.add_argument("--rate", type=float, help="sampling rate for frames >= 2")
    p_seq.add_argument("--first-rate", type=float, help="sampling rate for frame 1")
    p_seq.add_argument("--mask-seed", type=_seed, default=0)

    p_sweep = sub.add_parser("sweep", help="run the full experiment grid")
    p_sweep.add_argument("--config", required=True, help="config file")
    p_sweep.add_argument("--out", help="override the output directory")

    p_eval = sub.add_parser("eval", help="PSNR between two volume files")
    p_eval.add_argument("reference")
    p_eval.add_argument("estimate")

    return parser


def _load_options(config_path):
    if config_path is None:
        return ExperimentSpec(), SolverConfig()
    return parse_config(config_path)


def _write_components(out_base: Path, dims, decomposition: Decomposition) -> DynamicVolume:
    """Write the .x/.l/.s files of one solve and return its estimate L + S."""
    estimate = DynamicVolume(decomposition.estimate(), dims)
    save_volume(out_base.with_suffix(".x"), estimate)
    save_volume(out_base.with_suffix(".l"), DynamicVolume(decomposition.L, dims))
    save_volume(out_base.with_suffix(".s"), DynamicVolume(decomposition.S, dims))
    return estimate


def _cmd_phantom_gen(args) -> int:
    spec = _load_options(args.config)[0].phantom
    frames = generate_frames(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Not enumerate(frames): its reused result tuple would keep the last
    # frame alive while the next one is made.
    for t in range(1, spec.n_frames + 1):
        x, l, s = next(frames)
        base = out / f"frame{t:04d}"
        save_volume(base.with_suffix(".x"), x)
        save_volume(base.with_suffix(".l"), l)
        save_volume(base.with_suffix(".s"), s)
        del x, l, s  # hold no frame through the next one's generation
    print(f"wrote {spec.n_frames} frames to {out}")
    return 0


def _cmd_mask_gen(args) -> int:
    mask = make_mask(args.nx, args.ny, args.rate, seed=args.seed)
    save_mask(args.out, mask)
    print(f"wrote mask {args.out}: {mask.m} of {mask.pattern.size} samples "
          f"(rate {mask.rate:.4f})")
    return 0


METRICS_HEADER = "frame,iterations,converged,data_residual,psnr_db"


def _metrics_line(frame: int, result, reference: DynamicVolume, estimate: DynamicVolume) -> str:
    return (
        f"{frame},{result.iterations},{str(result.converged).lower()},"
        f"{result.data_residual:.6e},{psnr(reference, estimate):.6f}"
    )


def _warn_unconverged(frame: int, result, log=None) -> None:
    if not result.converged:
        warning = (f"warning: frame {frame} stopped at max_iter={result.iterations} without "
                   f"converging (last relative change {result.residual_history[-1]:.3e})")
        print(warning, file=sys.stderr)
        if log is not None:
            print(warning, file=log)


def _cmd_recon(args, parser) -> int:
    if (args.prior_l is None) != (args.prior_s is None):
        parser.error("--prior-l and --prior-s must be given together")
    # The prior and reference files' headers and sizes are checked against the
    # input's before any payload is read, so a mismatch fails before the solve.
    dims = volume_dims(args.input)
    check_slice_dims(dims)
    for path in filter(None, (args.prior_l, args.prior_s, args.reference)):
        if (other := volume_dims(path)) != dims:
            raise ValueError(f"{path}: dims {other} differ from input volume {dims}")
    volume = load_volume(args.input)
    mask = load_mask(args.mask)
    if mask.pattern.shape != volume.dims[:2]:
        raise ValueError(
            f"mask grid {mask.pattern.shape} does not match volume dims {volume.dims}"
        )
    _, cfg = _load_options(args.config)
    y = acquire(volume, mask)
    if args.prior_l is not None:
        previous = Decomposition(load_volume(args.prior_l).data, load_volume(args.prior_s).data)
        prior = prior_from_result(previous, volume.dims, cfg.support_eps)
        result = solve_priori_ls(y, prior, cfg)
        solver = "priori-ls"
    else:
        result = solve_ls(y, cfg)
        solver = "ls"
    estimate = _write_components(Path(args.out), volume.dims, result.decomposition)
    reference = load_volume(args.reference) if args.reference else volume
    print(METRICS_HEADER)
    print(_metrics_line(1, result, reference, estimate))
    _warn_unconverged(1, result)
    print(f"# solver={solver} m={mask.m} rate={mask.rate:.4f}", file=sys.stderr)
    return 0


def _cmd_recon_seq(args) -> int:
    frame_files = sorted(Path(args.frames).glob("*.x"))
    if not frame_files:
        raise FileNotFoundError(f"no *.x frame files found in {args.frames}")
    # Every frame file's header and size are checked before any solve; each
    # payload is read only when its frame is acquired.
    dims = volume_dims(frame_files[0])
    for f in frame_files[1:]:
        if (other := volume_dims(f)) != dims:
            raise ValueError(f"{f}: dims {other} differ from first frame {dims}")
    check_slice_dims(dims)

    experiment, cfg = _load_options(args.config)
    first_rate = args.first_rate if args.first_rate is not None else experiment.first_frame_rate
    rate = args.rate if args.rate is not None else experiment.rates[0]
    n_x, n_y, _ = dims
    mask_first = make_mask(n_x, n_y, first_rate, seed=args.mask_seed)
    mask_rest = make_mask(n_x, n_y, rate, seed=args.mask_seed + 1)
    kspace = (acquire(load_volume(f), mask_first if t == 0 else mask_rest)
              for t, f in enumerate(frame_files))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # Each frame's files and metrics line are written as soon as it is solved.
    with open(out / "metrics.csv", "w") as metrics, open(out / "run.log", "w") as log:
        print(f"recon-seq started {time.strftime('%Y-%m-%dT%H:%M:%S')}", file=log)
        if uses_prior(args.solver):
            note = "frame 1: no prior available, falling back to plain L+S"
            print(note, file=log)
            print(note, file=sys.stderr)
        print(METRICS_HEADER, file=metrics)
        print(METRICS_HEADER)
        # As in phantom gen, the results are not enumerated, so that none is
        # held through the next frame's solve.
        results = solve_sequence(kspace, cfg, args.solver)
        for t, path in enumerate(frame_files, start=1):
            result = next(results)
            estimate = _write_components(out / f"frame{t:04d}", dims, result.decomposition)
            line = _metrics_line(t, result, load_volume(path), estimate)
            print(line, file=metrics)
            print(line)
            _warn_unconverged(t, result, log)
            del result, estimate
        print(f"recon-seq finished {time.strftime('%Y-%m-%dT%H:%M:%S')}", file=log)
    return 0


def _cmd_sweep(args) -> int:
    experiment, cfg = parse_config(args.config)
    if args.out is not None:
        experiment = replace(experiment, output_dir=args.out)
    rows = run_sweep(experiment, cfg)
    if unconverged := sum(not row.converged for row in rows):
        print(f"warning: {unconverged} of {len(rows)} frames stopped at max_iter without "
              "converging (see run.log)", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {Path(experiment.output_dir) / 'sweep.csv'}")
    return 0


def _cmd_eval(args) -> int:
    reference = load_volume(args.reference)
    estimate = load_volume(args.estimate)
    print(f"psnr_db={psnr(reference, estimate):.6f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "phantom":
            return _cmd_phantom_gen(args)
        if args.command == "mask":
            return _cmd_mask_gen(args)
        if args.command == "recon":
            return _cmd_recon(args, parser)
        if args.command == "recon-seq":
            return _cmd_recon_seq(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "eval":
            return _cmd_eval(args)
        parser.error(f"unknown command {args.command!r}")
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

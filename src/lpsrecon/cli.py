"""Command-line interface.

Subcommands:
    phantom gen   generate a synthetic sequence and write frame files
    recon         reconstruct one volume from a simulated acquisition
    recon-seq     reconstruct a whole sequence, threading priors
    sweep         run the full solver x rate x seed grid from a config
    eval          PSNR between two volume files

Every command but eval writes only under its required --out. Exit codes: 0
success, 1 runtime failure (diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .core import Decomposition, DynamicVolume, SolverConfig
from .harness import ExperimentSpec, _acquire_sequence, parse_config, run_sweep
from .io import load_volume, save_volume, volume_dims
from .operators import acquire, make_mask
from .phantom import generate_frames, psnr
from .solvers import KNOWN_SOLVERS, SolveResult, solve, solve_sequence, uses_prior
from .wavelets import check_slice_dims

__all__ = ["main"]


def _seed(text: str) -> int:
    """argparse type of a mask seed: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _path(text: str) -> str:
    """argparse type of a file or directory path: a nonempty string."""
    if not text:
        raise argparse.ArgumentTypeError("must be a nonempty path")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpsrecon",
        description="Low-rank plus sparse reconstruction of dynamic volumes.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phantom = sub.add_parser("phantom", help="phantom utilities", allow_abbrev=False)
    phantom_sub = p_phantom.add_subparsers(dest="subcommand", required=True)
    p_pg = phantom_sub.add_parser("gen", help="generate a phantom sequence", allow_abbrev=False)
    p_pg.add_argument("--config", type=_path, help="config file with a [phantom] section")
    p_pg.add_argument("--out", type=_path, required=True, help="output directory")
    p_pg.set_defaults(handler=_cmd_phantom_gen)

    p_recon = sub.add_parser("recon", help="reconstruct a single volume", allow_abbrev=False)
    p_recon.add_argument("--input", type=_path, required=True, help="ground-truth volume file")
    p_recon.add_argument("--out", type=_path, required=True, help="output basename (writes .x/.l/.s)")
    p_recon.add_argument("--config", type=_path, help="config file for solver settings")
    p_recon.add_argument("--prior", type=_path, help="previous frame's basename (reads its .l/.s)")
    p_recon.add_argument("--rate", type=float, default=ExperimentSpec.rates[0],
                         help="sampling rate (default 1/7)")
    p_recon.add_argument("--mask-seed", type=_seed, default=0)
    p_recon.set_defaults(handler=_cmd_recon)

    p_seq = sub.add_parser("recon-seq", help="reconstruct a sequence of volumes", allow_abbrev=False)
    p_seq.add_argument("--frames", type=_path, required=True,
                       help="directory of frame<N>.x files, read in frame-number order")
    p_seq.add_argument("--out", type=_path, required=True, help="output directory")
    p_seq.add_argument("--config", type=_path, help="config file")
    p_seq.add_argument("--solver", choices=KNOWN_SOLVERS, default="priori-ls")
    p_seq.add_argument("--rate", type=float, default=ExperimentSpec.rates[0],
                       help="sampling rate for frames >= 2 (default 1/7)")
    p_seq.add_argument("--first-rate", type=float, default=ExperimentSpec.first_frame_rate,
                       help="sampling rate for frame 1 (default %(default)s)")
    p_seq.add_argument("--mask-seed", type=_seed, default=0)
    p_seq.set_defaults(handler=_cmd_recon_seq)

    p_sweep = sub.add_parser("sweep", help="run the full experiment grid", allow_abbrev=False)
    p_sweep.add_argument("--config", type=_path, required=True, help="config file")
    p_sweep.add_argument("--out", type=_path, required=True, help="output directory")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_eval = sub.add_parser("eval", help="PSNR between two volume files", allow_abbrev=False)
    p_eval.add_argument("reference")
    p_eval.add_argument("estimate")
    p_eval.set_defaults(handler=_cmd_eval)

    return parser


def _load_options(config_path):
    if config_path is None:
        return ExperimentSpec(), SolverConfig()
    return parse_config(config_path)


def _refuse_overwrite(out: Path, flag: str, source: str | Path) -> None:
    """Refuse, before anything is written, an --out that resolves to the
    input given as ``flag``."""
    if out.resolve() == Path(source).resolve():
        raise ValueError(f"--out {out} is the {flag} {source}: the reconstruction would overwrite it")


def _frame_files(directory: Path, suffixes: str) -> list[tuple[int, Path]]:
    """(N, path) of every file frame<N>.<suffix> in ``directory``, N of ASCII digits and the
    suffix one of ``suffixes``, by N. Two files with one N and one suffix are refused."""
    found = {}
    for p in sorted(directory.glob(f"frame*.[{suffixes}]")):
        if (n := p.stem[5:]).isascii() and n.isdigit() and found.setdefault((int(n), p.suffix), p) != p:
            raise ValueError(f"{found[int(n), p.suffix]} and {p} are both frame {int(n)}: remove one")
    return sorted((n, p) for (n, _), p in found.items())


def _make_frames_dir(out: Path, n_frames: int) -> None:
    """Make the --out directory of a run that writes frames 1..n_frames. One
    that holds a frame file numbered above n_frames is refused first, since
    this run would leave that file among its own."""
    for number, path in _frame_files(out, "xls"):
        if number > n_frames:
            raise ValueError(f"--out {out} holds {path}, past the {n_frames} frames this run "
                             "writes: remove it or choose another --out")
    out.mkdir(parents=True, exist_ok=True)


def _write_frame(base: Path, x: DynamicVolume, l: DynamicVolume, s: DynamicVolume) -> None:
    """Write one frame's X, L and S to the files base.x, base.l and base.s."""
    for suffix, volume in ((".x", x), (".l", l), (".s", s)):
        save_volume(base.with_suffix(suffix), volume)


def _write_components(out_base: Path, dims, result: SolveResult) -> DynamicVolume:
    """Write the .x/.l/.s files of one solve and return its estimate L + S."""
    estimate = DynamicVolume(result.estimate(), dims)
    _write_frame(out_base, estimate, DynamicVolume(result.L, dims), DynamicVolume(result.S, dims))
    return estimate


def _cmd_phantom_gen(args) -> int:
    spec = _load_options(args.config)[0].phantom
    frames = generate_frames(spec)
    out = Path(args.out)
    _make_frames_dir(out, spec.n_frames)
    # Not enumerate(frames), nor named locals: either would keep the last
    # frame alive while the next one is made.
    for t in range(1, spec.n_frames + 1):
        _write_frame(out / f"frame{t:04d}", *next(frames))
    print(f"wrote {spec.n_frames} frames to {out}")
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


def _cmd_recon(args) -> int:
    # The files recon reads: --input, then BASE.l and BASE.s for --prior BASE.
    prior = [] if args.prior is None else [Path(args.prior).with_suffix(s) for s in (".l", ".s")]
    reads = [Path(args.input), *prior]
    # No file recon writes may be one it reads.
    out = Path(args.out)
    for flag, source in zip(("--input", "--prior", "--prior"), reads):
        for suffix in (".x", ".l", ".s"):
            _refuse_overwrite(out.with_suffix(suffix), flag, source)
    # Every file's header and size is checked against the input's, the mask
    # made and the config read before --out's directory is made or a payload
    # read, so a mismatch, a bad rate or a bad key fails before the solve.
    dims = volume_dims(args.input)
    check_slice_dims(dims)
    for path in prior:
        if (other := volume_dims(path)) != dims:
            raise ValueError(f"{path}: dims {other} differ from input volume {dims}")
    mask = make_mask(dims[0], dims[1], args.rate, seed=args.mask_seed)
    _, cfg = _load_options(args.config)
    out.parent.mkdir(parents=True, exist_ok=True)
    volume = load_volume(args.input)
    y = acquire(volume, mask)
    previous = Decomposition(*(load_volume(path).data for path in prior)) if prior else None
    result = solve(y, cfg, previous)
    estimate = _write_components(out, volume.dims, result)
    print(METRICS_HEADER)
    print(_metrics_line(1, result, volume, estimate))
    _warn_unconverged(1, result)
    print(f"# solver={'ls' if previous is None else 'priori-ls'} m={mask.m} rate={mask.rate:.4f}",
          file=sys.stderr)
    return 0


def _cmd_recon_seq(args) -> int:
    _refuse_overwrite(Path(args.out), "--frames", args.frames)
    frame_files = [path for _, path in _frame_files(Path(args.frames), "x")]
    if not frame_files:
        raise FileNotFoundError(f"no frame<N>.x files found in {args.frames}")
    # Every frame file's header and size are checked before any solve; each
    # payload is read only when its frame is acquired.
    dims = volume_dims(frame_files[0])
    for f in frame_files[1:]:
        if (other := volume_dims(f)) != dims:
            raise ValueError(f"{f}: dims {other} differ from first frame {dims}")
    check_slice_dims(dims)

    _, cfg = _load_options(args.config)
    kspace = _acquire_sequence((load_volume(f) for f in frame_files), dims[0], dims[1],
                               args.first_rate, args.rate, lambda tier: args.mask_seed + tier)

    out = Path(args.out)
    _make_frames_dir(out, len(frame_files))
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
            estimate = _write_components(out / f"frame{t:04d}", dims, result)
            line = _metrics_line(t, result, load_volume(path), estimate)
            print(line, file=metrics)
            print(line)
            _warn_unconverged(t, result, log)
            del result, estimate
        print(f"recon-seq finished {time.strftime('%Y-%m-%dT%H:%M:%S')}", file=log)
    return 0


def _cmd_sweep(args) -> int:
    experiment, cfg = parse_config(args.config)
    rows = run_sweep(experiment, cfg, out=args.out)
    if unconverged := sum(not row.converged for row in rows):
        print(f"warning: {unconverged} of {len(rows)} frames stopped at max_iter without "
              "converging (see run.log)", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {Path(args.out) / 'sweep.csv'}")
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
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary: report and exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of lpsrecon, driven from outside through ``lpsrecon.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload desk-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, plain and traced
    python3 perfbench/run.py --workload all --write-baseline perfbench/baseline.json

A run sets up its inputs ``SETUP_REPEATS`` times (a fresh interpreter
importing the package, then writing the inputs from ``--seed``) and reports
the median as ``setup_s``. It then runs whole passes of the workload while
the next pass still fits in ``--seconds``, at least one. Only the
``cli.main`` calls are timed. Every pass's outputs are checked; a failed
check, or a failed set-up, counts all frames of that pass as failed.

With ``--trace 0`` the last line holds the end-to-end metrics, measured on
unpatched code. With ``--trace 1`` the run sets up once and makes one
plain pass. It then repeats set-up and one pass with the layer entry points
wrapped (see tracing.py), and reports the per-layer split of that pass;
``trace.overhead_s`` is the traced pass time minus the plain one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
starting with ``report``, carries the full record (environment, metrics
that are printed but not gated, sample counts) for ``--workload all``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import ENTRY_POINTS, GENERATE, ITERATE, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 20
SETUP_REPEATS = 7
# One BLAS thread (at most nproc) keeps timings steady on small shared machines.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better); the metrics in the last line with --trace 0.
END_TO_END = {
    "iter_ms": ("ms", "lower"),
    "psnr_db": ("dB", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_imports():
    """Pin BLAS threads and import lpsrecon from this checkout's src/ only."""
    if not (SRC / "lpsrecon" / "__init__.py").is_file():
        _fail(f"no lpsrecon package under {SRC}; run from a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import lpsrecon

    if Path(lpsrecon.__file__).resolve().parent != SRC / "lpsrecon":
        _fail(f"imported lpsrecon from {lpsrecon.__file__}, not from {SRC}")


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when its library can be found."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parents[1] / "numpy.libs" / "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads() or BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "src_lines": src_lines,
        "default_seed": DEFAULT_SEED,
    }


def _timed_setup(workload, work: Path, seed: int):
    started = time.perf_counter()
    # No timeout: with one, the wait polls the child in sleeps of up to 50 ms,
    # which would show up in the measured set-up time.
    subprocess.run([sys.executable, "-c", "import lpsrecon.cli"], env=_child_env(),
                   cwd=ROOT, check=True)
    inputs = workload.setup(work, seed)
    return time.perf_counter() - started, inputs


def _run_pass(workload, inputs, out: Path):
    result = workload.run(inputs, out)
    shutil.rmtree(out, ignore_errors=True)
    return result


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, run the passes and return the run's record."""
    from workloads import CheckError, Pass

    # A traced run reports no set-up time, so it sets up once and saves the
    # time for its second pass.
    setups, passes = [], []
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            elapsed, inputs = _timed_setup(workload, work, seed)
            setups.append(elapsed)
    except CheckError as exc:
        passes.append(Pass(workload.frames, error=f"set-up: {exc}"))
    record = {"passes": passes, "setups": setups}
    if not passes:
        # Whole passes while the next one, as long as the last, still fits in
        # `seconds`. A pass of each workload takes about 15-25 s on one core,
        # so a 20 s run makes one pass; a longer run makes more.
        window = time.perf_counter()
        while True:
            started = time.perf_counter()
            passes.append(_run_pass(workload, inputs, work / f"pass{len(passes)}"))
            now = time.perf_counter()
            if trace or (now - window) + (now - started) > seconds:
                break
    if trace and not passes[0].error:
        record.update(_traced_pass(workload, seed, work, passes[0]))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return record


def _traced_pass(workload, seed: int, work: Path, plain) -> dict:
    """Set up and run one more pass with the layer entry points wrapped.

    Set-up runs under a tracer of its own that wraps only phantom.generate,
    so the pass's io and cli figures are the pass's own, while the phantom
    generation of the seq-* set-up still counts toward phantom.generate.
    """
    setup_tracer = Tracer({GENERATE: ENTRY_POINTS[GENERATE]})
    setup_tracer.install()
    try:
        inputs = workload.setup(work, seed)
    finally:
        setup_tracer.uninstall()
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_pass(workload, inputs, work / "traced")
    finally:
        tracer.uninstall()
    tracer.write_csv(WORK_DIR / f"spans-{workload.name}.csv")
    # Set-up spans are top-level, so appending them keeps every parent index.
    layers = layer_metrics(tracer.spans + setup_tracer.spans)
    iterate_s = sum(s.end - s.start for s in tracer.spans if s.name == ITERATE)
    layers.update({
        "solvers.iterations": traced.iterations,
        "solvers.unconverged": traced.unconverged,
        "solvers.iter_ms": 1e3 * iterate_s / max(traced.iterations, 1),
        "io.bytes_written": tracer.bytes_written / 1e6,
        "trace.overhead_s": traced.seconds - plain.seconds,
    })
    return {"per_layer": layers, "missing": tracer.missing, "traced": traced}


PER_LAYER_EXTRA = {
    "solvers.iterations": ("count", "lower"),
    "solvers.unconverged": ("count", "lower"),
    "solvers.iter_ms": ("ms", "lower"),
    "io.bytes_written": ("MB", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    units = {}
    for name in ENTRY_POINTS:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.ms_per_call"] = ("ms", "lower")
        units[f"{name}.self_share"] = ("ratio", "lower")
    units.update(PER_LAYER_EXTRA)
    return units


def summarize(record: dict) -> dict:
    """Turn a run's record into the metrics, the printed extras and the result line.

    A pass with a failed check fails all its frames. When no pass passed,
    the metrics that need one read 0 and the result is not correct.
    """
    passes = record["passes"] + ([record["traced"]] if "traced" in record else [])
    attempted = sum(p.frames for p in passes)
    failed = sum(p.frames for p in passes if p.error)
    timed = [p for p in record["passes"] if not p.error]
    setups = record["setups"] or [0.0]
    end_to_end = {
        "iter_ms": (statistics.median(p.iter_ms() for p in timed) if timed else 0.0,
                    f"median of {len(timed)} pass(es), {sum(p.iterations for p in timed)} iterations"),
        "psnr_db": (timed[0].psnr_db if timed else 0.0,
                    f"{timed[0].psnr_frames if timed else 0} frames"),
        "setup_s": (statistics.median(setups), f"median of {len(record['setups'])} set-ups"),
        "peak_rss_mb": (record["peak_rss_mb"], "1 process"),
    }
    extras = {}
    if timed:
        first = timed[0]
        frames = sum(p.frames for p in timed)
        unconverged = sum(p.unconverged for p in timed)
        extras = {
            "wall_s": (statistics.median(p.seconds for p in timed), "s", "lower",
                       f"median of {len(timed)} pass(es)"),
            "iters_per_frame": (sum(p.iterations for p in timed) / frames, "count", "lower",
                                f"{frames} frames"),
            "unconverged_frac": (unconverged / frames, "ratio", "lower",
                                 f"{unconverged}/{frames} frames at max_iter"),
        }
        for rate, gap in first.gaps.items():
            extras[f"psnr_gap_db@{rate}"] = (gap, "dB", "higher", "priori-ls minus ls, frames >= 2")
    return {"attempted": attempted, "failed": failed, "end_to_end": end_to_end, "extras": extras}


def _print_table(title, rows) -> None:
    print(title)
    for name, value, unit, better, samples in rows:
        print(f"  {name:34s} {value:14.6f} {unit:6s} {better:7s} {samples}")


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment()
    work = WORK_DIR / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = summarize(record)

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env))
    for p in record["passes"] + [record.get("traced")]:
        if p is not None and p.error:
            print(f"FAILED CHECK: {p.error}")
    _print_table("end-to-end (gated):", [
        (name, value, *END_TO_END[name], samples)
        for name, (value, samples) in summary["end_to_end"].items()
    ])
    _print_table("end-to-end (reported, not gated):", [
        (name, value, unit, better, samples)
        for name, (value, unit, better, samples) in summary["extras"].items()
    ])
    if args.trace and "per_layer" in record:
        units = per_layer_units()
        _print_table("per-layer (traced pass):", [
            (name, value, *units[name], "1 traced pass")
            for name, value in record["per_layer"].items()
        ])
        if record["missing"]:
            print("entry points not found (0 calls): " + ", ".join(record["missing"]))
        metrics = {name: {"value": value, "unit": units[name][0]}
                   for name, value in record["per_layer"].items()}
    elif args.trace:
        # No traced pass ran, because the plain one failed.
        metrics = {name: {"value": 0.0, "unit": unit} for name, (unit, _) in per_layer_units().items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name][0]}
                   for name, (value, _) in summary["end_to_end"].items()}

    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
        "end_to_end": {k: v[0] for k, v in summary["end_to_end"].items()},
        "extras": {k: v[0] for k, v in summary["extras"].items()},
        "per_layer": record.get("per_layer", {}),
        "attempted": summary["attempted"], "failed": summary["failed"],
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload plain and traced, each in its own process."""
    from workloads import WORKLOADS

    reports = {}
    ok = True
    for name in WORKLOADS:
        reports[name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines
                            if not line.startswith(("report ", "{", "env "))))
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
            ok = ok and report["failed"] == 0
            reports[name]["traced" if trace else "plain"] = report
    if args.write_baseline:
        env = next(r["env"] for runs in reports.values() for r in runs.values())
        baseline = {"seed": args.seed, "seconds": args.seconds, "env": env, "workloads": {
            name: {
                "end_to_end": runs.get("plain", {}).get("end_to_end"),
                "reported": runs.get("plain", {}).get("extras"),
                "per_layer": runs.get("traced", {}).get("per_layer"),
                "attempted": runs.get("plain", {}).get("attempted"),
                "failed": runs.get("plain", {}).get("failed"),
            } for name, runs in reports.items()
        }}
        Path(args.write_baseline).write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="desk-sweep, seq-128-priori, seq-256-ls, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-baseline", help="with --workload all: write the results here")
    args = parser.parse_args(argv)
    _prepare_imports()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {list(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

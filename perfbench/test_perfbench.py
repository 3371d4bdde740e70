"""Self-tests of the benchmark: failure accounting and tracing arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ITERATE, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import DeskSweep, Pass, Sequence  # noqa: E402


def _small_sequence():
    return Sequence("tiny", dims=(32, 32, 4), n_frames=2, solver="priori-ls",
                    first_rate=0.5, rate=1 / 3, psnr_floor_db=10.0)


def test_self_time_subtracts_direct_children():
    spans = [
        Span(ITERATE, 0.0, 10.0, -1, 0),
        Span("operators.svt", 1.0, 4.0, 0, 0),
        Span("core.shrink", 2.0, 3.0, 1, 0),
        Span("wavelets.fwd", 5.0, 6.5, 0, 0),
        Span("io.save", 11.0, 13.0, -1, -1),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 2.0])
    names = {ITERATE: (), "operators.svt": (), "core.shrink": (), "wavelets.fwd": (),
             "io.save": (), "operators.sigma_prior": ()}
    metrics = layer_metrics(spans, names)
    assert metrics["solvers.iterate.self_share"] == pytest.approx(0.55)
    assert metrics["operators.svt.ms_per_call"] == pytest.approx(3000.0)
    assert metrics["operators.svt.self_share"] == pytest.approx(0.2)
    assert metrics["io.save.self_share"] == pytest.approx(0.2)
    assert metrics["operators.sigma_prior.calls"] == 0
    assert metrics["operators.sigma_prior.ms_per_call"] == 0.0


def test_tracer_records_parents_frames_and_missing_names(monkeypatch):
    module = types.ModuleType("fake_layers")
    module.leaf = lambda: None
    module.solve = lambda: module.leaf()
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    ticks = iter(range(100))
    tracer = Tracer(
        {ITERATE: ("fake_layers:solve",), "core.shrink": ("fake_layers:leaf",),
         "operators.sigma_prior": ("fake_layers:removed", "no_such_module:fn")},
        clock=lambda: float(next(ticks)),
    )
    tracer.install()
    try:
        module.solve()
        module.leaf()
        module.solve()
    finally:
        tracer.uninstall()
    assert [(s.name, s.parent, s.frame) for s in tracer.spans] == [
        (ITERATE, -1, 0), ("core.shrink", 0, 0), ("core.shrink", -1, -1),
        (ITERATE, -1, 1), ("core.shrink", 3, 1),
    ]
    assert tracer.missing == ["fake_layers:removed", "no_such_module:fn"]
    metrics = layer_metrics(tracer.spans, tracer.entry_points)
    assert metrics["operators.sigma_prior.calls"] == 0
    assert metrics["core.shrink.calls"] == 3
    assert module.solve.__name__ == "<lambda>"  # the original is back after uninstall


def test_corrupted_output_file_counts_as_failure(tmp_path, monkeypatch):
    seq = _small_sequence()
    inputs = seq.setup(tmp_path, seed=0)
    assert seq.run(inputs, tmp_path / "clean").error is None

    original = workloads.cli.main

    def main_then_corrupt(argv):
        code = original(argv)
        target = Path(argv[argv.index("--out") + 1]) / "frame0002.s"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0x01
        target.write_bytes(bytes(raw))
        return code

    monkeypatch.setattr(workloads.cli, "main", main_then_corrupt)
    result = seq.run(inputs, tmp_path / "corrupt")
    assert "frame0002" in result.error
    summary = run.summarize({"passes": [result], "setups": [0.1], "peak_rss_mb": 1.0})
    assert summary["attempted"] == summary["failed"] == 2
    assert summary["end_to_end"]["iter_ms"][0] == 0.0  # no pass passed, so nothing timed


def test_rejected_cli_argument_is_a_failed_pass(tmp_path):
    seq = _small_sequence()
    seq.solver = "no-such-solver"  # argparse rejects it and exits
    result = seq.run(seq.setup(tmp_path, seed=0), tmp_path / "out")
    assert "recon-seq exited 2" in result.error and "invalid choice" in result.error


def test_failed_set_up_fails_every_frame(tmp_path, monkeypatch):
    seq = _small_sequence()

    def no_phantom(argv):
        raise SystemExit(2)

    monkeypatch.setattr(workloads.cli, "main", no_phantom)
    record = run.measure(seq, seed=0, seconds=1.0, trace=False, work=tmp_path)
    assert record["passes"][0].error.startswith("set-up: phantom gen exited 2")
    summary = run.summarize(record)
    assert summary["attempted"] == summary["failed"] == 2


def test_sweep_grid_checks():
    desk = DeskSweep()
    rows = []
    for solver in desk.solvers:
        for rate in desk.rates:
            for k in range(desk.n_seeds):
                for t in range(desk.n_frames):
                    r = rate if t else 0.5
                    psnr = 20.0 if solver == "priori-ls" else 19.0
                    rows.append([solver, f"{r:.6f}", str(k), str(t + 1), f"{psnr:.6f}", "50", "true"])
    complete = Pass(180)
    desk.check(rows, complete)
    assert complete.psnr_db == pytest.approx(20.0) and complete.gaps["0.142857"] == pytest.approx(1.0)
    with pytest.raises(workloads.CheckError, match="179 rows"):
        desk.check(rows[:-1], Pass(180))
    rows[-1][-1] = "false"  # a priori-ls frame at max_iter is counted, not failed
    stalled = Pass(180)
    desk.check(rows, stalled)
    assert stalled.unconverged == 1 and stalled.iterations == 180 * 50
    rows[0][-1] = "false"  # an ls frame at max_iter fails the pass
    with pytest.raises(workloads.CheckError, match="ls stopped at max_iter"):
        desk.check(rows, Pass(180))


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

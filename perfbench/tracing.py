"""Span tracing at the lpsrecon module boundaries.

A ``Tracer`` replaces named entry points with timing wrappers, at the
attribute as it is bound in the calling module (``lpsrecon.solvers``,
``lpsrecon.harness`` or ``lpsrecon.cli``), so nothing under ``src/`` changes.
Every call records a span: name, start, end, parent span and frame id. The
frame id is the index of the enclosing ``solvers.iterate`` call, so the
spans of one frame's solve share it; spans outside a solve have frame -1.
Spans stay in memory until the caller writes them out.

An entry point that no longer exists at a later commit is skipped and
reports 0 calls instead of failing the run.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
import time
from dataclasses import dataclass

ITERATE = "solvers.iterate"
SAVE = "io.save"
GENERATE = "phantom.generate"

# Layer entry point -> the "module:attribute" bindings it wraps.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "cli.main": ("lpsrecon.cli:main",),
    "harness.sweep": ("lpsrecon.cli:run_sweep",),
    ITERATE: ("lpsrecon.solvers:_iterate",),
    "solvers.prior": ("lpsrecon.solvers:prior_from_result",),
    "solvers.config": ("lpsrecon.cli:build_solver_config", "lpsrecon.harness:build_solver_config"),
    "operators.svt": ("lpsrecon.solvers:sv_threshold",),
    "operators.sigma_prior": ("lpsrecon.solvers:apply_sigma_prior",),
    "operators.fft_fwd": ("lpsrecon.solvers:_forward_samples",),
    "operators.fft_adj": ("lpsrecon.solvers:_adjoint_matrix",),
    "operators.support": ("lpsrecon.solvers:extract_support", "lpsrecon.cli:extract_support"),
    "wavelets.fwd": ("lpsrecon.solvers:_forward_matrix",),
    "wavelets.inv": ("lpsrecon.solvers:_inverse_matrix",),
    "core.shrink": ("lpsrecon.solvers:soft_threshold_matrix", "lpsrecon.solvers:_soft_threshold_keep"),
    "core.relchange": ("lpsrecon.solvers:relative_change",),
    SAVE: ("lpsrecon.cli:save_volume",),
    "io.load": ("lpsrecon.cli:load_volume",),
    GENERATE: ("lpsrecon.cli:generate", "lpsrecon.harness:generate"),
    "phantom.psnr": ("lpsrecon.cli:psnr", "lpsrecon.harness:psnr"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at top level
    frame: int  # index of the enclosing solvers.iterate call, -1 outside one


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self, entry_points=ENTRY_POINTS, clock=time.perf_counter):
        self.entry_points = entry_points
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.bytes_written = 0
        self._clock = clock
        self._stack: list[int] = []
        self._frames = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, bindings in self.entry_points.items():
            for binding in bindings:
                module_name, attr = binding.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(binding)
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            if name == ITERATE:
                frame = self._frames
                self._frames += 1
            else:
                frame = self.spans[parent].frame if parent >= 0 else -1
            span = Span(name, self._clock(), math.nan, parent, frame)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
            if name == SAVE:
                self.bytes_written += os.path.getsize(args[0])
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "frame"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, repr(s.start), repr(s.end), s.parent, s.frame])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls run on one thread, so children of one span never overlap and
    their durations add up to the part of the parent they cover.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span], names=ENTRY_POINTS) -> dict[str, float]:
    """Per entry point: call count, inclusive ms per call, and self time
    as a share of the total time spent in solvers.iterate."""
    totals = {name: [0, 0.0, 0.0] for name in names}
    for span, own in zip(spans, self_times(spans)):
        acc = totals[span.name]
        acc[0] += 1
        acc[1] += span.end - span.start
        acc[2] += own
    iterate_s = totals[ITERATE][1] if ITERATE in totals else 0.0
    metrics: dict[str, float] = {}
    for name, (calls, total, own) in totals.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.ms_per_call"] = 1e3 * total / calls if calls else 0.0
        metrics[f"{name}.self_share"] = own / iterate_s if iterate_s else 0.0
    return metrics

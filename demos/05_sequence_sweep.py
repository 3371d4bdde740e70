"""
Sequence reconstruction and the rate sweep
==========================================

Runs the sequential pipeline on a 6-frame phantom (frame 1 solved plain,
every later frame reusing the previous result's prior), then a small
paired sweep over sampling rates producing the CSV reports.
"""

import tempfile
from pathlib import Path

from lpsrecon import (
    DynamicVolume,
    ExperimentSpec,
    SolverConfig,
    acquire,
    make_mask,
    psnr,
    run_sweep,
    solve_sequence,
)
from lpsrecon.phantom import PhantomSpec, generate

spec = PhantomSpec()
seq = generate(spec)
n_x, n_y, _ = spec.dims

mask_first = make_mask(n_x, n_y, 0.5, seed=21)
mask_rest = make_mask(n_x, n_y, 1 / 5, seed=22)
frames = [acquire(f, mask_first if t == 0 else mask_rest) for t, f in enumerate(seq.frames)]
# solve_sequence(frames, cfg, solver): frame 1 runs ls, every later frame the
# named solver, all under one config. Its unset thresholds are resolved from
# frame 1 for frame 1 and, once, from frame 2 for every later frame.
results = list(solve_sequence(frames, SolverConfig(), "priori-ls"))

print("frame  rate   psnr_db  iterations  converged")
for t, res in enumerate(results):
    rate = 0.5 if t == 0 else 1 / 5
    value = psnr(seq.frames[t], DynamicVolume(res.estimate(), spec.dims))
    print(f"{t + 1:5d}  {rate:.3f}  {value:7.2f}  {res.iterations:10d}  {res.converged}")

# A small sweep: 2 solvers x 2 rates x 2 seeds, reports written as CSV.
out = Path(tempfile.mkdtemp(prefix="lps_sweep_"))
experiment = ExperimentSpec(
    phantom=PhantomSpec(),
    rates=(1 / 7, 1 / 3),
    solvers=("ls", "priori-ls"),
    n_seeds=2,
    output_dir=str(out),
)
run_sweep(experiment)

print(f"\nsummary.csv (written to {out}):")
print((out / "summary.csv").read_text())

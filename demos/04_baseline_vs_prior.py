"""
Baseline vs prior-informed reconstruction of one frame
======================================================

Reconstructs frame 2 of a moving phantom from 25% of its k-space, first
with the plain low-rank plus sparse solver, then passing frame 1's
reconstruction (L, S) to ``solve``: it solves on the residual data
y - A(L_prev + S_prev), so that only the change of each component is left
to find, and adds the previous pair back.
"""

import numpy as np

from lpsrecon import (
    DynamicVolume,
    acquire,
    default_config,
    make_mask,
    psnr,
    solve,
)
from lpsrecon.phantom import PhantomSpec, generate_frames

spec = PhantomSpec()
truth = [x for x, _, _ in generate_frames(spec)]
n_x, n_y, _ = spec.dims

# Frame 1 is well sampled (50%): it has no prior to lean on.
mask_first = make_mask(n_x, n_y, 0.5, seed=11)
y1 = acquire(truth[0], mask_first)
cfg1 = default_config(y1)
res1 = solve(y1, cfg1)
print(f"frame 1 at 50%: {psnr(truth[0], DynamicVolume(res1.estimate(), spec.dims)):.2f} dB "
      f"({res1.iterations} iterations)")

# Frame 2 gets only 25% of its k-space.
mask_rest = make_mask(n_x, n_y, 0.25, seed=12)
y2 = acquire(truth[1], mask_rest)
cfg2 = default_config(y2)

plain = solve(y2, cfg2)
p_plain = psnr(truth[1], DynamicVolume(plain.estimate(), spec.dims))

# What is left for the prior-informed solve to explain: the part of frame 2's
# samples that frame 1's estimate does not predict.
predicted = acquire(DynamicVolume(res1.L + res1.S, spec.dims), mask_rest)
print(f"\n||y|| = {np.linalg.norm(y2.samples):.3f}, residual data "
      f"||y - A(L_prev + S_prev)|| = {np.linalg.norm(y2.samples - predicted.samples):.3f}")

informed = solve(y2, cfg2, res1)
p_informed = psnr(truth[1], DynamicVolume(informed.estimate(), spec.dims))

print(f"\nframe 2 at 25%, plain solver:          {p_plain:6.2f} dB ({plain.iterations} it)")
print(f"frame 2 at 25%, prior-informed solver: {p_informed:6.2f} dB ({informed.iterations} it)")
print(f"gain from the prior: {p_informed - p_plain:+.2f} dB")

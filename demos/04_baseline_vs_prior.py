"""
Baseline vs prior-informed reconstruction of one frame
======================================================

Reconstructs frame 2 of a moving phantom from 25% of its k-space, first
with the plain low-rank plus sparse solver, then reusing frame 1's
reconstruction as a prior: the previous sparse support is exempted from
shrinkage and the previous singular values anchor the background.
"""

import numpy as np

from lpsrecon import (
    DynamicVolume,
    acquire,
    default_config,
    make_mask,
    psnr,
    solve_ls,
    solve_priori_ls,
)
from lpsrecon.phantom import PhantomSpec, generate
from lpsrecon.solvers import prior_from_result

spec = PhantomSpec()
seq = generate(spec)
n_x, n_y, _ = spec.dims

# Frame 1 is well sampled (50%): it has no prior to lean on.
mask_first = make_mask(n_x, n_y, 0.5, seed=11)
y1 = acquire(seq.frames[0], mask_first)
cfg1 = default_config(y1)
res1 = solve_ls(y1, cfg1)
print(f"frame 1 at 50%: {psnr(seq.frames[0], DynamicVolume(res1.estimate(), spec.dims)):.2f} dB "
      f"({res1.iterations} iterations)")

# Frame 2 gets only 25% of its k-space.
mask_rest = make_mask(n_x, n_y, 0.25, seed=12)
y2 = acquire(seq.frames[1], mask_rest)
cfg2 = default_config(y2)

plain = solve_ls(y2, cfg2)
p_plain = psnr(seq.frames[1], DynamicVolume(plain.estimate(), spec.dims))

prior = prior_from_result(res1.decomposition, spec.dims, cfg2.support_eps)
print(f"\nprior carried over: {int(prior.support_prev.sum())} support entries, "
      f"spectrum {np.round(prior.sigma_prev, 3)}")

informed = solve_priori_ls(y2, prior, cfg2)
p_informed = psnr(seq.frames[1], DynamicVolume(informed.estimate(), spec.dims))

print(f"\nframe 2 at 25%, plain solver:          {p_plain:6.2f} dB ({plain.iterations} it)")
print(f"frame 2 at 25%, prior-informed solver: {p_informed:6.2f} dB ({informed.iterations} it)")
print(f"gain from the prior: {p_informed - p_plain:+.2f} dB")

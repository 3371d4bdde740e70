"""
Variable-density sampling and the measurement operator
======================================================

Builds a center-weighted k-space mask, acquires undersampled measurements
of a volume, and checks the operator identities the reconstruction relies
on (adjointness, unitarity on the sampled set).
"""

import numpy as np

from lpsrecon import (
    DynamicVolume,
    acquire,
    acquire_adjoint,
    make_mask,
    psnr,
)
from lpsrecon.phantom import PhantomSpec, generate

# A 25% mask: sampling density decays away from the k-space center.
mask = make_mask(64, 64, rate=0.25, seed=7)
ix, iy = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
dist = np.hypot(ix - 32, iy - 32)
print(f"sampled {mask.m} of {mask.pattern.size} points (rate {mask.rate:.3f})")
print(f"mean |k| of sampled points:   {dist[mask.pattern].mean():6.2f}")
print(f"mean |k| of unsampled points: {dist[~mask.pattern].mean():6.2f}")

# Crude ASCII view of the central 24x24 block of the mask.
block = mask.pattern[20:44, 20:44]
print("\nmask center (#. = sampled/not):")
for row in block:
    print("".join("#" if v else "." for v in row))

# Acquire a phantom frame and look at the zero-filled adjoint.
seq = generate(PhantomSpec(dims=(64, 64, 4), blob_width=8.0))
frame = seq.frames[0]
y = acquire(frame, mask)
zero_filled = acquire_adjoint(y)
print(f"\nzero-filled PSNR at 25% sampling: {psnr(frame, zero_filled):.2f} dB")

# The adjoint really is the adjoint, and A A^H is the identity on samples.
rng = np.random.default_rng(1)
x = DynamicVolume(
    rng.standard_normal((64 * 64, 4)) + 1j * rng.standard_normal((64 * 64, 4)),
    (64, 64, 4),
)
from lpsrecon import KSpaceData

v = KSpaceData(
    rng.standard_normal((mask.m, 4)) + 1j * rng.standard_normal((mask.m, 4)),
    mask,
    (64, 64, 4),
)
lhs = np.vdot(acquire(x, mask).samples, v.samples)
rhs = np.vdot(x.data, acquire_adjoint(v).data)
print(f"\nadjoint identity error: {abs(lhs - rhs):.2e}")
roundtrip = acquire(acquire_adjoint(v), mask)
print(f"A A^H identity error:   {np.linalg.norm(roundtrip.samples - v.samples):.2e}")

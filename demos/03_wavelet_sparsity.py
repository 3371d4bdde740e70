"""
The sparsifying transform
=========================

The per-slice orthogonal wavelet transform: perfect reconstruction,
energy preservation, and why compact image features give a sparse
coefficient matrix.
"""

import numpy as np

from lpsrecon import DynamicVolume, wavelet_forward, wavelet_inverse
from lpsrecon.phantom import PhantomSpec, generate_frames

dims = (32, 32, 4)
rng = np.random.default_rng(0)

# Round trip and Parseval on random data: the transform is unitary.
vol = DynamicVolume(
    rng.standard_normal((1024, 4)) + 1j * rng.standard_normal((1024, 4)), dims
)
coeffs = wavelet_forward(vol)
back = wavelet_inverse(coeffs, dims)
print(f"reconstruction error: {np.linalg.norm(back.data - vol.data):.2e}")
print(f"energy ratio ||T x|| / ||x||: {np.linalg.norm(coeffs) / np.linalg.norm(vol.data):.12f}")

# The phantom's dynamic component compresses hard: a few percent of the
# coefficients carry nearly all of its energy.
_, l_true, s_true = next(generate_frames(PhantomSpec()))
s_coeffs = wavelet_forward(s_true)
mags = np.sort(np.abs(s_coeffs).ravel())[::-1]
energy = np.cumsum(mags**2) / np.sum(mags**2)
for frac in (0.01, 0.02, 0.05, 0.10):
    k = int(frac * mags.size)
    print(f"top {frac:4.0%} of coefficients hold {energy[k - 1]:.1%} of the energy")

# The smooth low-rank background also compresses, but spreads over the
# coarse approximation band rather than a sparse set of detail entries.
l_coeffs = wavelet_forward(l_true)
lm = np.sort(np.abs(l_coeffs).ravel())[::-1]
le = np.cumsum(lm**2) / np.sum(lm**2)
k = int(0.02 * lm.size)
print(f"\nbackground: top 2% of coefficients hold {le[k - 1]:.1%} of the energy")

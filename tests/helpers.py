"""Shared independent oracles and measurement helpers for the tests."""

from __future__ import annotations

import numpy as np

from lpsrecon import DynamicVolume, wavelet_forward

# Relative magnitude cutoff that reads a support off wavelet coefficients.
SUPPORT_EPS = 0.02


def prox_objective(u, x, lam):
    """0.5|u - x|^2 + lam*|u| for complex scalars (vectorized over u)."""
    return 0.5 * np.abs(u - x) ** 2 + lam * np.abs(u)


def grid_prox_minimizer(x, lam, rounds=5, points=61):
    """Brute-force minimizer of the scalar prox objective on a zoomed grid.

    Searches the complex plane directly (independent of any closed form):
    a coarse square grid, then repeated zooms around the best point. The
    origin is always evaluated as a candidate because the objective can
    kink there. Returns (u_best, objective_best).
    """
    span = 2.0 * (abs(x) + lam + 0.5)
    center = 0.0 + 0.0j
    best_u, best_f = 0.0 + 0.0j, float(prox_objective(0.0 + 0.0j, x, lam))
    for _ in range(rounds):
        re = np.linspace(center.real - span / 2, center.real + span / 2, points)
        im = np.linspace(center.imag - span / 2, center.imag + span / 2, points)
        uu = re[None, :] + 1j * im[:, None]
        ff = prox_objective(uu, x, lam)
        k = np.unravel_index(np.argmin(ff), ff.shape)
        if ff[k] < best_f:
            best_f = float(ff[k])
            best_u = complex(uu[k])
        center = best_u
        step = span / (points - 1)
        span = 6.0 * step  # zoom around the best cell
    return best_u, best_f


def support_mask(coeffs, eps=SUPPORT_EPS):
    """Boolean mask of the coefficients with magnitude above eps * max|coeffs|;
    an all-zero matrix has empty support."""
    mag = np.abs(coeffs)
    return mag > eps * (mag.max() if mag.size else 0.0)


def support_set(volume_or_matrix, dims=None, eps=SUPPORT_EPS):
    """Wavelet support of a sparse component as a set of (row, col) tuples."""
    if isinstance(volume_or_matrix, DynamicVolume):
        vol = volume_or_matrix
    else:
        vol = DynamicVolume(volume_or_matrix, dims)
    coeffs = wavelet_forward(vol)
    return set(map(tuple, np.argwhere(support_mask(coeffs, eps)).tolist()))


def support_change(prev: set, current: set) -> float:
    """Symmetric-difference size relative to the previous support size."""
    return len(prev ^ current) / max(1, len(prev))


def random_volume(rng, dims):
    n_x, n_y, n_z = dims
    data = rng.standard_normal((n_x * n_y, n_z)) + 1j * rng.standard_normal((n_x * n_y, n_z))
    return DynamicVolume(data, dims)


def svd_prox(m, lam):
    """Nuclear-norm prox from a full SVD: U diag(g(sigma)) V^H with
    g = max(sigma - lam, 0)."""
    u, sigma, vh = np.linalg.svd(np.asarray(m, dtype=np.complex128), full_matrices=False)
    return (u * np.maximum(sigma - lam, 0.0)) @ vh


def shifted_samples(data, dims, pattern):
    """Forward sampling in its textbook form: fft2, fftshift, then mask."""
    n_x, n_y, n_z = dims
    slices = data.T.reshape(n_z, n_x, n_y)
    spectra = np.fft.fftshift(np.fft.fft2(slices, axes=(1, 2), norm="ortho"), axes=(1, 2))
    return spectra[:, pattern].T


def shifted_adjoint(samples, dims, pattern):
    """Adjoint sampling in its textbook form: zero-fill, ifftshift, ifft2."""
    n_x, n_y, n_z = dims
    spectra = np.zeros((n_z, n_x, n_y), dtype=np.complex128)
    spectra[:, pattern] = samples.T
    slices = np.fft.ifft2(np.fft.ifftshift(spectra, axes=(1, 2)), axes=(1, 2), norm="ortho")
    return slices.reshape(n_z, -1).T


def complex_dwt2(slices, levels, inverse=False):
    """Multi-level 2D DWT of a complex stack with complex matrix products."""
    from lpsrecon.wavelets import _level_matrix

    out = np.array(slices, dtype=np.complex128)
    n_x, n_y = out.shape[1], out.shape[2]
    for lev in reversed(range(levels)) if inverse else range(levels):
        wx = _level_matrix(n_x >> lev).astype(np.complex128)
        wy = _level_matrix(n_y >> lev).astype(np.complex128)
        if inverse:
            wx, wy = wx.T, wy.T
        bx, by = n_x >> lev, n_y >> lev
        out[:, :bx, :by] = wx @ out[:, :bx, :by] @ wy.T
    return out


def reference_solve(y, cfg, previous=None):
    """The L+S solve with every iterate materialized, as the oracle of
    ``solvers.solve``: the k-space loop holding X^, L^ and S^ in full, with S^
    synthesized and transformed over the whole stack and the relative change
    taken as the norm ratio ||X^ - X^_new|| / ||X^|| (||X^ - X^_new|| when X^ =
    0). With ``previous``, the loop runs on the residual samples y - A(L_prev +
    S_prev) and the pair is added back, as ``solve`` does. Both thresholds of
    ``cfg`` must be set. Returns (L, S, converged, history, data_residual)."""
    from lpsrecon import KSpaceData
    from lpsrecon.core import _soft_threshold_keep
    from lpsrecon.operators import _put_samples, _scattered_samples, _spectra, _take_samples, sv_threshold
    from lpsrecon.wavelets import _forward_matrix, _inverse_matrix

    dims = y.dims
    if previous is not None:
        predicted = _take_samples(np.add(previous.L, previous.S, order="F"), dims, y.mask)
        y = KSpaceData(y.samples - predicted, y.mask)
    x = _scattered_samples(y)
    s = np.zeros_like(x)
    history, converged = [], False
    for _ in range(cfg.max_iter):
        l = sv_threshold(np.asfortranarray(x - s), cfg.lambda_L)
        s = np.asfortranarray(x - l)
        _spectra(s, dims, inverse=True)
        _forward_matrix(s, dims)
        _soft_threshold_keep(s, cfg.lambda_S)
        _inverse_matrix(s, dims)
        _spectra(s, dims)
        x_new = np.asfortranarray(l + s)
        _put_samples(x_new, y)
        norm_old, norm_diff = np.linalg.norm(x), np.linalg.norm(x - x_new)
        history.append(norm_diff / norm_old if norm_old else norm_diff)
        x = x_new
        if history[-1] < cfg.tol:
            converged = True
            break
    data_residual = float(np.linalg.norm(x - l - s))
    _spectra(l, dims, inverse=True)
    _spectra(s, dims, inverse=True)
    if previous is not None:
        l += previous.L
        s += previous.S
    return l, s, converged, np.array(history), data_residual

"""Symmetries of the L+S solves, checked on random inputs.

With data-scaled ("auto") thresholds the solve commutes with a global
positive scale, a global phase and a permutation of the slices. For the
prior-informed solve the previous (L, S) is, as in a sequence, the
baseline reconstruction of the transformed data, that is the transformed
pair. Each solve runs a fixed number of iterations
(tol far below any reachable change), so the stopping rule cannot pick
different iteration counts for the two sides.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lpsrecon import (
    Decomposition,
    DynamicVolume,
    KSpaceData,
    SolverConfig,
    acquire,
    default_config,
    make_mask,
    solve,
)

DIMS = (16, 16, 3)
MAX_ITER = 6
TOL = 1e-300
REL = 1e-10

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _problem(seed: int) -> KSpaceData:
    """A rank-2 background plus a few bright spots, sampled at 40%."""
    n_x, n_y, n_z = DIMS
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n_x * n_y, 2)) + 1j * rng.standard_normal((n_x * n_y, 2))
    right = rng.standard_normal((2, n_z)) + 1j * rng.standard_normal((2, n_z))
    data = left @ right
    spots = rng.choice(data.size, 6, replace=False)
    data.flat[spots] += 5.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
    mask = make_mask(n_x, n_y, 0.4, seed=seed)
    return acquire(DynamicVolume(data, DIMS), mask)


def _solve(y: KSpaceData, previous: Decomposition | None = None):
    cfg = default_config(y, SolverConfig(tol=TOL, max_iter=MAX_ITER))
    result = solve(y, cfg, previous)
    assert result.iterations == MAX_ITER
    return result.L, result.S


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= REL * max(np.linalg.norm(want), 1e-300)


@PROPERTY
@given(seed=st.integers(0, 2**16), c=st.floats(1e-3, 1e3))
def test_scaling_data_scales_both_components(seed, c):
    y = _problem(seed)
    l_ref, s_ref = _solve(y)
    l_out, s_out = _solve(KSpaceData(c * y.samples, y.mask))
    _assert_close(l_out, c * l_ref)
    _assert_close(s_out, c * s_ref)


@PROPERTY
@given(seed=st.integers(0, 2**16), theta=st.floats(0.0, 2 * np.pi))
def test_global_phase_rotates_both_components(seed, theta):
    y = _problem(seed)
    l_ref, s_ref = _solve(y)
    phase = np.exp(1j * theta)
    l_out, s_out = _solve(KSpaceData(phase * y.samples, y.mask))
    _assert_close(l_out, phase * l_ref)
    _assert_close(s_out, phase * s_ref)


@PROPERTY
@given(seed=st.integers(0, 2**16), perm=st.permutations(range(DIMS[2])))
def test_slice_permutation_permutes_columns(seed, perm):
    y = _problem(seed)
    l_ref, s_ref = _solve(y)
    l_out, s_out = _solve(KSpaceData(y.samples[:, perm], y.mask))
    _assert_close(l_out, l_ref[:, perm])
    _assert_close(s_out, s_ref[:, perm])


@PROPERTY
@given(seed=st.integers(0, 2**16), c=st.floats(1e-3, 1e3))
def test_priori_scaling_data_and_prior_spectrum(seed, c):
    y = _problem(seed)
    l_1, s_1 = _solve(y)
    l_ref, s_ref = _solve(y, Decomposition(l_1, s_1))
    scaled = Decomposition(c * l_1, c * s_1)
    l_out, s_out = _solve(KSpaceData(c * y.samples, y.mask), scaled)
    _assert_close(l_out, c * l_ref)
    _assert_close(s_out, c * s_ref)


@PROPERTY
@given(seed=st.integers(0, 2**16), theta=st.floats(0.0, 2 * np.pi))
def test_priori_global_phase_rotates_both_components(seed, theta):
    y = _problem(seed)
    l_1, s_1 = _solve(y)
    l_ref, s_ref = _solve(y, Decomposition(l_1, s_1))
    phase = np.exp(1j * theta)
    rotated = Decomposition(phase * l_1, phase * s_1)
    l_out, s_out = _solve(KSpaceData(phase * y.samples, y.mask), rotated)
    _assert_close(l_out, phase * l_ref)
    _assert_close(s_out, phase * s_ref)


@PROPERTY
@given(seed=st.integers(0, 2**16), perm=st.permutations(range(DIMS[2])))
def test_priori_slice_permutation_permutes_columns(seed, perm):
    y = _problem(seed)
    l_1, s_1 = _solve(y)
    l_ref, s_ref = _solve(y, Decomposition(l_1, s_1))
    permuted = Decomposition(l_1[:, perm], s_1[:, perm])
    l_out, s_out = _solve(KSpaceData(y.samples[:, perm], y.mask), permuted)
    _assert_close(l_out, l_ref[:, perm])
    _assert_close(s_out, s_ref[:, perm])

import dataclasses

import numpy as np
import pytest

from lpsrecon import (
    DynamicVolume,
    KSpaceData,
    PhantomSpec,
    SamplingMask,
    acquire,
    acquire_adjoint,
    generate_frames,
    make_mask,
    sv_threshold,
)
from lpsrecon import operators
from lpsrecon.core import _shrink_scale
from lpsrecon.operators import (
    _adjoint_matrix,
    _data_consistency,
    _gram_spectrum,
    _spectra,
    _take_samples,
)

from helpers import random_volume, shifted_adjoint, shifted_samples, svd_prox


def random_kspace(rng, mask, dims):
    m = mask.m
    samples = rng.standard_normal((m, dims[2])) + 1j * rng.standard_normal((m, dims[2]))
    return KSpaceData(samples, mask)


class TestMakeMask:
    def test_full_sampling(self):
        mask = make_mask(64, 64, 1.0, seed=0)
        assert mask.m == 64 * 64
        assert mask.pattern.all()

    def test_deterministic(self):
        a = make_mask(64, 64, 0.5, seed=7)
        b = make_mask(64, 64, 0.5, seed=7)
        assert np.array_equal(a.pattern, b.pattern)

    def test_seeds_differ(self):
        a = make_mask(64, 64, 0.5, seed=7)
        b = make_mask(64, 64, 0.5, seed=8)
        assert not np.array_equal(a.pattern, b.pattern)

    @pytest.mark.parametrize("rate", [1 / 7, 1 / 5, 1 / 3, 0.5, 0.9])
    def test_exact_count(self, rate):
        mask = make_mask(32, 32, rate, seed=3)
        assert mask.m == round(rate * 1024)

    def test_center_always_sampled(self):
        for seed in range(5):
            mask = make_mask(32, 32, 0.05, seed=seed)
            assert mask.pattern[16, 16]

    def test_center_density_property(self):
        # DERIVED oracle: measure the two mean distances directly.
        for seed in range(5):
            mask = make_mask(64, 64, 0.25, seed=seed)
            ix, iy = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
            dist = np.hypot(ix - 32, iy - 32)
            assert dist[mask.pattern].mean() < dist[~mask.pattern].mean()

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            make_mask(8, 8, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_mask(8, 8, 1.2, seed=0)
        with pytest.raises(ValueError):
            make_mask(8, 8, 1e-6, seed=0)  # selects no samples

    def test_negative_seed_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            make_mask(8, 8, 0.5, seed=-1)


    def test_pattern_is_a_read_only_copy(self):
        # The sample index is derived once, so the pattern it came from must
        # not change under it.
        pattern = np.zeros((8, 8), dtype=bool)
        pattern[4, 4] = True
        mask = SamplingMask(pattern)
        pattern[0, 0] = True
        assert mask.m == 1 and mask.index.tolist() == [0]
        with pytest.raises(ValueError, match="read-only"):
            mask.pattern[0, 0] = True


class TestAcquire:
    def test_zero_volume_gives_zero_samples(self):
        mask = make_mask(16, 16, 1.0, seed=0)
        vol = DynamicVolume(np.zeros((256, 3), dtype=complex), (16, 16, 3))
        assert np.all(acquire(vol, mask).samples == 0)

    def test_parseval_at_full_sampling(self):
        rng = np.random.default_rng(0)
        vol = random_volume(rng, (16, 16, 3))
        mask = SamplingMask(np.ones((16, 16), dtype=bool))
        y = acquire(vol, mask)
        assert np.linalg.norm(y.samples) == pytest.approx(np.linalg.norm(vol.data), rel=1e-12)

    def test_dc_sample_of_constant_slice(self):
        # unitary DFT of a constant c at frequency (0,0) is c*sqrt(n_x*n_y)
        pattern = np.zeros((32, 32), dtype=bool)
        pattern[16, 16] = True  # DC sits at the grid center after the shift
        vol = DynamicVolume(np.full((1024, 1), 3.0 + 0j), (32, 32, 1))
        y = acquire(vol, SamplingMask(pattern))
        assert y.samples[0, 0] == pytest.approx(3.0 * np.sqrt(1024), rel=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        vol = random_volume(rng, (16, 16, 2))
        with pytest.raises(ValueError):
            acquire(vol, make_mask(8, 8, 0.5, seed=0))

    @pytest.mark.parametrize("dims", [(8, 8, 1), (16, 8, 3), (32, 32, 4)])
    def test_adjoint_identity(self, dims):
        rng = np.random.default_rng(dims[0] + dims[2])
        for trial in range(8):
            mask = make_mask(dims[0], dims[1], 0.4, seed=trial)
            x = random_volume(rng, dims)
            y = random_kspace(rng, mask, dims)
            lhs = np.vdot(acquire(x, mask).samples, y.samples)
            rhs = np.vdot(x.data, acquire_adjoint(y).data)
            bound = 1e-10 * np.linalg.norm(x.data) * np.linalg.norm(y.samples)
            assert abs(lhs - rhs) <= bound

    def test_full_mask_inverts(self):
        rng = np.random.default_rng(2)
        vol = random_volume(rng, (16, 16, 2))
        mask = SamplingMask(np.ones((16, 16), dtype=bool))
        back = acquire_adjoint(acquire(vol, mask))
        assert np.linalg.norm(back.data - vol.data) <= 1e-10 * np.linalg.norm(vol.data)

    def test_acquire_of_adjoint_is_identity_on_samples(self):
        rng = np.random.default_rng(3)
        dims = (16, 16, 3)
        mask = make_mask(16, 16, 0.3, seed=5)
        y = random_kspace(rng, mask, dims)
        z = acquire(acquire_adjoint(y), mask)
        assert np.linalg.norm(z.samples - y.samples) <= 1e-10 * np.linalg.norm(y.samples)

    def test_adjoint_acquire_is_projection(self):
        rng = np.random.default_rng(4)
        dims = (16, 16, 2)
        mask = make_mask(16, 16, 0.35, seed=6)
        x = random_volume(rng, dims)
        once = acquire_adjoint(acquire(x, mask))
        twice = acquire_adjoint(acquire(once, mask))
        assert np.linalg.norm(twice.data - once.data) <= 1e-10 * np.linalg.norm(once.data)


class TestSvThreshold:
    def test_acts_on_spectrum(self):
        m = np.zeros((8, 3), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2] = 3.0, 2.0, 1.0
        out = sv_threshold(m, 1.5)
        assert np.allclose(np.linalg.svd(out, compute_uv=False), [1.5, 0.5, 0.0], atol=1e-10)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        assert np.linalg.norm(sv_threshold(m, 0.0) - m) <= 1e-10 * np.linalg.norm(m)

    def test_spectrum_matches_soft_threshold_componentwise(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
            lam = rng.uniform(0.1, 3.0)
            sigma_in = np.linalg.svd(m, compute_uv=False)
            sigma_out = np.linalg.svd(sv_threshold(m, lam), compute_uv=False)
            assert np.allclose(sigma_out, np.maximum(sigma_in - lam, 0.0), atol=1e-8)

    def test_nuclear_prox_objective_beats_perturbations(self):
        # DERIVED oracle: the output must have the lowest value of
        # 0.5*||Z - M||_F^2 + lam*||Z||_* among random perturbations of it.
        rng = np.random.default_rng(9)
        m = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        lam = np.linalg.svd(m, compute_uv=False)[0] / 2
        out = sv_threshold(m, lam)

        def objective(z):
            return 0.5 * np.linalg.norm(z - m) ** 2 + lam * np.linalg.svd(
                z, compute_uv=False
            ).sum()

        f_out = objective(out)
        for scale in (1e-3, 1e-2, 1e-1):
            for _ in range(67):
                pert = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
                cand = out + scale * pert / np.linalg.norm(pert) * max(np.linalg.norm(out), 1.0)
                assert f_out <= objective(cand) + 1e-12

    def test_rank_never_increases(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        out = sv_threshold(m, 0.5)
        rank_in = np.sum(np.linalg.svd(m, compute_uv=False) > 1e-12)
        rank_out = np.sum(np.linalg.svd(out, compute_uv=False) > 1e-12)
        assert rank_out <= rank_in


def _low_rank_plus_noise(rng, rows, cols, rank, noise):
    left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    return left @ right + noise * (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    )


def _masked_divide_factor(sigma, lam):
    """sv_threshold's singular-value factor in its earlier form: a masked divide."""
    shrunk = np.maximum(sigma - lam, 0.0)
    return np.divide(shrunk, sigma, out=np.zeros_like(sigma), where=sigma > 0)


class TestSvThresholdFactor:
    """sv_threshold takes its factor from core._shrink_scale, the rule of the
    coefficient shrink; it must match the earlier masked divide bit for bit."""

    def test_shrink_scale_matches_the_masked_divide(self):
        rng = np.random.default_rng(41)
        for lam in (0.0, 0.3, 1.0, 2.5):
            for _ in range(1000):
                sigma = np.sort(rng.exponential(size=20))[::-1] * rng.uniform(0.1, 4.0)
                sigma[rng.integers(0, 20, size=3)] = 0.0
                sigma[rng.integers(0, 20, size=2)] = lam
                got = _shrink_scale(sigma, lam)
                want = _masked_divide_factor(sigma, lam)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, rank", [((64, 6), 6), ((64, 6), 2), ((5, 8), 5), ((16, 4), 0)])
    def test_sv_threshold_matches_the_masked_divide_form(self, shape, rank):
        rng = np.random.default_rng(sum(shape) + rank)
        m = np.zeros(shape, dtype=complex, order="F")
        if rank:
            left = rng.standard_normal((shape[0], rank)) + 1j * rng.standard_normal((shape[0], rank))
            m[:] = left @ rng.standard_normal((rank, shape[1]))
        sigma, v = _gram_spectrum(m)
        for lam in (0.0, float(sigma[min(1, len(sigma) - 1)]), 0.5 * float(sigma[0]) + 0.1):
            want = ((v.conj() * _masked_divide_factor(sigma, lam)) @ v.T @ m.T).T
            assert sv_threshold(m, lam).tobytes() == want.tobytes()


class TestSvThresholdAgainstSvd:
    """The Gram-eigen SVT agrees with the full-SVD spectral map to 1e-10
    relative."""

    @staticmethod
    def _check(m, lam):
        ref = svd_prox(m, lam)
        out = sv_threshold(m, lam)
        assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("lam_frac", [0.01, 0.05, 0.3, 0.9])
    def test_low_rank_plus_noise(self, lam_frac):
        rng = np.random.default_rng(20)
        m = _low_rank_plus_noise(rng, 400, 8, rank=3, noise=0.05)
        self._check(m, lam_frac * np.linalg.svd(m, compute_uv=False)[0])

    @pytest.mark.parametrize("lam_frac", [0.0, 0.05, 0.5])
    def test_rank_deficient(self, lam_frac):
        rng = np.random.default_rng(21)
        m = _low_rank_plus_noise(rng, 300, 6, rank=2, noise=0.0)
        self._check(m, lam_frac * np.linalg.svd(m, compute_uv=False)[0])

    def test_zero_threshold(self):
        rng = np.random.default_rng(22)
        m = rng.standard_normal((50, 5)) + 1j * rng.standard_normal((50, 5))
        self._check(m, 0.0)

    def test_all_zero_matrix(self):
        out = sv_threshold(np.zeros((64, 4), dtype=complex), 0.1)
        assert np.array_equal(out, np.zeros((64, 4)))

    def test_casorati_size(self):
        rng = np.random.default_rng(23)
        m = _low_rank_plus_noise(rng, 65536, 16, rank=4, noise=0.01)
        sigma = np.linalg.svd(m, compute_uv=False)
        self._check(m, 0.05 * sigma[0])

    def test_keeps_column_major_layout(self):
        rng = np.random.default_rng(24)
        m = np.asfortranarray(_low_rank_plus_noise(rng, 64, 4, rank=2, noise=0.1))
        assert sv_threshold(m, 0.5).flags.f_contiguous


class TestShiftFreeSampling:
    """Gathering at unshifted indices is bit-identical to fftshift-then-mask."""

    @pytest.mark.parametrize("dims", [(8, 8, 1), (16, 8, 3), (7, 9, 2), (15, 16, 3), (33, 31, 2)])
    def test_forward_matches_shifted_form(self, dims):
        rng = np.random.default_rng(sum(dims))
        mask = make_mask(dims[0], dims[1], 0.4, seed=dims[0])
        x = random_volume(rng, dims)
        got = acquire(x, mask).samples
        assert np.array_equal(got, shifted_samples(x.data, dims, mask.pattern))

    @pytest.mark.parametrize("dims", [(8, 8, 1), (16, 8, 3), (7, 9, 2), (15, 16, 3), (33, 31, 2)])
    def test_adjoint_matches_shifted_form(self, dims):
        rng = np.random.default_rng(sum(dims) + 1)
        mask = make_mask(dims[0], dims[1], 0.4, seed=dims[1])
        y = random_kspace(rng, mask, dims)
        got = _adjoint_matrix(y)
        assert np.array_equal(got, shifted_adjoint(y.samples, dims, mask.pattern))

    def test_keeps_column_major_layout(self):
        rng = np.random.default_rng(25)
        dims = (16, 16, 3)
        mask = make_mask(16, 16, 0.3, seed=1)
        y = acquire(random_volume(rng, dims), mask)
        assert y.samples.flags.f_contiguous
        assert _adjoint_matrix(y).flags.f_contiguous


class TestInPlaceSpectra:
    def test_round_trip_stays_in_the_buffer_passed_in(self):
        dims = (16, 8, 3)
        x = np.asfortranarray(random_volume(np.random.default_rng(28), dims).data)
        before = x.copy()
        spectra = _spectra(x, dims)
        assert np.shares_memory(spectra, x)
        assert np.array_equal(spectra, np.fft.fft2(before.T.reshape(3, 16, 8), norm="ortho"))
        assert np.shares_memory(_spectra(x, dims, inverse=True), x)
        assert np.linalg.norm(x - before) <= 1e-13 * np.linalg.norm(before)

    def test_rejects_row_major_input(self):
        x = random_volume(np.random.default_rng(29), (8, 8, 2)).data
        with pytest.raises(ValueError, match="column-major"):
            _spectra(np.ascontiguousarray(x), (8, 8, 2))

    def test_acquire_leaves_its_input_unchanged(self):
        # A phantom frame is column-major; acquire must transform a copy of it
        # or of a row-major volume, not the volume's own buffer.
        frame = next(generate_frames(PhantomSpec(dims=(16, 16, 3), n_frames=1)))[0]
        row_major = DynamicVolume(np.ascontiguousarray(frame.data), frame.dims)
        assert frame.data.flags.f_contiguous and row_major.data.flags.c_contiguous
        mask = make_mask(16, 16, 0.3, seed=2)
        for volume in (frame, row_major):
            kept = volume.data.copy()
            acquire(volume, mask)
            assert volume.data.tobytes() == kept.tobytes()


class TestDataConsistency:
    """The in-place spectral replacement F^H[F x with the sampled entries set
    to y] against the textbook step x - A^H(A x - y)."""

    SHAPES = [(8, 8, 1), (16, 8, 3), (7, 9, 2), (15, 16, 3), (33, 31, 2)]

    @staticmethod
    def _problem(dims, seed):
        rng = np.random.default_rng(seed)
        mask = make_mask(dims[0], dims[1], 0.4, seed=seed)
        x = np.asfortranarray(random_volume(rng, dims).data)
        y = random_kspace(rng, mask, dims)
        return x, y, mask

    @pytest.mark.parametrize("dims", SHAPES)
    def test_matches_textbook_step(self, dims):
        x, y, mask = self._problem(dims, sum(dims) + 2)
        want = x - shifted_adjoint(shifted_samples(x, dims, mask.pattern) - y.samples, dims, mask.pattern)
        got = _data_consistency(x, y)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_result_reproduces_samples(self, dims):
        x, y, mask = self._problem(dims, sum(dims) + 3)
        assert mask.rate < 1
        got = _data_consistency(x, y)
        residual = shifted_samples(got, dims, mask.pattern) - y.samples
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(y.samples)

    def test_updates_the_buffer_passed_in(self):
        dims = (16, 8, 3)
        x, y, mask = self._problem(dims, 26)
        before = x.copy()
        got = _data_consistency(x, y)
        assert got is x
        residual = KSpaceData(shifted_samples(before, dims, mask.pattern) - y.samples, mask)
        assert np.allclose(x, before - _adjoint_matrix(residual), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_per_slice_scatter_matches_the_fancy_index_form(self, dims):
        # The samples once went in with one fancy-index assignment over the
        # whole (n_z, n_x*n_y) stack; the per-slice np.put must match it bit for bit.
        x, y, mask = self._problem(dims, sum(dims) + 4)
        index = mask.index
        want = x.copy(order="F")
        _spectra(want, dims)
        want.T[:, index] = y.samples.T
        _spectra(want, dims, inverse=True)
        assert np.array_equal(_data_consistency(x, y), want)
        want = np.zeros_like(x)
        want.T[:, index] = y.samples.T
        _spectra(want, dims, inverse=True)
        assert np.array_equal(_adjoint_matrix(y), want)

    def test_rejects_row_major_input(self):
        dims = (8, 8, 2)
        x, y, _ = self._problem(dims, 27)
        with pytest.raises(ValueError, match="column-major"):
            _data_consistency(np.ascontiguousarray(x), y)


class TestTakeSamples:
    """The one gather of samples from a column-major matrix's spectra."""

    SHAPES = [(8, 8, 1), (16, 8, 3), (7, 9, 2), (33, 31, 2)]

    @pytest.mark.parametrize("dims", SHAPES)
    def test_matches_acquire_and_the_fancy_index_form(self, dims):
        rng = np.random.default_rng(sum(dims) + 5)
        volume = random_volume(rng, dims)
        mask = make_mask(dims[0], dims[1], 0.4, seed=sum(dims))
        x = volume.data.copy(order="F")
        got = _take_samples(x, dims, mask)
        assert got.shape == (mask.m, dims[2])
        assert np.array_equal(got, acquire(volume, mask).samples)
        # x now holds its spectra; the gather once read them with a fancy index.
        want = volume.data.copy(order="F")
        _spectra(want, dims)
        assert np.array_equal(x, want)
        assert np.array_equal(got, want[mask.index])

    def test_rejects_row_major_input(self):
        dims = (8, 8, 2)
        x = random_volume(np.random.default_rng(31), dims).data
        with pytest.raises(ValueError, match="column-major"):
            _take_samples(np.ascontiguousarray(x), dims, make_mask(8, 8, 0.5, seed=1))


class TestKSpaceData:
    def test_dims_come_from_the_mask_grid_and_the_sample_columns(self):
        mask = make_mask(16, 8, 0.4, seed=1)
        y = random_kspace(np.random.default_rng(30), mask, (16, 8, 3))
        assert y.dims == (16, 8, 3)
        assert acquire(random_volume(np.random.default_rng(31), (7, 9, 2)),
                       make_mask(7, 9, 0.5, seed=2)).dims == (7, 9, 2)
        # dims is no longer an argument, so the old three-argument call fails.
        with pytest.raises(TypeError):
            KSpaceData(y.samples, mask, (16, 8, 3))
        with pytest.raises(TypeError):
            KSpaceData(y.samples, mask, dims=(16, 8, 3))

    def test_sample_rows_must_match_m(self):
        # The kernels scatter with np.put, which would repeat a short row, so
        # the acquisition guarantees its row count.
        mask = make_mask(8, 8, 0.5, seed=3)
        y = random_kspace(np.random.default_rng(32), mask, (8, 8, 2))
        for samples in (y.samples[:-1], np.vstack([y.samples, y.samples[:1]])):
            with pytest.raises(ValueError, match=f"m={mask.m}"):
                KSpaceData(samples, mask)

    def test_zero_sample_columns_are_rejected(self):
        # An acquisition of no slices has no volume to solve for.
        mask = make_mask(32, 32, 0.25, seed=4)
        with pytest.raises(ValueError, match=rf"\({mask.m}, 0\)"):
            KSpaceData(np.zeros((mask.m, 0)), mask)

    def test_acquisition_cannot_be_reassigned(self):
        # Each check holds only at construction, and the mask's index is
        # derived from its pattern, so no field may be rebound afterwards.
        mask = make_mask(8, 8, 0.5, seed=3)
        y = random_kspace(np.random.default_rng(33), mask, (8, 8, 2))
        for obj, name, value in ((y, "samples", y.samples[:-1]), (y, "mask", make_mask(8, 8, 0.25)),
                                 (y, "dims", (8, 8, 1)), (mask, "pattern", ~mask.pattern),
                                 (mask, "index", mask.index[:1])):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, value)
        assert y.samples.shape == (mask.m, 2) and y.dims == (8, 8, 2)
        assert np.array_equal(mask.index, operators._sample_index(mask.pattern))

import numpy as np
import pytest

from lpsrecon import (
    DynamicVolume,
    KSpaceData,
    PhantomSpec,
    SamplingMask,
    acquire,
    acquire_adjoint,
    extract_support,
    generate,
    load_volume,
    make_mask,
    save_volume,
    sv_threshold,
)
from lpsrecon.operators import (
    _adjoint_matrix,
    _data_consistency,
    _sample_index,
    _spectra,
)

from helpers import random_volume, shifted_adjoint, shifted_samples, svd_prox


def random_kspace(rng, mask, dims):
    m = mask.m
    samples = rng.standard_normal((m, dims[2])) + 1j * rng.standard_normal((m, dims[2]))
    return KSpaceData(samples, mask, dims)


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


class TestSvThresholdAgainstSvd:
    """The Gram-eigen SVT, with and without the prior step, agrees with the
    full-SVD spectral map to 1e-10 relative."""

    @staticmethod
    def _check(m, lam, *prior):
        ref = svd_prox(m, lam, *prior)
        out = sv_threshold(m, lam, *prior)
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

    @pytest.mark.parametrize("lambda_p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("prev_frac", [[1.2, 0.8, 0.5, 0.3, 0.2, 0.1], [1.0, 0.6, 0.2, 0, 0, 0]])
    def test_prior_step(self, lambda_p, prev_frac):
        # lam zeroes the noise modes, so the prior both moves kept modes and
        # revives thresholded ones; trailing zeros in the prior shrink modes.
        rng = np.random.default_rng(26)
        m = _low_rank_plus_noise(rng, 400, 6, rank=3, noise=0.05)
        sigma_max = np.linalg.svd(m, compute_uv=False)[0]
        self._check(m, 0.05 * sigma_max, sigma_max * np.array(prev_frac), lambda_p)

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
        prev = np.concatenate([0.9 * sigma[:4], np.zeros(12)])
        self._check(m, 0.05 * sigma[0], prev, 0.7)

    def test_keeps_column_major_layout(self):
        rng = np.random.default_rng(24)
        m = np.asfortranarray(_low_rank_plus_noise(rng, 64, 4, rank=2, noise=0.1))
        assert sv_threshold(m, 0.5).flags.f_contiguous
        assert sv_threshold(m, 0.5, np.ones(4), 0.5).flags.f_contiguous
        assert sv_threshold(m, 0.5, np.ones(4), 0.0).flags.f_contiguous


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
        got = _adjoint_matrix(y.samples, dims, _sample_index(mask.pattern))
        assert np.array_equal(got, shifted_adjoint(y.samples, dims, mask.pattern))

    def test_keeps_column_major_layout(self):
        rng = np.random.default_rng(25)
        dims = (16, 16, 3)
        mask = make_mask(16, 16, 0.3, seed=1)
        samples = acquire(random_volume(rng, dims), mask).samples
        assert samples.flags.f_contiguous
        assert _adjoint_matrix(samples, dims, _sample_index(mask.pattern)).flags.f_contiguous


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

    def test_acquire_leaves_its_input_unchanged(self, tmp_path):
        # A phantom frame is row-major and a loaded volume column-major; acquire
        # must transform a copy of either, not the volume's own buffer.
        frame = generate(PhantomSpec(dims=(16, 16, 3), n_frames=1)).frames[0]
        save_volume(tmp_path / "f.x", frame)
        loaded = load_volume(tmp_path / "f.x")
        assert frame.data.flags.c_contiguous and loaded.data.flags.f_contiguous
        mask = make_mask(16, 16, 0.3, seed=2)
        for volume in (frame, loaded):
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
        got = _data_consistency(x, np.ascontiguousarray(y.samples.T), dims, _sample_index(mask.pattern))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_result_reproduces_samples(self, dims):
        x, y, mask = self._problem(dims, sum(dims) + 3)
        assert mask.rate < 1
        index = _sample_index(mask.pattern)
        got = _data_consistency(x, np.ascontiguousarray(y.samples.T), dims, index)
        residual = shifted_samples(got, dims, mask.pattern) - y.samples
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(y.samples)

    def test_updates_the_buffer_passed_in(self):
        dims = (16, 8, 3)
        x, y, mask = self._problem(dims, 26)
        before = x.copy()
        index = _sample_index(mask.pattern)
        got = _data_consistency(x, np.ascontiguousarray(y.samples.T), dims, index)
        assert got is x
        residual = shifted_samples(before, dims, mask.pattern) - y.samples
        assert np.allclose(x, before - _adjoint_matrix(residual, dims, index), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_per_slice_scatter_matches_the_fancy_index_form(self, dims):
        # The samples once went in with one fancy-index assignment over the
        # whole (n_z, n_x*n_y) stack; the per-slice np.put must match it bit for bit.
        x, y, mask = self._problem(dims, sum(dims) + 4)
        index = _sample_index(mask.pattern)
        samples_t = np.ascontiguousarray(y.samples.T)
        want = x.copy(order="F")
        _spectra(want, dims)
        want.T[:, index] = samples_t
        _spectra(want, dims, inverse=True)
        assert np.array_equal(_data_consistency(x, samples_t, dims, index), want)
        want = np.zeros_like(x)
        want.T[:, index] = y.samples.T
        _spectra(want, dims, inverse=True)
        assert np.array_equal(_adjoint_matrix(y.samples, dims, index), want)

    def test_scatter_rejects_samples_of_the_wrong_shape(self):
        # np.put repeats a short row; the old fancy-index scatter raised.
        dims = (8, 8, 2)
        x, y, mask = self._problem(dims, 28)
        index = _sample_index(mask.pattern)
        for samples in (y.samples[:-1], y.samples[:, :1]):
            with pytest.raises(ValueError, match=r"samples shape .* does not match"):
                _adjoint_matrix(samples, dims, index)
            with pytest.raises(ValueError, match=r"samples shape .* does not match"):
                _data_consistency(x, np.ascontiguousarray(samples.T), dims, index)

    def test_rejects_row_major_input(self):
        dims = (8, 8, 2)
        x, y, mask = self._problem(dims, 27)
        with pytest.raises(ValueError, match="column-major"):
            _data_consistency(
                np.ascontiguousarray(x), np.ascontiguousarray(y.samples.T), dims, _sample_index(mask.pattern)
            )


def _matrix_with_spectrum(rng, rows, sigma):
    """Random matrix with the prescribed singular values."""
    n = len(sigma)
    qa, _ = np.linalg.qr(rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    qb, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (qa * np.asarray(sigma)) @ qb.conj().T


class TestApplySigmaPrior:
    """The sigma-prior step, applied by ``sv_threshold`` to the thresholded
    spectrum on the singular vectors of its input. With lam = 0 the prox
    keeps the spectrum, so these check the step alone."""

    def test_zero_step_returns_input(self):
        # lambda_p = 0 leaves the prox's output unchanged, bit for bit.
        rng = np.random.default_rng(11)
        m = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        for lam in (0.0, 0.7):
            got = sv_threshold(m, lam, np.array([1.0, 1.0, 0.5]), 0.0)
            assert np.array_equal(got, sv_threshold(m, lam))

    def test_half_step_arithmetic(self):
        rng = np.random.default_rng(12)
        m = _matrix_with_spectrum(rng, 10, [4.0, 2.0])
        out = sv_threshold(m, 0.0, np.array([2.0, 2.0]), 0.5)
        assert np.allclose(np.linalg.svd(out, compute_uv=False), [3.0, 2.0], atol=1e-10)

    def test_full_step_reaches_prior(self):
        rng = np.random.default_rng(13)
        m = _matrix_with_spectrum(rng, 10, [1.0, 0.0])
        out = sv_threshold(m, 0.0, np.array([5.0, 0.0]), 1.0)
        sigma = np.linalg.svd(out, compute_uv=False)
        assert np.linalg.norm(sigma - [5.0, 0.0]) <= 1e-10

    def test_contracts_spectral_distance(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            sigma = np.sort(rng.uniform(0, 3, 3))[::-1]
            prev = np.sort(rng.uniform(0, 3, 3))[::-1]
            lam_p = rng.uniform(0, 1)
            m = _matrix_with_spectrum(rng, 9, sigma)
            out_sigma = np.linalg.svd(sv_threshold(m, 0.0, prev, lam_p), compute_uv=False)
            before = np.linalg.norm(sigma - prev)
            after = np.linalg.norm(out_sigma - prev)
            assert after <= before + 1e-9
            # no clamping can fire for non-negative inputs with lam_p <= 1
            assert out_sigma.min() >= -1e-12

    def test_stays_in_range_of_input(self):
        # A rank-1 input has no singular vectors for the prior's trailing
        # modes: they get no mass, and the output stays in range(M).
        rng = np.random.default_rng(16)
        m = _matrix_with_spectrum(rng, 64, [3.0, 0.0, 0.0, 0.0])
        out = sv_threshold(m, 0.5, np.array([4.0, 3.0, 2.0, 1.0]), 0.5)
        u1 = np.linalg.svd(m)[0][:, :1]
        assert np.linalg.norm(out - u1 @ (u1.conj().T @ out)) <= 1e-7 * np.linalg.norm(out)
        assert np.allclose(np.linalg.svd(out, compute_uv=False)[0], 3.25, atol=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sv_threshold(np.zeros((4, 2), dtype=complex), 0.0, np.zeros(3), 0.5)

    def test_step_out_of_range(self):
        with pytest.raises(ValueError):
            sv_threshold(np.zeros((4, 2), dtype=complex), 0.0, np.zeros(2), 1.5)


class TestExtractSupport:
    def test_all_zero(self):
        sup = extract_support(np.zeros((4, 4)), 0.1)
        assert sup.dtype == np.bool_ and sup.shape == (4, 4) and not sup.any()

    def test_threshold_example(self):
        w = np.array([[10.0, 0.01], [0.0, 5.0]])
        sup = extract_support(w, 0.1)
        assert set(map(tuple, np.argwhere(sup).tolist())) == {(0, 0), (1, 1)}

    def test_exactly_sparse_recovered(self):
        rng = np.random.default_rng(15)
        w = np.zeros((16, 16), dtype=complex)
        rows = rng.choice(16, 5, replace=False)
        cols = rng.choice(16, 5, replace=False)
        w[rows, cols] = (0.5 + rng.random(5)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        expected = {(int(r), int(c)) for r, c in zip(rows, cols)}
        for eps in (0.02, 0.1, 0.4):
            assert set(map(tuple, np.argwhere(extract_support(w, eps)).tolist())) == expected

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            extract_support(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError):
            extract_support(np.ones((2, 2)), 1.0)

    def test_nonfinite_rejected(self):
        w = np.ones((2, 2))
        w[0, 0] = np.inf
        with pytest.raises(ValueError):
            extract_support(w, 0.1)

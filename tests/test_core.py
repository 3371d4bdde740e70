import numpy as np
import pytest

from lpsrecon import (
    Decomposition,
    DynamicVolume,
    SolverConfig,
    psnr,
    soft_threshold,
    soft_threshold_matrix,
    sv_threshold,
)
from lpsrecon.core import _slice_view, _soft_threshold_keep

from helpers import grid_prox_minimizer, prox_objective, support_mask


class TestSoftThresholdScalar:
    def test_real_positive(self):
        assert soft_threshold(5 + 0j, 2.0) == pytest.approx(3 + 0j, abs=1e-12)

    def test_boundary_maps_to_zero(self):
        assert soft_threshold(3 + 4j, 5.0) == 0

    def test_phase_preserved(self):
        assert soft_threshold(3 + 4j, 2.5) == pytest.approx(1.5 + 2j, abs=1e-12)

    def test_zero_input(self):
        assert soft_threshold(0j, 1.0) == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1 + 0j, -0.1)

    def test_prox_against_grid_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lam = rng.uniform(0, 2)
            out = soft_threshold(x, lam)
            _, f_grid = grid_prox_minimizer(x, lam)
            assert prox_objective(out, x, lam) <= f_grid + 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        xs = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        ys = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        lams = rng.uniform(0, 2, 1000)
        for x, y, lam in zip(xs, ys, lams):
            assert abs(soft_threshold(x, lam) - soft_threshold(y, lam)) <= abs(x - y) + 1e-12

    def test_phase_preservation_property(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            lam = rng.uniform(0, 2)
            out = soft_threshold(x, lam)
            if out != 0:
                assert abs(np.angle(out) - np.angle(x)) < 1e-12


class TestSoftThresholdMatrix:
    def test_elementwise_real(self):
        m = np.array([[2, -3], [0, 1]], dtype=complex)
        out = soft_threshold_matrix(m, 1.0)
        assert np.allclose(out, [[1, -2], [0, 0]], atol=1e-14)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        assert np.array_equal(soft_threshold_matrix(m, 0.0), m)

    def test_full_shrinkage(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        out = soft_threshold_matrix(m, np.abs(m).max())
        assert np.all(out == 0)

    def test_matches_scalar(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = soft_threshold_matrix(m, 0.7)
        for i in range(4):
            for j in range(4):
                assert out[i, j] == pytest.approx(soft_threshold(m[i, j], 0.7), abs=1e-14)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_place_form_matches_the_complex_product(self, order):
        rng = np.random.default_rng(3)
        m = np.asarray(rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5)), order=order)
        before = m.copy()
        mag = np.abs(m)
        expected = m * (np.maximum(mag - 0.8, 0.0) / mag)
        assert np.array_equal(soft_threshold_matrix(m, 0.8), expected)
        assert m.tobytes() == before.tobytes()
        work = m.copy(order=order)
        assert _soft_threshold_keep(work, 0.8) is work
        assert np.array_equal(work, expected)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("shrink", [
    lambda lam: soft_threshold(1 + 1j, lam),
    lambda lam: soft_threshold_matrix(np.ones((4, 2), dtype=complex), lam),
    lambda lam: sv_threshold(np.ones((4, 2), dtype=complex), lam),
], ids=["soft_threshold", "soft_threshold_matrix", "sv_threshold"])
def test_every_shrink_rejects_a_non_finite_or_negative_threshold(shrink, lam):
    with pytest.raises(ValueError, match=f"threshold must be finite and >= 0, got {lam}$"):
        shrink(lam)


def _view_form_shrink(m, lam):
    """The shrink in its earlier form, on a copy: a masked divide, then one
    multiply through the float64 view of the complex entries."""
    m = m.copy(order="K")
    mag = np.abs(m)
    scale = np.maximum(mag - lam, 0.0)
    np.divide(scale, mag, out=scale, where=mag > 0)
    parts = m[..., None].view(np.float64)
    np.multiply(parts, scale[..., None], out=parts)
    return m


def _assert_same_bits(got, want):
    """Bit for bit, except that a NaN part need only be NaN in both."""
    got = np.ascontiguousarray(got).view(np.float64)
    want = np.ascontiguousarray(want).view(np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestInPlaceShrink:
    """``_soft_threshold_keep`` against its earlier float64-view form."""

    LAM = 0.75
    SPECIAL = [
        0j, complex(-0.0, 0.0), complex(0.0, -0.0), LAM, -LAM, 1j * LAM, LAM * (0.6 + 0.8j),
        np.nextafter(LAM, 1.0), np.nextafter(LAM, 0.0), 5e-324, 5e-324j, complex(1e-310, -1e-310),
        complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf),
        complex(np.inf, np.inf), complex(np.nan, 1.0), complex(1e308, 1e308),
    ]

    def _matrix(self, order):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
        m.ravel()[: len(self.SPECIAL)] = self.SPECIAL
        return np.asarray(m, order=order)

    @pytest.mark.parametrize("lam", [LAM, 0.0, 5e-324])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_for_bit_against_the_view_form(self, lam, order):
        m = self._matrix(order)
        got = m.copy(order=order)
        with np.errstate(invalid="ignore", over="ignore"):
            want = _view_form_shrink(m, lam)
            assert _soft_threshold_keep(got, lam) is got
        _assert_same_bits(got, want)

    @pytest.mark.parametrize("lam", [LAM, 0.0])
    def test_public_form_gives_nan_for_nan_and_inf(self, lam):
        m = np.array([[np.nan, complex(np.inf, 0.0), complex(0.0, -np.inf), complex(2.0, 0.0)]])
        with np.errstate(invalid="ignore"):
            out = soft_threshold_matrix(m, lam)
        assert np.isnan(out.real[0, :3]).all() and np.isnan(out.imag[0, :3]).all()
        assert out[0, 3] == 2.0 - lam


class TestContainers:
    def test_volume_shape_validation(self):
        with pytest.raises(ValueError):
            DynamicVolume(np.zeros((10, 2), dtype=complex), (3, 3, 2))

    @pytest.mark.parametrize("dims", [(32.0, 32, 4), (True, 1024, 4), (32, 32), (32, 32, 4, 1),
                                      (0, 32, 4)])
    def test_volume_dims_must_be_three_integers(self, dims):
        with pytest.raises(ValueError, match="dims"):
            DynamicVolume(np.ones((1024, 4), dtype=complex), dims)

    def test_volume_keeps_its_dims_as_a_tuple(self):
        data = np.ones((1024, 4), dtype=complex)
        listed = DynamicVolume(data, [32, 32, 4])
        assert listed.dims == (32, 32, 4) and isinstance(listed.dims, tuple)
        assert psnr(DynamicVolume(data, (32, 32, 4)), listed) == np.inf
        assert DynamicVolume(data, tuple(np.int64(n) for n in (32, 32, 4))).dims == (32, 32, 4)

    def test_volume_rejects_nonfinite(self):
        data = np.zeros((9, 2), dtype=complex)
        data[0, 0] = np.nan
        with pytest.raises(ValueError):
            DynamicVolume(data, (3, 3, 2))

    def test_volume_slice_round_trip(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
        vol = DynamicVolume(np.asfortranarray(data), (3, 4, 2))
        slices = _slice_view(vol.data, (3, 4, 2))
        assert np.shares_memory(slices, vol.data)
        assert np.array_equal(slices[1], data[:, 1].reshape(3, 4))
        assert np.array_equal(slices.reshape(2, 12).T, data)
        with pytest.raises(ValueError, match="column-major"):
            _slice_view(np.ascontiguousarray(data), (3, 4, 2))

    def test_decomposition_shape_check(self):
        with pytest.raises(ValueError):
            Decomposition(np.zeros((4, 2), dtype=complex), np.zeros((4, 3), dtype=complex))

    def test_decomposition_estimate_is_plain_sum(self):
        rng = np.random.default_rng(12)
        l = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        s = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        assert np.array_equal(Decomposition(l, s).estimate(), l + s)

    def test_support_set_mask_round_trip(self):
        rng = np.random.default_rng(13)
        mask = rng.random((7, 5)) < 0.4
        sup = support_mask(np.where(mask, 1.0 + rng.random((7, 5)), 0.0), 0.5)
        assert np.array_equal(sup, mask)
        assert np.array_equal(np.argwhere(sup), np.argwhere(mask))
        assert int(sup.sum()) == int(mask.sum())

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(lambda_L=0.0, lambda_S=1.0)
        with pytest.raises(ValueError):
            SolverConfig(lambda_L=1.0, lambda_S=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lambda_L=1.0, lambda_S=1.0, tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lambda_L=1.0, lambda_S=1.0, max_iter=0)
        auto = SolverConfig()
        assert auto.lambda_L is None and auto.lambda_S is None

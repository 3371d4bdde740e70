import numpy as np
import pytest

from lpsrecon import DynamicVolume, wavelet_forward, wavelet_inverse
from lpsrecon.wavelets import _DEC_LO, _dwt2_stack, _forward_matrix, _inverse_matrix, _level_matrix

from helpers import complex_dwt2, random_volume


def test_scaling_filter_is_orthonormal():
    h = _DEC_LO
    assert abs(h.sum() - np.sqrt(2)) <= 1e-15
    assert abs(h @ h - 1) <= 1e-15
    for shift in (2, 4, 6):
        assert abs(h[:-shift] @ h[shift:]) <= 1e-15


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_level_matrix_is_orthogonal(n):
    w = _level_matrix(n)
    assert np.abs(w @ w.T - np.eye(n)).max() < 1e-14


# (128, 128, 2) and (96, 48, 2) have levels longer than one band tile.
@pytest.mark.parametrize(
    "dims", [(8, 8, 1), (32, 32, 4), (16, 24, 2), (64, 32, 3), (128, 128, 2), (96, 48, 2)]
)
def test_perfect_reconstruction(dims):
    rng = np.random.default_rng(dims[0] + dims[1])
    vol = random_volume(rng, dims)
    coeffs = wavelet_forward(vol)
    back = wavelet_inverse(coeffs, dims)
    assert np.linalg.norm(back.data - vol.data) <= 1e-13 * np.linalg.norm(vol.data)


@pytest.mark.parametrize("dims", [(8, 8, 1), (32, 32, 4), (128, 128, 2)])
def test_parseval(dims):
    rng = np.random.default_rng(7)
    vol = random_volume(rng, dims)
    coeffs = wavelet_forward(vol)
    assert np.linalg.norm(coeffs) == pytest.approx(np.linalg.norm(vol.data), rel=1e-10)


def test_transform_is_unitary_adjoint():
    # inverse = adjoint: <T x, w> == <x, T^-1 w>
    rng = np.random.default_rng(8)
    for dims in ((16, 16, 2), (128, 128, 2)):
        x = random_volume(rng, dims)
        w = rng.standard_normal(x.data.shape) + 1j * rng.standard_normal(x.data.shape)
        lhs = np.vdot(wavelet_forward(x), w)
        rhs = np.vdot(x.data, wavelet_inverse(w, dims).data)
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x.data) * np.linalg.norm(w)


def test_constant_slice_concentrates_in_coarse_corner():
    dims = (32, 32, 2)
    vol = DynamicVolume(np.full((1024, 2), 2.5 + 0j), dims)
    coeffs = wavelet_forward(vol)
    stack = coeffs.T.reshape(2, 32, 32)
    coarse = stack[:, :4, :4]
    detail_energy = np.linalg.norm(coeffs) ** 2 - np.linalg.norm(coarse) ** 2
    assert detail_energy <= 1e-20 * np.linalg.norm(coeffs) ** 2
    # every coefficient outside the coarsest approximation block is ~0
    outside = np.abs(stack).copy()
    outside[:, :4, :4] = 0.0
    assert outside.max() < 1e-12


def test_divisibility_error_names_requirement():
    rng = np.random.default_rng(9)
    vol = random_volume(rng, (12, 8, 1))
    with pytest.raises(ValueError, match="divisible"):
        wavelet_forward(vol)


def test_inverse_shape_validation():
    with pytest.raises(ValueError):
        wavelet_inverse(np.zeros((10, 2), dtype=complex), (4, 4, 2))


def _assert_matches_complex_form(shape, levels):
    rng = np.random.default_rng(shape[1] + levels)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    scale = np.abs(stack).max()
    fwd = _dwt2_stack(stack.copy(), levels)
    assert np.abs(fwd - complex_dwt2(stack, levels)).max() <= 1e-13 * scale
    inv = _dwt2_stack(stack.copy(), levels, inverse=True)
    assert np.abs(inv - complex_dwt2(stack, levels, inverse=True)).max() <= 1e-13 * scale


# From (2, 96, 48) on, blocks span several band tiles, some with a shorter
# wrap tile (48 = 32 + 16, 40 = 32 + 8), one the longest (68 = 32 + 36), and
# levels that are tiled along one axis only. The last two reach, at 3 levels, a
# one-tile block of 4 rows, narrower than the filter's span (_SPAN = 6), beside a tiled axis.
@pytest.mark.parametrize(
    "shape",
    [(1, 8, 8), (4, 32, 32), (2, 16, 24), (3, 64, 32), (16, 256, 256),
     (2, 96, 48), (1, 40, 24), (3, 128, 64), (1, 136, 200), (1, 8, 128), (2, 128, 8)],
)
@pytest.mark.parametrize("levels", [1, 3])
def test_real_plane_transform_matches_complex_form(shape, levels):
    _assert_matches_complex_form(shape, levels)


@pytest.mark.parametrize("shape", [(16, 256, 256), (3, 128, 64)])
def test_real_plane_transform_matches_complex_form_at_four_levels(shape):
    _assert_matches_complex_form(shape, 4)


def test_band_tiles_cover_every_tile_length():
    # Every (tile, wrap-tile) split a block can have agrees with the dense level.
    for b in range(38, 104, 2):
        _assert_matches_complex_form((1, b, 8), 1)


def test_matrix_forms_keep_column_major_layout():
    rng = np.random.default_rng(12)
    dims = (16, 16, 3)
    data = np.asfortranarray(random_volume(rng, dims).data)
    coeffs = _forward_matrix(data, dims)
    assert coeffs.flags.f_contiguous
    assert _inverse_matrix(coeffs, dims).flags.f_contiguous


def test_matrix_forms_run_in_place():
    rng = np.random.default_rng(13)
    dims = (16, 16, 3)
    data = np.asfortranarray(random_volume(rng, dims).data)
    original = data.copy()
    assert _forward_matrix(data, dims) is data
    assert np.array_equal(data, wavelet_forward(DynamicVolume(original, dims)))
    assert _inverse_matrix(data, dims) is data
    assert np.linalg.norm(data - original) <= 1e-13 * np.linalg.norm(original)


def test_matrix_forms_reject_row_major_input():
    # data.T.reshape of a row-major matrix is a copy: the in-place result would be lost.
    data = np.ascontiguousarray(random_volume(np.random.default_rng(14), (16, 16, 3)).data)
    for transform in (_forward_matrix, _inverse_matrix):
        with pytest.raises(ValueError, match="column-major"):
            transform(data, (16, 16, 3))


@pytest.mark.parametrize("order", ["C", "F"])
def test_public_transforms_leave_their_input_unchanged(order):
    rng = np.random.default_rng(15)
    dims = (32, 16, 3)
    vol = random_volume(rng, dims)
    vol = DynamicVolume(np.asarray(vol.data, order=order), dims)
    before = vol.data.copy()
    coeffs = wavelet_forward(vol)
    assert vol.data.tobytes() == before.tobytes()
    coeffs = np.asarray(coeffs, order=order)
    kept = coeffs.copy()
    wavelet_inverse(coeffs, dims)
    assert coeffs.tobytes() == kept.tobytes()

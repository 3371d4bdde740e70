import math

import numpy as np
import pytest
from dataclasses import replace

from lpsrecon import DynamicVolume, generate_frames, psnr, wavelet_forward
from lpsrecon.phantom import PhantomSpec

from helpers import support_change, support_set


def test_background_rank_is_exact():
    spec = PhantomSpec(n_blobs=0, noise_sigma=0.0)
    for frame, _, _ in generate_frames(spec):
        sigma = np.linalg.svd(frame.data, compute_uv=False)
        assert sigma[spec.background_rank] / sigma[0] < 1e-10


def test_static_sequence_is_constant():
    spec = PhantomSpec(motion_step=0.0, drift_rate=0.0)
    frames, l_true, _ = zip(*generate_frames(spec))
    for t in range(1, spec.n_frames):
        assert np.array_equal(frames[t].data, frames[0].data)
        sig_t = np.linalg.svd(l_true[t].data, compute_uv=False)
        sig_p = np.linalg.svd(l_true[t - 1].data, compute_uv=False)
        assert np.linalg.norm(sig_t - sig_p) == 0.0


def test_default_spec_adjacent_frame_statistics():
    # Adjacent-frame stability of the moving default phantom, frozen from
    # the first verified run. The background spectrum drifts well under
    # 0.1 per frame. True-S wavelet support churn is intrinsically high at
    # this scale (1 px of motion on a 32 grid shifts fine-scale
    # coefficients every frame), so the measured level is frozen as a
    # regression bound; the 15% stability requirement applies to the
    # *reconstructed* S and lives in the acceptance suite.
    spec = PhantomSpec()
    churn, sdist = [], []
    sup_prev = sig_prev = None
    for t, (_, l_true, s_true) in enumerate(generate_frames(spec)):
        sup = support_set(s_true, spec.dims)
        sig = np.linalg.svd(l_true.data, compute_uv=False)
        if t:
            churn.append(support_change(sup_prev, sup))
            sdist.append(np.linalg.norm(sig - sig_prev) / np.linalg.norm(sig))
        sup_prev, sig_prev = sup, sig
    assert max(sdist) < 0.1
    assert max(churn) < 0.45
    assert float(np.mean(churn)) < 0.35


def test_determinism_and_seed_variation():
    a, b, c = (next(generate_frames(PhantomSpec(seed=seed)))[0] for seed in (4, 4, 5))
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_energy_split():
    _, l_true, s_true = next(generate_frames(PhantomSpec()))
    ratio = np.linalg.norm(s_true.data) / np.linalg.norm(l_true.data)
    assert 0.0 < ratio < 1.0


def test_sparse_component_is_wavelet_compressible():
    _, _, s_true = next(generate_frames(PhantomSpec()))
    coeffs = wavelet_forward(s_true)
    mags = np.sort(np.abs(coeffs).ravel())[::-1]
    top = int(0.10 * mags.size)
    assert np.sum(mags[:top] ** 2) >= 0.95 * np.sum(mags**2)


def test_noise_is_added_at_requested_scale():
    spec = PhantomSpec(noise_sigma=0.01)
    noisy, _, _ = next(generate_frames(spec))
    clean, _, _ = next(generate_frames(replace(spec, noise_sigma=0.0)))
    diff = noisy.data - clean.data
    rms = np.sqrt(np.mean(np.abs(diff) ** 2))
    assert rms == pytest.approx(0.01, rel=0.2)


def test_blob_out_of_bounds_rejected():
    with pytest.raises(ValueError, match="blob"):
        list(generate_frames(PhantomSpec(motion_step=50.0)))


def test_frame_generator_checks_at_the_call_and_makes_frames_on_demand():
    with pytest.raises(ValueError, match="blob"):
        generate_frames(PhantomSpec(motion_step=50.0))  # no frame asked for yet
    # With noise the frames share one random stream, so taking them one at a
    # time must draw it in the same order as the whole sequence does.
    spec = PhantomSpec(noise_sigma=0.01)
    frames = generate_frames(spec)
    first = next(frames)
    whole = list(generate_frames(spec))
    for t, parts in enumerate([first, *frames]):
        truth = whole[t]
        assert [p.data.tobytes() for p in parts] == [p.data.tobytes() for p in truth]
    assert t == spec.n_frames - 1


def test_frames_decompose_into_truth():
    spec = PhantomSpec()
    for frame, l_true, s_true in generate_frames(spec):
        total = l_true.data + s_true.data
        assert np.allclose(frame.data, total, atol=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(background_rank=5)  # exceeds n_z = 4
    with pytest.raises(ValueError):
        PhantomSpec(n_frames=0)
    with pytest.raises(ValueError):
        PhantomSpec(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        PhantomSpec(blob_width=0.0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        PhantomSpec(seed=-1)


class TestPsnr:
    def test_identical_gives_sentinel(self):
        rng = np.random.default_rng(0)
        vol = DynamicVolume(
            rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2)), (8, 8, 2)
        )
        assert math.isinf(psnr(vol, vol))

    def test_known_rms_error_is_20db(self):
        # reference peak 1, estimate offset by +0.1 in magnitude everywhere
        ref_data = np.linspace(0.1, 1.0, 64).reshape(64, 1).astype(complex)
        ref = DynamicVolume(ref_data, (8, 8, 1))
        est = DynamicVolume(ref_data + 0.1, (8, 8, 1))
        assert psnr(ref, est) == pytest.approx(20.0, abs=1e-9)

    def test_against_zero_estimate(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((64, 1)) + 1j * rng.standard_normal((64, 1))
        ref = DynamicVolume(data, (8, 8, 1))
        zero = DynamicVolume(np.zeros((64, 1), dtype=complex), (8, 8, 1))
        expected = 20 * math.log10(np.abs(data).max() / np.sqrt(np.mean(np.abs(data) ** 2)))
        assert psnr(ref, zero) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        a = DynamicVolume(np.ones((64, 1), dtype=complex), (8, 8, 1))
        b = DynamicVolume(np.ones((64, 2), dtype=complex), (8, 8, 2))
        with pytest.raises(ValueError):
            psnr(a, b)

    def test_zero_reference_rejected(self):
        zero = DynamicVolume(np.zeros((64, 1), dtype=complex), (8, 8, 1))
        with pytest.raises(ValueError):
            psnr(zero, zero)

import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from lpsrecon import (
    Decomposition,
    DynamicVolume,
    FrameSolveError,
    KSpaceData,
    Prior,
    SamplingMask,
    SolverConfig,
    acquire,
    acquire_adjoint,
    default_config,
    extract_support,
    generate,
    make_mask,
    prior_from_result,
    psnr,
    solve_ls,
    solve_priori_ls,
    solve_sequence,
    wavelet_forward,
)
from lpsrecon import solvers
from lpsrecon.operators import _data_consistency, _gram_spectrum, _sample_index, sv_threshold
from lpsrecon.phantom import PhantomSpec

from helpers import support_change, support_set


@pytest.fixture(scope="module")
def phantom_50():
    """Default phantom frame 1 acquired at 50% with a fixed mask."""
    seq = generate(PhantomSpec())
    mask = make_mask(32, 32, 0.5, seed=7)
    y = acquire(seq.frames[0], mask)
    return seq, y, default_config(y)


def test_zero_data_fixed_point():
    mask = make_mask(16, 16, 0.4, seed=1)
    y = KSpaceData(np.zeros((mask.m, 2)), mask, (16, 16, 2))
    cfg = SolverConfig(lambda_L=0.5, lambda_S=0.5)
    res = solve_ls(y, cfg)
    assert res.iterations == 1
    assert res.converged
    assert np.all(res.decomposition.L == 0)
    assert np.all(res.decomposition.S == 0)


def test_full_sampling_rank1_recovery():
    spec = PhantomSpec(background_rank=1, n_blobs=0, noise_sigma=0.0, drift_rate=0.0, n_frames=1)
    seq = generate(spec)
    mask = SamplingMask(np.ones((32, 32), dtype=bool))
    y = acquire(seq.frames[0], mask)
    sigma_max = np.linalg.svd(acquire_adjoint(y).data, compute_uv=False)[0]
    cfg = SolverConfig(lambda_L=1e-8 * sigma_max, lambda_S=1e9, max_iter=50)
    res = solve_ls(y, cfg)
    estimate = DynamicVolume(res.estimate(), spec.dims)
    assert psnr(seq.frames[0], estimate) > 100.0
    assert np.all(res.decomposition.S == 0)
    assert res.iterations <= 50


def test_phantom_50_converges(phantom_50):
    # Frozen regression from the first verified run: the solver converges
    # well within 200 iterations at tol 1e-3, the final data residual sits
    # under 0.1, and the iterate-change history decreases from iteration 1.
    _, y, cfg = phantom_50
    first = solve_ls(y, replace(cfg, max_iter=1))
    res = solve_ls(y, replace(cfg, max_iter=200))
    assert res.converged
    assert res.iterations <= 200
    assert res.data_residual < 0.1
    assert res.residual_history[-1] < res.residual_history[0]
    assert first.iterations == 1


def test_reduction_to_baseline_is_exact(phantom_50):
    _, y, cfg = phantom_50
    cfg0 = replace(cfg, lambda_p=0.0)
    empty_prior = Prior(np.zeros(4), np.zeros((32 * 32, 4), dtype=bool))
    for max_iter in (1, 5, 20, cfg.max_iter):
        cfg_k = replace(cfg0, max_iter=max_iter)
        a = solve_ls(y, cfg_k)
        b = solve_priori_ls(y, empty_prior, cfg_k)
        assert np.array_equal(a.decomposition.L, b.decomposition.L)
        assert np.array_equal(a.decomposition.S, b.decomposition.S)
        assert np.array_equal(a.residual_history, b.residual_history)
        assert a.iterations == b.iterations and a.converged == b.converged


def test_priori_zero_data_spectrum_step():
    # The prior step acts on the singular vectors of X - S, so L's columns
    # lie in range(X - S). Zero data gives X - S = 0, hence L = 0, however
    # large the prior spectrum.
    mask = make_mask(32, 32, 0.25, seed=5)
    y = KSpaceData(np.zeros((mask.m, 4)), mask, (32, 32, 4))
    prior = Prior(np.array([4.0, 2.0, 1.0, 0.0]), np.zeros((32 * 32, 4), dtype=bool))
    cfg = SolverConfig(lambda_L=0.1, lambda_S=0.1, lambda_p=0.5, max_iter=1)
    res = solve_priori_ls(y, prior, cfg)
    assert np.array_equal(res.decomposition.L, np.zeros((32 * 32, 4)))


def test_priori_zero_data_zero_prior():
    mask = make_mask(16, 16, 0.3, seed=6)
    y = KSpaceData(np.zeros((mask.m, 2)), mask, (16, 16, 2))
    prior = Prior(np.zeros(2), np.zeros((16 * 16, 2), dtype=bool))
    cfg = SolverConfig(lambda_L=0.1, lambda_S=0.1, lambda_p=0.7, max_iter=50)
    res = solve_priori_ls(y, prior, cfg)
    assert np.all(res.decomposition.L == 0)
    assert np.all(res.decomposition.S == 0)


def test_exact_prior_beats_baseline_at_quarter_sampling():
    # Paired runs over 5 seeds; the prior comes from the frame's own truth.
    for seed in range(5):
        spec = PhantomSpec(seed=seed)
        seq = generate(spec)
        mask = make_mask(32, 32, 0.25, seed=300 + seed)
        y = acquire(seq.frames[1], mask)
        cfg = default_config(y)
        prior = Prior(
            np.linalg.svd(seq.l_true[1].data, compute_uv=False),
            extract_support(wavelet_forward(seq.s_true[1]), cfg.support_eps),
        )
        p_ls = psnr(seq.frames[1], DynamicVolume(solve_ls(y, cfg).estimate(), spec.dims))
        p_pr = psnr(
            seq.frames[1], DynamicVolume(solve_priori_ls(y, prior, cfg).estimate(), spec.dims)
        )
        assert p_pr > p_ls


def test_data_consistency_fixed_point_at_full_sampling():
    # One data-consistency step of the solver makes A(X) = y exactly when the
    # mask is full.
    rng = np.random.default_rng(20)
    dims = (16, 16, 2)
    mask = SamplingMask(np.ones((16, 16), dtype=bool))
    truth = DynamicVolume(
        rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2)), dims
    )
    y = acquire(truth, mask)
    l = rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2))
    s = rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2))
    combined = np.asfortranarray(l + s)
    x = _data_consistency(
        combined, np.ascontiguousarray(y.samples.T), dims, _sample_index(mask.pattern)
    )
    z = acquire(DynamicVolume(x, dims), mask)
    assert np.linalg.norm(z.samples - y.samples) <= 1e-10 * np.linalg.norm(y.samples)


def test_single_frame_sequence_equals_solve_ls(phantom_50):
    _, y, cfg = phantom_50
    seq_res = list(solve_sequence([y], cfg, "priori-ls"))
    direct = solve_ls(y, cfg)
    assert len(seq_res) == 1
    assert np.array_equal(seq_res[0].decomposition.L, direct.decomposition.L)
    assert np.array_equal(seq_res[0].decomposition.S, direct.decomposition.S)


def test_static_sequence_support_stabilizes():
    spec = PhantomSpec(motion_step=0.0, drift_rate=0.0)
    seq = generate(spec)
    m1 = make_mask(32, 32, 0.5, seed=41)
    mr = make_mask(32, 32, 1 / 3, seed=42)
    frames = [acquire(f, m1 if t == 0 else mr) for t, f in enumerate(seq.frames)]
    results = solve_sequence(frames, SolverConfig(), "priori-ls")
    sups = [support_set(r.decomposition.S, spec.dims) for r in results]
    ratios = [support_change(sups[t - 1], sups[t]) for t in range(1, len(sups))]
    assert all(r <= ratios[0] + 1e-12 for r in ratios[1:])


def test_sequence_keeps_each_frame_as_solved_alone():
    # prior_from_result must not transform a frame's S in place after the
    # sequence has stored it.
    seq = generate(PhantomSpec(n_frames=3))
    frames = [acquire(f, make_mask(32, 32, 0.5 if t == 0 else 0.25, seed=t)) for t, f in enumerate(seq.frames)]
    cfg_first, cfg_rest = default_config(frames[0]), default_config(frames[1])
    # An unresolved config resolves from frame 1 and, for every later frame,
    # once from frame 2: frame 3 reuses frame 2's thresholds.
    results = list(solve_sequence(frames, SolverConfig(), "priori-ls"))
    alone = solve_ls(frames[0], cfg_first)
    for t, result in enumerate(results):
        if t:
            prior = prior_from_result(alone.decomposition, frames[t].dims, cfg_rest.support_eps)
            alone = solve_priori_ls(frames[t], prior, cfg_rest)
        assert np.array_equal(result.decomposition.S, alone.decomposition.S)
        assert np.array_equal(result.decomposition.L, alone.decomposition.L)


@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_solve_sequence_matches_the_explicit_chain(solver):
    # Frame 1 by ls with the config resolved from it; frames >= 2 share the
    # config resolved from frame 2, and priori-ls builds each prior with its
    # support_eps. With ls, frames >= 2 are solved alone.
    seq = generate(PhantomSpec(n_frames=3))
    frames = [acquire(f, make_mask(32, 32, 0.5 if t == 0 else 0.25, seed=t))
              for t, f in enumerate(seq.frames)]
    cfg = SolverConfig(lambda_p=0.5, support_eps=0.05)
    cfg_first, cfg_rest = default_config(frames[0], cfg), default_config(frames[1], cfg)
    want = [solve_ls(frames[0], cfg_first)]
    for y in frames[1:]:
        if solver == "ls":
            want.append(solve_ls(y, cfg_rest))
        else:
            prior = prior_from_result(want[-1].decomposition, y.dims, cfg_rest.support_eps)
            want.append(solve_priori_ls(y, prior, cfg_rest))
    got = list(solve_sequence(iter(frames), cfg, solver))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.decomposition.L, b.decomposition.L)
        assert np.array_equal(a.decomposition.S, b.decomposition.S)
        assert a.iterations == b.iterations



def test_sequence_rejects_an_unknown_solver_before_reading_a_frame(phantom_50):
    _, y, cfg = phantom_50
    read = []

    def frames():
        read.append(1)
        yield y

    results = solve_sequence(frames(), cfg, "fista")
    with pytest.raises(ValueError, match="unknown solver 'fista'"):
        next(results)
    assert read == []


def test_priori_ls_runs_on_a_wide_casorati_matrix():
    # 8x8 slices and 80 of them: L is 64 x 80, so it has 64 singular values and
    # the prior spectrum carries 16 exact zeros to reach n_z.
    spec = PhantomSpec(dims=(8, 8, 80), n_frames=3, n_blobs=0, blob_width=1.0)
    seq = generate(spec)
    frames = [acquire(f, make_mask(8, 8, 0.5, seed=t)) for t, f in enumerate(seq.frames)]
    results = list(solve_sequence(frames, SolverConfig(), "priori-ls"))
    assert len(results) == 3 and all(r.converged for r in results)
    prior = prior_from_result(results[0].decomposition, spec.dims, 0.02)
    assert prior.sigma_prev.shape == (80,)
    assert np.array_equal(prior.sigma_prev[64:], np.zeros(16))
    assert np.array_equal(
        prior.sigma_prev[:64], np.linalg.svd(results[0].decomposition.L, full_matrices=False)[1]
    )


def test_prior_from_result_leaves_the_pair_unchanged(phantom_50):
    _, y, cfg = phantom_50
    dec = solve_ls(y, replace(cfg, max_iter=5)).decomposition
    before_l, before_s = dec.L.copy(), dec.S.copy()
    prior_from_result(dec, y.dims, cfg.support_eps)
    assert dec.L.tobytes() == before_l.tobytes()
    assert dec.S.tobytes() == before_s.tobytes()


@pytest.mark.parametrize("dims", [(64, 64, 4), (128, 128, 8)])
def test_solve_peak_memory_is_at_most_five_volumes(dims):
    # X, L, S and one work buffer, plus small per-level scratch; the returned
    # L and S count towards the peak.
    n_x, n_y, n_z = dims
    seq = generate(PhantomSpec(dims=dims, n_frames=2))
    frames = [acquire(f, make_mask(n_x, n_y, 0.25, seed=t)) for t, f in enumerate(seq.frames)]
    cfg = replace(default_config(frames[0]), max_iter=3)
    first = solve_ls(frames[0], cfg)  # also fills the wavelet band caches
    prior = prior_from_result(first.decomposition, dims, cfg.support_eps)
    volume_bytes = n_x * n_y * n_z * np.dtype(np.complex128).itemsize
    for solve in (lambda: solve_ls(frames[0], cfg), lambda: solve_priori_ls(frames[1], prior, cfg)):
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * volume_bytes, f"peak {peak / volume_bytes:.2f} volumes"


def test_sequence_reads_each_frame_only_when_it_is_needed(phantom_50):
    _, y, cfg = phantom_50
    cfg = replace(cfg, max_iter=3)
    read = []

    def frames():
        for t in range(1, 4):
            read.append(t)
            yield y

    results = solve_sequence(frames(), cfg, "priori-ls")
    assert read == []
    for t in range(1, 4):
        assert next(results).iterations == 3
        assert read == list(range(1, t + 1))
    assert next(results, None) is None


def test_sequence_rejects_mixed_dims(phantom_50):
    _, y, cfg = phantom_50
    mask = make_mask(16, 16, 0.5, seed=9)
    rng = np.random.default_rng(0)
    other = KSpaceData(
        rng.standard_normal((mask.m, 2)) + 0j, mask, (16, 16, 2)
    )
    with pytest.raises(ValueError, match="dims"):
        list(solve_sequence([y, other], cfg, "priori-ls"))


def test_sequence_failure_carries_frame_index():
    # 12x12 slices are not divisible by 2^3: the wavelet step fails and the
    # sequence must abort naming the frame.
    rng = np.random.default_rng(1)
    mask = make_mask(12, 12, 0.5, seed=3)
    y = KSpaceData(
        rng.standard_normal((mask.m, 2)) + 0j, mask, (12, 12, 2)
    )
    cfg = SolverConfig(lambda_L=0.1, lambda_S=0.1)
    with pytest.raises(FrameSolveError) as err:
        list(solve_sequence([y], cfg, "priori-ls"))
    assert err.value.frame_index == 1
    assert "frame 1" in str(err.value)


def test_determinism_bitwise(phantom_50):
    _, y, cfg = phantom_50
    a = solve_ls(y, cfg)
    b = solve_ls(y, cfg)
    assert np.array_equal(a.decomposition.L, b.decomposition.L)
    assert np.array_equal(a.decomposition.S, b.decomposition.S)
    assert np.array_equal(a.residual_history, b.residual_history)
    assert a.data_residual == b.data_residual


def test_non_finite_iterate_names_iteration(phantom_50, monkeypatch):
    _, y, cfg = phantom_50
    calls = []

    def poisoned(m, *args, **kwargs):
        calls.append(None)
        out = sv_threshold(m, *args, **kwargs)
        if len(calls) == 2:
            out[0, 0] = np.inf
        return out

    monkeypatch.setattr(solvers, "sv_threshold", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(
        FloatingPointError, match="non-finite iterate at iteration 2$"
    ):
        solve_ls(y, cfg)


def test_non_finite_estimate_caught_at_full_sampling(monkeypatch):
    # With every frequency sampled, data consistency overwrites the whole
    # spectrum, so a non-finite L + S leaves the iterate finite; the final
    # data residual must still flag it.
    rng = np.random.default_rng(21)
    dims = (16, 16, 2)
    truth = DynamicVolume(rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2)), dims)
    y = acquire(truth, SamplingMask(np.ones((16, 16), dtype=bool)))
    cfg = default_config(y)

    def poisoned(m, *args, **kwargs):
        out = sv_threshold(m, *args, **kwargs)
        out[0, 0] = np.nan
        return out

    monkeypatch.setattr(solvers, "sv_threshold", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(
        FloatingPointError, match="non-finite estimate at iteration 1$"
    ):
        solve_ls(y, cfg)


def test_default_config_golden_values(phantom_50):
    # Frozen from the first verified run of the default phantom, frame 1,
    # 50% variable-density mask (seed 7).
    _, _, cfg = phantom_50
    assert cfg.lambda_L == pytest.approx(0.05207259759189849, rel=1e-9)
    assert cfg.lambda_S == pytest.approx(0.005286858860663305, rel=1e-9)
    assert cfg.lambda_p == 0.7
    assert cfg.tol == 1e-3
    assert cfg.max_iter == 300
    assert cfg.support_eps == 0.02


def test_default_config_reads_its_thresholds_off_the_zero_filled_proxy(phantom_50):
    # default_config transforms X0 in place once sigma_max is read; both
    # thresholds must still be those of the untouched proxy, bit for bit.
    _, y, cfg = phantom_50
    x0 = acquire_adjoint(y)
    assert cfg.lambda_L == cfg.lambda_l_scale * float(_gram_spectrum(x0.data)[0][0])
    assert cfg.lambda_S == cfg.lambda_s_scale * float(np.abs(wavelet_forward(x0)).max())


def test_default_config_rejects_zero_data():
    mask = make_mask(16, 16, 0.4, seed=2)
    y = KSpaceData(np.zeros((mask.m, 2)), mask, (16, 16, 2))
    with pytest.raises(ValueError):
        default_config(y)
    with pytest.raises(ValueError):
        default_config(y, SolverConfig(lambda_L=0.3))  # lambda_S still needs the data
    # Both thresholds set: the config comes back as it is, and y is not read.
    explicit = SolverConfig(lambda_L=0.3, lambda_S=0.2, tol=1e-4)
    assert default_config(y, explicit) is explicit


def test_default_config_auto_and_override(phantom_50):
    _, y, auto = phantom_50
    assert auto.lambda_L > 0 and auto.lambda_S > 0
    fixed = default_config(y, SolverConfig(lambda_L=0.9, lambda_S=0.8))
    assert fixed.lambda_L == 0.9 and fixed.lambda_S == 0.8
    half = default_config(y, SolverConfig(lambda_L=0.9))
    assert half.lambda_L == 0.9 and half.lambda_S == auto.lambda_S
    half = default_config(y, SolverConfig(lambda_S=0.8, max_iter=7))
    assert half.lambda_L == auto.lambda_L and half.lambda_S == 0.8 and half.max_iter == 7


def test_prior_shape_mismatch_rejected(phantom_50):
    _, y, cfg = phantom_50
    with pytest.raises(ValueError):
        solve_priori_ls(y, Prior(np.zeros(3), np.zeros((32 * 32, 4), dtype=bool)), cfg)


def test_prior_from_mismatched_pair_rejected():
    pair = Decomposition(np.zeros((16 * 16, 4)), np.zeros((16 * 16, 4)))
    with pytest.raises(ValueError, match="inconsistent with dims"):
        prior_from_result(pair, (32, 32, 4), 0.02)


def test_prior_support_out_of_bounds_rejected(phantom_50):
    _, y, cfg = phantom_50
    # The support mask must cover exactly the (n_x * n_y, n_z) coefficients.
    for shape in [(32 * 32 + 1, 4), (32 * 32, 3), (4, 32 * 32), (16 * 16, 4)]:
        bad = Prior(np.zeros(4), np.zeros(shape, dtype=bool))
        with pytest.raises(ValueError, match="prior support shape"):
            solve_priori_ls(y, bad, cfg)


def test_kspace_rejects_nonfinite():
    mask = make_mask(8, 8, 0.5, seed=1)
    samples = np.zeros((mask.m, 1), dtype=complex)
    samples[0, 0] = np.inf
    with pytest.raises(ValueError):
        KSpaceData(samples, mask, (8, 8, 1))


def test_residual_history_contract(phantom_50):
    _, y, cfg = phantom_50
    res = solve_ls(y, cfg)
    assert res.residual_history.shape == (res.iterations,)
    assert np.isfinite(res.residual_history).all()
    assert (res.residual_history >= 0).all()
    assert res.converged == (res.residual_history[-1] < cfg.tol)


def _norm_ratio(x, x_new, dims):
    """The relative change in its earlier form: two np.linalg.norm calls."""
    norm_old = float(np.linalg.norm(x))
    x -= x_new
    norm_diff = float(np.linalg.norm(x))
    return norm_diff / norm_old if norm_old else norm_diff


@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_residual_history_matches_the_norm_ratio(phantom_50, monkeypatch, solver):
    # The one-dot relative change moves only the stopping test's last bits:
    # L, S and the iteration count stay bit-identical.
    seq, y, cfg = phantom_50
    cfg = replace(cfg, tol=1e-5)
    if solver == "ls":
        run = lambda: solve_ls(y, cfg)  # noqa: E731
    else:
        prior = prior_from_result(solve_ls(y, cfg).decomposition, y.dims, cfg.support_eps)
        y2 = acquire(seq.frames[1], make_mask(32, 32, 0.25, seed=8))
        run = lambda: solve_priori_ls(y2, prior, cfg)  # noqa: E731
    got = run()
    monkeypatch.setattr(solvers, "_relative_change", _norm_ratio)
    want = run()
    assert got.iterations == want.iterations > 20
    assert np.array_equal(got.decomposition.L, want.decomposition.L)
    assert np.array_equal(got.decomposition.S, want.decomposition.S)
    assert np.allclose(got.residual_history, want.residual_history, rtol=1e-14, atol=0)


def test_relative_change_leaves_the_difference_in_the_old_buffer():
    rng = np.random.default_rng(11)
    dims = (6, 5, 3)
    x = np.asfortranarray(rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3)))
    x_new = np.asfortranarray(rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3)))
    want_diff, want = x - x_new, np.linalg.norm(x - x_new) / np.linalg.norm(x)
    assert solvers._relative_change(x, x_new, dims) == pytest.approx(want, rel=1e-14)
    assert np.array_equal(x, want_diff)
    zero = np.zeros_like(x_new)
    assert solvers._relative_change(zero, x_new, dims) == pytest.approx(np.linalg.norm(x_new), rel=1e-14)
    with pytest.raises(ValueError, match="column-major"):
        solvers._relative_change(np.ascontiguousarray(x), x_new, dims)

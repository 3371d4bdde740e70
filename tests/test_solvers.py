import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from lpsrecon import (
    Decomposition,
    DynamicVolume,
    ExperimentSpec,
    FrameSolveError,
    KSpaceData,
    SamplingMask,
    SolverConfig,
    acquire,
    acquire_adjoint,
    default_config,
    generate_frames,
    make_mask,
    psnr,
    run_sweep,
    solve,
    solve_sequence,
    wavelet_forward,
)
from lpsrecon import operators, solvers
from lpsrecon.core import _slice_view
from lpsrecon.harness import _acquire_sequence
from lpsrecon.operators import (
    _data_consistency,
    _gram_spectrum,
    _spectra,
    _take_samples,
    sv_threshold,
)
from lpsrecon.phantom import PhantomSpec
from lpsrecon.wavelets import WAVELET_LEVELS, _detail_free_levels, _dwt2_stack, _inverse_matrix

from helpers import reference_solve, support_change, support_set


@pytest.fixture(scope="module")
def phantom_50():
    """Default phantom frame 1 acquired at 50% with a fixed mask."""
    truth = [x for x, _, _ in generate_frames(PhantomSpec())]
    mask = make_mask(32, 32, 0.5, seed=7)
    y = acquire(truth[0], mask)
    return truth, y, default_config(y)


def test_zero_data_fixed_point():
    mask = make_mask(16, 16, 0.4, seed=1)
    y = KSpaceData(np.zeros((mask.m, 2)), mask)
    cfg = SolverConfig(lambda_L=0.5, lambda_S=0.5)
    res = solve(y, cfg)
    assert res.iterations == 1
    assert res.converged
    assert np.all(res.L == 0)
    assert np.all(res.S == 0)


def test_full_sampling_rank1_recovery():
    spec = PhantomSpec(background_rank=1, n_blobs=0, noise_sigma=0.0, drift_rate=0.0, n_frames=1)
    truth = [x for x, _, _ in generate_frames(spec)]
    mask = SamplingMask(np.ones((32, 32), dtype=bool))
    y = acquire(truth[0], mask)
    sigma_max = np.linalg.svd(acquire_adjoint(y).data, compute_uv=False)[0]
    cfg = SolverConfig(lambda_L=1e-8 * sigma_max, lambda_S=1e9, max_iter=50)
    res = solve(y, cfg)
    estimate = DynamicVolume(res.estimate(), spec.dims)
    assert psnr(truth[0], estimate) > 100.0
    assert np.all(res.S == 0)
    assert res.iterations <= 50


def test_phantom_50_converges(phantom_50):
    # Frozen regression from the first verified run: the solver converges
    # well within 200 iterations at tol 1e-3, the final data residual sits
    # under 0.1, and the iterate-change history decreases from iteration 1.
    _, y, cfg = phantom_50
    first = solve(y, replace(cfg, max_iter=1))
    res = solve(y, replace(cfg, max_iter=200))
    assert res.converged
    assert res.iterations <= 200
    assert res.data_residual < 0.1
    assert res.residual_history[-1] < res.residual_history[0]
    assert first.iterations == 1


def test_reduction_to_baseline_is_exact(phantom_50):
    _, y, cfg = phantom_50
    # A zero (L, S) gives the residual y - A(0) = y, the first iterate A^H(y),
    # and adds 0 back.
    zero_pair = Decomposition(np.zeros((32 * 32, 4)), np.zeros((32 * 32, 4)))
    for max_iter in (1, 5, 20, cfg.max_iter):
        cfg_k = replace(cfg, max_iter=max_iter)
        a = solve(y, cfg_k)
        b = solve(y, cfg_k, zero_pair)
        assert np.array_equal(a.L, b.L)
        assert np.array_equal(a.S, b.S)
        assert np.array_equal(a.residual_history, b.residual_history)
        assert a.iterations == b.iterations and a.converged == b.converged


def test_priori_zero_data_zero_prior():
    mask = make_mask(16, 16, 0.3, seed=6)
    y = KSpaceData(np.zeros((mask.m, 2)), mask)
    previous = Decomposition(np.zeros((16 * 16, 2)), np.zeros((16 * 16, 2)))
    cfg = SolverConfig(lambda_L=0.1, lambda_S=0.1, max_iter=50)
    res = solve(y, cfg, previous)
    assert np.all(res.L == 0)
    assert np.all(res.S == 0)


def test_exact_prior_beats_baseline_at_quarter_sampling():
    # Paired runs over 5 seeds; the prior comes from the frame's own truth.
    for seed in range(5):
        spec = PhantomSpec(seed=seed)
        truth, l_true, s_true = zip(*generate_frames(spec))
        mask = make_mask(32, 32, 0.25, seed=300 + seed)
        y = acquire(truth[1], mask)
        cfg = default_config(y)
        exact = Decomposition(l_true[1].data, s_true[1].data)
        p_ls = psnr(truth[1], DynamicVolume(solve(y, cfg).estimate(), spec.dims))
        p_pr = psnr(
            truth[1], DynamicVolume(solve(y, cfg, exact).estimate(), spec.dims)
        )
        assert p_pr > p_ls


@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_desk_cell_converges_at_a_tight_tolerance(solver, tmp_path):
    # One cell of the desk sweep (default phantom, seed 0, rate 1/7): at
    # tol = 1e-5 every frame must converge well before max_iter.
    experiment = ExperimentSpec(rates=(1 / 7,), solvers=(solver,), n_seeds=1)
    rows = run_sweep(experiment, SolverConfig(tol=1e-5, max_iter=3000), out=tmp_path)
    assert len(rows) == 6
    stalled = [(row.frame, row.iterations) for row in rows if not row.converged]
    assert not stalled, f"frames stopped at max_iter: {stalled}"


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
    x = _data_consistency(combined, y)
    z = acquire(DynamicVolume(x, dims), mask)
    assert np.linalg.norm(z.samples - y.samples) <= 1e-10 * np.linalg.norm(y.samples)


def test_single_frame_sequence_equals_solve_ls(phantom_50):
    _, y, cfg = phantom_50
    seq_res = list(solve_sequence([y], cfg, "priori-ls"))
    direct = solve(y, cfg)
    assert len(seq_res) == 1
    assert np.array_equal(seq_res[0].L, direct.L)
    assert np.array_equal(seq_res[0].S, direct.S)


def test_static_sequence_support_stabilizes():
    spec = PhantomSpec(motion_step=0.0, drift_rate=0.0)
    truth = [x for x, _, _ in generate_frames(spec)]
    m1 = make_mask(32, 32, 0.5, seed=41)
    mr = make_mask(32, 32, 1 / 3, seed=42)
    frames = [acquire(f, m1 if t == 0 else mr) for t, f in enumerate(truth)]
    results = solve_sequence(frames, SolverConfig(), "priori-ls")
    sups = [support_set(r.S, spec.dims) for r in results]
    ratios = [support_change(sups[t - 1], sups[t]) for t in range(1, len(sups))]
    assert all(r <= ratios[0] + 1e-12 for r in ratios[1:])


def test_sequence_keeps_each_frame_as_solved_alone():
    # The next frame's solve must not write to a frame's (L, S) after the
    # sequence has yielded it.
    truth = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=3))]
    frames = [acquire(f, make_mask(32, 32, 0.5 if t == 0 else 0.25, seed=t)) for t, f in enumerate(truth)]
    cfg_first, cfg_rest = default_config(frames[0]), default_config(frames[1])
    # An unresolved config resolves from frame 1 and, for every later frame,
    # once from frame 2: frame 3 reuses frame 2's thresholds.
    results = list(solve_sequence(frames, SolverConfig(), "priori-ls"))
    alone = solve(frames[0], cfg_first)
    for t, result in enumerate(results):
        if t:
            alone = solve(frames[t], cfg_rest, alone)
        assert np.array_equal(result.S, alone.S)
        assert np.array_equal(result.L, alone.L)


@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_solve_sequence_matches_the_explicit_chain(solver):
    # Frame 1 by ls with the config resolved from it; frames >= 2 share the
    # config resolved from frame 2, and priori-ls solves each from the
    # previous frame's pair. With ls, frames >= 2 are solved alone.
    truth = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=3))]
    frames = [acquire(f, make_mask(32, 32, 0.5 if t == 0 else 0.25, seed=t))
              for t, f in enumerate(truth)]
    cfg = SolverConfig()
    cfg_first, cfg_rest = default_config(frames[0], cfg), default_config(frames[1], cfg)
    want = [solve(frames[0], cfg_first)]
    for y in frames[1:]:
        if solver == "ls":
            want.append(solve(y, cfg_rest))
        else:
            want.append(solve(y, cfg_rest, want[-1]))
    got = list(solve_sequence(iter(frames), cfg, solver))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.L, b.L)
        assert np.array_equal(a.S, b.S)
        assert a.iterations == b.iterations


@pytest.mark.parametrize("thresholds", ["explicit", "auto"])
def test_a_result_is_the_next_frames_previous_pair(thresholds):
    # A SolveResult is its (L, S) pair, so solve takes it as previous, as
    # solve_sequence does. solve resolves auto thresholds from its own frame
    # and solve_sequence from frame 2, so on frame 2 both agree under auto too;
    # from frame 3 on only explicit thresholds chain bit for bit.
    truth = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=2))]
    y1, y2 = (acquire(f, make_mask(32, 32, 0.5 if t == 0 else 0.25, seed=t))
              for t, f in enumerate(truth))
    cfg = default_config(y2) if thresholds == "explicit" else SolverConfig()
    first = solve(y1, cfg)
    assert isinstance(first, Decomposition)
    chained = solve(y2, cfg, first)
    want = list(solve_sequence([y1, y2], cfg, "priori-ls"))[1]
    assert np.array_equal(chained.L, want.L)
    assert np.array_equal(chained.S, want.S)
    assert chained.iterations == want.iterations



@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_solves_leave_the_callers_samples_and_previous_pair_unchanged(solver):
    # priori-ls solves on the residual samples y - A(L_prev + S_prev); neither
    # the caller's acquisitions nor a previous pair may change.
    truth = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=3))]
    frames = [acquire(f, make_mask(32, 32, 0.5 if t == 0 else 0.25, seed=t))
              for t, f in enumerate(truth)]
    kept = [y.samples.tobytes() for y in frames]
    cfg = SolverConfig(max_iter=5)
    pair = solve(frames[0], cfg)
    before = pair.L.tobytes(), pair.S.tobytes()
    solve(frames[1], cfg, pair if solver == "priori-ls" else None)
    assert (pair.L.tobytes(), pair.S.tobytes()) == before
    results, solved = [], []
    for result in solve_sequence(frames, cfg, solver):
        results.append(result)
        solved.append((result.L.tobytes(), result.S.tobytes()))
    assert [(d.L.tobytes(), d.S.tobytes()) for d in results] == solved
    assert [y.samples.tobytes() for y in frames] == kept


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
    # 8x8 slices and 80 of them: L is 64 x 80, wider than it is tall.
    spec = PhantomSpec(dims=(8, 8, 80), n_frames=3, n_blobs=0, blob_width=1.0)
    truth = [x for x, _, _ in generate_frames(spec)]
    frames = [acquire(f, make_mask(8, 8, 0.5, seed=t)) for t, f in enumerate(truth)]
    results = list(solve_sequence(frames, SolverConfig(), "priori-ls"))
    assert len(results) == 3 and all(r.converged for r in results)


@pytest.mark.parametrize("dims", [(64, 64, 4), (128, 128, 8)])
def test_solve_peak_memory_is_at_most_three_and_three_quarter_volumes(dims):
    # One work buffer and the wavelet planes, plus the wavelet's wrap tile,
    # S's coefficient blocks and the sample-sized arrays; the returned L and S
    # count towards the peak, and a priori-ls solve's residual samples too.
    # Measured: 3.45 / 3.60 volumes (ls / priori-ls) at 64^2 x 4, 3.10 / 3.35 at 128^2 x 8.
    n_x, n_y, n_z = dims
    truth = [x for x, _, _ in generate_frames(PhantomSpec(dims=dims, n_frames=2))]
    frames = [acquire(f, make_mask(n_x, n_y, 0.25, seed=t)) for t, f in enumerate(truth)]
    cfg = replace(default_config(frames[0]), max_iter=3)
    first = solve(frames[0], cfg)  # also fills the wavelet band caches
    volume_bytes = n_x * n_y * n_z * np.dtype(np.complex128).itemsize
    for run in (lambda: solve(frames[0], cfg), lambda: solve(frames[1], cfg, first)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.75 * volume_bytes, f"peak {peak / volume_bytes:.2f} volumes"


def test_sequence_reads_each_frame_only_when_it_is_needed(phantom_50):
    # tol = 1e-300 keeps each solve at max_iter: copies 2 and 3 of the one
    # frame leave almost no residual data, and would converge at once.
    _, y, cfg = phantom_50
    cfg = replace(cfg, max_iter=3, tol=1e-300)
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
    other = KSpaceData(rng.standard_normal((mask.m, 2)) + 0j, mask)
    with pytest.raises(ValueError, match="dims"):
        list(solve_sequence([y, other], cfg, "priori-ls"))


def test_sequence_failure_carries_frame_index():
    # 12x12 slices are not divisible by 2^3: the wavelet step fails and the
    # sequence must abort naming the frame.
    rng = np.random.default_rng(1)
    mask = make_mask(12, 12, 0.5, seed=3)
    y = KSpaceData(rng.standard_normal((mask.m, 2)) + 0j, mask)
    cfg = SolverConfig(lambda_L=0.1, lambda_S=0.1)
    with pytest.raises(FrameSolveError) as err:
        list(solve_sequence([y], cfg, "priori-ls"))
    assert err.value.frame_index == 1
    assert "frame 1" in str(err.value)


@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_sequence_solves_every_frame_through_solve(monkeypatch, solver):
    # solve is the one way into a solve: the sequence makes one call per frame,
    # passing the previous result under priori-ls and no pair under ls.
    truth = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=3))]
    frames = [acquire(f, make_mask(32, 32, 0.5 if t == 0 else 0.25, seed=t))
              for t, f in enumerate(truth)]
    calls = []

    def counted(y, cfg, previous=None):
        calls.append(previous)
        return solve(y, cfg, previous)

    monkeypatch.setattr(solvers, "solve", counted)
    results = list(solve_sequence(frames, SolverConfig(max_iter=5), solver))
    assert len(calls) == len(frames)
    assert calls[0] is None
    if solver == "ls":
        assert calls[1:] == [None, None]
    else:
        assert calls[1] is results[0] and calls[2] is results[1]


def test_solve_checks_slice_dims_before_any_kernel(monkeypatch):
    # 12x12 slices are not divisible by 2^3. With explicit thresholds no
    # default_config reads the data, so the check in solve must come first.
    rng = np.random.default_rng(2)
    mask = make_mask(12, 12, 0.5, seed=3)
    y = KSpaceData(rng.standard_normal((mask.m, 2)) + 0j, mask)
    svts = []

    def recorded(m, lam):
        svts.append(lam)
        return sv_threshold(m, lam)

    monkeypatch.setattr(solvers, "sv_threshold", recorded)
    with pytest.raises(ValueError, match=r"divisible by 2\^3"):
        solve(y, SolverConfig(lambda_L=0.1, lambda_S=0.1))
    assert svts == []


def test_determinism_bitwise(phantom_50):
    _, y, cfg = phantom_50
    a = solve(y, cfg)
    b = solve(y, cfg)
    assert np.array_equal(a.L, b.L)
    assert np.array_equal(a.S, b.S)
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
        solve(y, cfg)


def test_non_finite_estimate_caught_at_full_sampling(monkeypatch):
    # With every frequency sampled, the sample write overwrites the whole
    # spectrum, so the iterate X^ never shows a non-finite L^. The change is
    # taken on the coefficients of X - L, T F^H(X^ - L^), which no sample write
    # touches, so a NaN in L^ stops the solve at its first iteration.
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
        FloatingPointError, match="non-finite iterate at iteration 1$"
    ):
        solve(y, cfg)


def test_default_config_golden_values(phantom_50):
    # Frozen from the first verified run of the default phantom, frame 1,
    # 50% variable-density mask (seed 7).
    _, _, cfg = phantom_50
    assert cfg.lambda_L == pytest.approx(0.05207259759189849, rel=1e-9)
    assert cfg.lambda_S == pytest.approx(0.005286858860663305, rel=1e-9)
    assert cfg.tol == 1e-3
    assert cfg.max_iter == 300


def test_default_config_reads_its_thresholds_off_the_zero_filled_proxy(phantom_50):
    # default_config transforms X0 in place once sigma_max is read; both
    # thresholds must still be those of the untouched proxy, bit for bit.
    _, y, cfg = phantom_50
    x0 = acquire_adjoint(y)
    assert cfg.lambda_L == solvers.LAMBDA_L_SCALE * float(_gram_spectrum(x0.data)[0][0])
    assert cfg.lambda_S == solvers.LAMBDA_S_SCALE * float(np.abs(wavelet_forward(x0)).max())


def test_default_config_rejects_zero_data():
    mask = make_mask(16, 16, 0.4, seed=2)
    y = KSpaceData(np.zeros((mask.m, 2)), mask)
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
    pair = Decomposition(np.zeros((32 * 32, 3)), np.zeros((32 * 32, 3)))
    with pytest.raises(ValueError, match="inconsistent with dims"):
        solve(y, cfg, pair)


def test_solve_rejects_a_prior_in_place_of_the_previous_pair(phantom_50):
    # The previous frame's pair is the prior; its L spectrum is not.
    _, y, cfg = phantom_50
    prior = np.linalg.svd(solve(y, replace(cfg, max_iter=2)).L, compute_uv=False)
    with pytest.raises(TypeError, match="previous must be a Decomposition"):
        solve(y, cfg, prior)


def test_priori_ls_is_ls_on_the_residual_of_the_previous_pair(phantom_50):
    # The definition of priori-ls: ls, under the same thresholds, on the
    # samples y - A(L_prev + S_prev), with the previous pair added back.
    truth, y, cfg = phantom_50
    pair = solve(y, cfg)
    y2 = acquire(truth[1], make_mask(32, 32, 0.25, seed=8))
    cfg2 = default_config(y2)
    got = solve(y2, cfg2, pair)
    predicted = acquire(DynamicVolume(pair.L + pair.S, y2.dims), y2.mask)
    want = solve(KSpaceData(y2.samples - predicted.samples, y2.mask), cfg2)
    assert np.any(pair.L) and np.any(pair.S)
    assert np.array_equal(got.L, want.L + pair.L)
    assert np.array_equal(got.S, want.S + pair.S)
    assert np.array_equal(got.residual_history, want.residual_history)
    assert got.data_residual == want.data_residual
    assert got.converged == want.converged


def test_prior_from_mismatched_pair_rejected(phantom_50):
    # A pair solved on a 16 x 16 grid cannot be the previous pair of a
    # 32 x 32 frame, though both have n_z = 4.
    _, y, cfg = phantom_50
    spec = PhantomSpec(dims=(16, 16, 4), n_frames=1)
    frame, _, _ = next(generate_frames(spec))
    small = acquire(frame, make_mask(16, 16, 0.5, seed=9))
    pair = solve(small, replace(default_config(small), max_iter=2))
    assert pair.L.shape == (16 * 16, 4)
    with pytest.raises(ValueError, match=r"inconsistent with dims \(32, 32, 4\)"):
        solve(y, cfg, pair)


def test_prior_support_out_of_bounds_rejected(phantom_50):
    _, y, cfg = phantom_50
    # The previous pair must cover exactly the (n_x * n_y, n_z) coefficients,
    # and the error names the dims it must match.
    for shape in [(32 * 32 + 1, 4), (32 * 32, 3), (4, 32 * 32), (16 * 16, 4)]:
        bad = Decomposition(np.zeros(shape), np.zeros(shape))
        with pytest.raises(ValueError, match=r"inconsistent with dims \(32, 32, 4\)"):
            solve(y, cfg, bad)


def test_non_finite_previous_pair_rejected(phantom_50):
    _, y, cfg = phantom_50
    l = np.zeros((32 * 32, 4), dtype=complex, order="F")
    for bad in (np.nan, np.inf):
        s = l.copy(order="F")
        s[5, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="previous pair contains non-finite entries$"
        ):
            solve(y, cfg, Decomposition(l, s))


def test_row_major_previous_pair_gives_the_column_major_iterates(phantom_50):
    # The start gathers samples from a column-major L_prev + S_prev; a pair
    # built row-major by hand must give the same solve, bit for bit.
    truth, y, cfg = phantom_50
    pair = solve(y, cfg)
    assert pair.L.flags.f_contiguous and pair.S.flags.f_contiguous
    row_major = Decomposition(np.ascontiguousarray(pair.L), np.ascontiguousarray(pair.S))
    y2 = acquire(truth[1], make_mask(32, 32, 0.25, seed=8))
    got, want = solve(y2, cfg, row_major), solve(y2, cfg, pair)
    assert np.array_equal(got.L, want.L)
    assert np.array_equal(got.S, want.S)
    assert np.array_equal(got.residual_history, want.residual_history)
    assert got.data_residual == want.data_residual


def _second_frame(phantom_50, solver):
    """Frame 2 of the default phantom at rate 1/4 (mask seed 8), its config and
    its previous pair: none for ``ls``, frame 1's solve for ``priori-ls``."""
    truth, y, cfg = phantom_50
    previous = solve(y, cfg) if solver == "priori-ls" else None
    return acquire(truth[1], make_mask(32, 32, 0.25, seed=8)), cfg, previous


@pytest.mark.parametrize("scale", [1, 0.01], ids=["auto", "fine-detail"])
@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_full_size_ffts_are_2_plus_1_per_level_0_iteration(
    phantom_50, monkeypatch, solver, scale
):
    # The loop holds spectra: X^0 is the scattered samples, with no transform;
    # each iteration inverts its fold of X^ - L^ once, at quarter size when its
    # analysis starts at level 1 and at full size when it starts at level 0, and
    # transforms S's coarse block once; L and S each take one inverse at the
    # end. A priori-ls start gathers from L_prev + S_prev through one more
    # full-size transform. cfg has both thresholds set, so default_config reads
    # no samples. At the default thresholds the bound clears every iteration;
    # at lambda_S / 100 the finest level keeps detail, and some do not.
    y2, cfg, previous = _second_frame(phantom_50, solver)
    cfg = replace(cfg, lambda_S=cfg.lambda_S * scale)
    n_x, n_y, n_z = y2.dims
    spectra, forward_matrix = operators._spectra, solvers._forward_matrix
    calls, firsts = [], []

    def counted(x, dims, inverse=False):
        calls.append((dims, inverse))
        return spectra(x, dims, inverse)

    def spied(data, dims, planes=None, levels=WAVELET_LEVELS):
        firsts.append(WAVELET_LEVELS - levels)
        return forward_matrix(data, dims, planes, levels)

    monkeypatch.setattr(operators, "_spectra", counted)
    monkeypatch.setattr(solvers, "_spectra", counted)
    monkeypatch.setattr(solvers, "_forward_matrix", spied)
    result = solve(y2, cfg, previous)
    k = result.iterations
    assert k > 1 and len(firsts) == k
    from_0 = firsts.count(0)
    assert (from_0 == 0) == (scale == 1)
    inverse = [dims for dims, inv in calls if inv]
    forward = [dims for dims, inv in calls if not inv]
    start = previous is not None
    assert forward[:start] == [y2.dims] * start
    assert len(forward) == start + k
    assert inverse.count(y2.dims) == 2 + from_0
    assert inverse.count((n_x // 2, n_y // 2, n_z)) == k - from_0 == len(inverse) - 2 - from_0
    assert all(dims[0] <= n_x and dims[2] == n_z for dims in forward[start:])
    if scale == 1:
        assert all(dims[0] < n_x for dims in forward[start:])


@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_data_residual_is_the_misfit_of_the_returned_pair(phantom_50, solver):
    # Read off the last iterate, it is still ||y - A(L + S)|| against the
    # caller's whole samples, with the previous pair inside L and S for priori-ls.
    y2, cfg, previous = _second_frame(phantom_50, solver)
    result = solve(y2, cfg, previous)
    predicted = _take_samples(np.add(result.L, result.S, order="F"), y2.dims, y2.mask)
    want = float(np.linalg.norm(y2.samples - predicted))
    assert want > 0
    assert abs(result.data_residual - want) <= 1e-12 * want


@pytest.mark.parametrize("dims", [(32, 32, 4), (128, 128, 8), (8, 128, 2), (64, 32, 3)])
@pytest.mark.parametrize("skipped", [0, 1, 2, 3, None])
def test_sparse_spectrum_matches_the_full_synthesis_and_transform(dims, skipped):
    # Coefficients nonzero only in the top-left (n_x >> j) x (n_y >> j) level
    # block (j = 0 is the whole stack; None, nowhere): the block's synthesis and
    # spectrum, tiled out with the lowpass response, give the full F T^H W.
    n_x, n_y, n_z = dims
    rng = np.random.default_rng(n_x + n_y + n_z)
    w = np.zeros((n_x * n_y, n_z), dtype=complex, order="F")
    coef = w.T.reshape(n_z, n_x, n_y)
    if skipped is not None:
        shape = (n_z, n_x >> skipped, n_y >> skipped)
        coef[:, : shape[1], : shape[2]] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    j = _detail_free_levels(np.abs(coef) ** 2, 0.0)
    assert j == (WAVELET_LEVELS if skipped is None else skipped)
    want = w.copy(order="F")
    _inverse_matrix(want, dims)
    _spectra(want, dims)
    block = solvers._block_spectrum(np.ascontiguousarray(coef[:, : n_x >> j, : n_y >> j]), j)
    got = solvers._sparse_spectrum(block, solvers._tiling(dims, j))
    assert got.flags.f_contiguous
    if skipped in (0, None):
        assert np.array_equal(got, want)
    else:
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("dims", [(32, 32, 4), (8, 128, 2), (64, 32, 3)])
@pytest.mark.parametrize("skipped", [0, 1, 2, 3])
def test_sparse_spectrum_on_the_samples_is_the_full_one_gathered_bit_for_bit(dims, skipped):
    # The loop reads S^ at mask.index only, and tiles it out in full once, at
    # the end: both go through one rule, so they agree to the bit.
    n_x, n_y, n_z = dims
    rng = np.random.default_rng(n_x * n_y + skipped)
    shape = (n_z, n_x >> skipped, n_y >> skipped)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = make_mask(n_x, n_y, 0.3, seed=skipped)
    full = solvers._sparse_spectrum(block, solvers._tiling((n_x, n_y, n_z), skipped))
    sampled = solvers._sparse_spectrum(block, solvers._tiling((n_x, n_y, n_z), skipped, mask.index))
    assert sampled.shape == (mask.m, n_z)
    assert sampled.tobytes(order="F") == full[mask.index].tobytes(order="F")


@pytest.mark.parametrize("dims", [(32, 32, 4), (8, 128, 2), (64, 32, 3)])
@pytest.mark.parametrize("skipped", [1, 2, 3])
def test_off_sample_energy_of_a_block_and_of_its_refinements(dims, skipped):
    # sum |B|^2 G is the energy of the tiled-out spectrum off the samples, and
    # a block refined to a larger level block tiles out to the same spectrum.
    n_x, n_y, n_z = dims
    rng = np.random.default_rng(n_x * n_y + skipped)
    shape = (n_z, n_x >> skipped, n_y >> skipped)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = make_mask(n_x, n_y, 0.3, seed=skipped)
    full = solvers._sparse_spectrum(block, solvers._tiling(dims, skipped))
    off = np.ones(n_x * n_y, dtype=bool)
    off[mask.index] = False
    want = np.linalg.norm(full[off]) ** 2
    got = solvers._off_energy(block, solvers._off_sample_weights(dims, skipped, mask.index))
    assert abs(got - want) <= 1e-13 * want
    for finer in range(skipped):
        refined = solvers._refined(block, skipped, finer)
        assert refined.shape == (n_z, n_x >> finer, n_y >> finer)
        again = solvers._sparse_spectrum(refined, solvers._tiling(dims, finer))
        assert np.linalg.norm(again - full) <= 1e-13 * np.linalg.norm(full)


def _sample_rows(dims, rate, seed, keep=None):
    """A mask at ``rate`` and random m x n_z rows on it, column-major; with
    ``keep``, all rows but that many are 0."""
    n_x, n_y, n_z = dims
    rng = np.random.default_rng(seed)
    mask = make_mask(n_x, n_y, rate, seed=seed)
    rows = rng.standard_normal((mask.m, n_z)) + 1j * rng.standard_normal((mask.m, n_z))
    if keep is not None:
        rows[rng.permutation(mask.m)[keep:]] = 0
    return mask, np.asfortranarray(rows)


def _one_level(rows, mask, dims):
    """One analysis level of F^H of ``rows`` scattered out on ``mask``, as
    the (n_z, n_x, n_y) stack of its four bands (lowpass block top-left)."""
    x = operators._scattered_samples(KSpaceData(rows, mask))
    _spectra(x, dims, inverse=True)
    return _dwt2_stack(_slice_view(x, dims), 1)


@pytest.mark.parametrize("dims", [(32, 32, 4), (128, 128, 8), (8, 128, 2), (64, 32, 3)])
def test_fold_and_a_quarter_size_inverse_give_the_lowpass_block_of_one_level(dims):
    # Mallat's alias sum: the lowpass band of one analysis level of F^H D, for
    # D on the samples, is the quarter-size inverse DFT of D folded with the
    # conjugate one-level responses, the adjoint of _sparse_spectrum's tiling.
    n_x, n_y, n_z = dims
    mask, rows = _sample_rows(dims, 0.3, n_x + n_z)
    want = _one_level(rows, mask, dims)[:, : n_x // 2, : n_y // 2]
    plan = solvers._fold_plan(solvers._tiling(dims, 1, mask.index))
    got = solvers._fold(rows.copy(order="F"), plan, np.empty((n_z, n_x * n_y // 4), dtype=complex))
    got = _spectra(got.T, (n_x // 2, n_y // 2, n_z), inverse=True)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("dims", [(32, 32, 4), (8, 128, 2), (64, 32, 3)])
@pytest.mark.parametrize("skipped", [0, 1, 2])
def test_fold_is_the_adjoint_of_the_sparse_spectrum_on_the_samples(dims, skipped):
    # <fold(D), B> = <D, S^ at the samples from B>, for any block spectrum B.
    n_x, n_y, n_z = dims
    mask, rows = _sample_rows(dims, 0.3, n_x * n_y + skipped)
    rng = np.random.default_rng(skipped)
    shape = (n_z, n_x >> skipped, n_y >> skipped)
    block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tiling = solvers._tiling(dims, skipped, mask.index)
    out = np.empty((n_z, block[0].size), dtype=complex)
    folded = solvers._fold(rows.copy(order="F"), solvers._fold_plan(tiling), out)
    lhs = np.vdot(folded, block.reshape(n_z, -1))
    rhs = np.vdot(rows, solvers._sparse_spectrum(block, tiling))
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(rows) * np.linalg.norm(block)


@pytest.mark.parametrize("dims", [(32, 32, 4), (8, 128, 2), (64, 32, 3)])
def test_fold_at_level_0_is_the_scatter_bit_for_bit(dims):
    # With the tiling of j = 0 (the mask index, response 1) the fold is the
    # scatter into zeroed spectra that the loop ran before it had a fold.
    n_x, n_y, n_z = dims
    mask, rows = _sample_rows(dims, 0.3, n_y + n_z)
    plan = solvers._fold_plan(solvers._tiling(dims, 0, mask.index))
    got = solvers._fold(rows.copy(order="F"), plan, np.empty((n_z, n_x * n_y), dtype=complex))
    assert got.tobytes() == operators._scattered_samples(KSpaceData(rows, mask)).tobytes(order="F")


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n_x=st.sampled_from([8, 16, 32, 64]),
    n_y=st.sampled_from([8, 16, 32, 64]),
    n_z=st.integers(1, 3),
    rate=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
    keep=st.one_of(st.none(), st.integers(1, 4)),
)
def test_detail_bounds_cap_every_level_1_detail(n_x, n_y, n_z, rate, seed, keep):
    # Each row of _detail_bounds times |D| caps its band's largest coefficient
    # on each slice, up to the transforms' rounding, which the slack allows;
    # with one nonzero sample the cap is reached.
    dims = (n_x, n_y, n_z)
    mask, rows = _sample_rows(dims, rate, seed, keep)
    stack = np.abs(_one_level(rows, mask, dims))
    hx, hy = n_x // 2, n_y // 2
    bands = (stack[:, :hx, hy:], stack[:, hx:, :hy], stack[:, hx:, hy:])
    largest = np.array([band.max(axis=(1, 2)) for band in bands])
    bound = solvers._detail_bounds(dims, mask.index) @ np.abs(rows)
    assert bound.shape == (3, n_z)
    slack = 1e-14 * np.linalg.norm(rows)
    assert (largest <= bound * (1 + 1e-12) + slack).all()
    if keep == 1:
        np.testing.assert_allclose(largest, bound, rtol=1e-12, atol=slack)


def test_priori_ls_scores_at_least_view_sharing_at_128():
    # The seq-128-priori protocol: 6 frames at 128x128x8, frame 1 at rate 0.5
    # on mask seed 0 and later frames at 1/7 on mask seed 1. View sharing is
    # no solve: frame 1's L + S, then the previous estimate with each frame's
    # samples put in. Over frames 2-6, against the clean L + S, priori-ls reads
    # 36.48 dB and view sharing 33.29 (one BLAS thread). The desk grid has no
    # such check: there priori-ls reads 0.6-2.3 dB below view sharing.
    spec = PhantomSpec(dims=(128, 128, 8), n_frames=6, seed=0)
    frames, truths = [], []
    for x, l, s in generate_frames(spec):
        frames.append(x)
        truths.append(DynamicVolume(l.data + s.data, spec.dims))
    kspace = list(_acquire_sequence(frames, 128, 128, 0.5, 1 / 7, lambda tier: tier))
    results = list(solve_sequence(kspace, SolverConfig(), "priori-ls"))
    shared = np.asfortranarray(results[0].estimate())
    prior_scores, shared_scores = [], []
    for y, truth, result in zip(kspace[1:], truths[1:], results[1:]):
        shared = _data_consistency(shared, y)
        prior_scores.append(psnr(truth, DynamicVolume(result.estimate(), spec.dims)))
        shared_scores.append(psnr(truth, DynamicVolume(shared, spec.dims)))
    assert np.mean(prior_scores) >= np.mean(shared_scores), (prior_scores, shared_scores)


def test_kspace_rejects_nonfinite():
    mask = make_mask(8, 8, 0.5, seed=1)
    samples = np.zeros((mask.m, 1), dtype=complex)
    samples[0, 0] = np.inf
    with pytest.raises(ValueError):
        KSpaceData(samples, mask)


def test_residual_history_contract(phantom_50):
    _, y, cfg = phantom_50
    res = solve(y, cfg)
    assert res.residual_history.shape == (res.iterations,)
    assert np.isfinite(res.residual_history).all()
    assert (res.residual_history >= 0).all()
    assert res.converged == (res.residual_history[-1] < cfg.tol)


@pytest.mark.parametrize("solver", ["ls", "priori-ls"])
def test_residual_history_matches_the_norm_ratio(monkeypatch, solver):
    # The loop never forms X^ and holds L^ on the samples only; it reads its
    # relative change off S's block spectra, weighted by the frequencies off
    # the samples. The oracle (tests/helpers.py) materializes X^, L^ and S^
    # and takes the norm ratio ||X^ - X^_new|| / ||X^||. Frame 2 of the
    # 32^2 x 4 and 64^2 x 4 phantoms at rate 1/4, at the default thresholds
    # and at lambda_S / 100, where the finest level keeps detail (j = 0) in
    # some iteration. Every iteration's analysis starts at level 1 at the
    # default thresholds, and some at level 0 at lambda_S / 100. Measured:
    # histories within 8.4e-14 relative.
    skipped, firsts = [], []
    block_spectrum, forward_matrix = solvers._block_spectrum, solvers._forward_matrix

    def spied(w, j):
        skipped.append(j)
        return block_spectrum(w, j)

    def started(data, dims, planes=None, levels=WAVELET_LEVELS):
        firsts.append(WAVELET_LEVELS - levels)
        return forward_matrix(data, dims, planes, levels)

    monkeypatch.setattr(solvers, "_block_spectrum", spied)
    monkeypatch.setattr(solvers, "_forward_matrix", started)
    for dims in [(32, 32, 4), (64, 64, 4)]:
        truth = [x for x, _, _ in generate_frames(PhantomSpec(dims=dims, n_frames=2))]
        y1, y2 = (acquire(f, make_mask(dims[0], dims[1], rate, seed=t))
                  for t, (f, rate) in enumerate(zip(truth, (0.5, 0.25))))
        auto = default_config(y1)
        for cfg in (auto, replace(auto, lambda_S=auto.lambda_S / 100)):
            previous = solve(y1, cfg) if solver == "priori-ls" else None
            skipped.clear()
            firsts.clear()
            got = solve(y2, cfg, previous)
            L, S, converged, history, data_residual = reference_solve(y2, cfg, previous)
            assert got.iterations == len(history) > 1 and got.converged == converged
            np.testing.assert_allclose(got.residual_history, history, rtol=1e-12, atol=0)
            assert np.linalg.norm(got.L - L) <= 1e-13 * np.linalg.norm(L)
            assert np.linalg.norm(got.S - S) <= 1e-13 * np.linalg.norm(S)
            assert abs(got.data_residual - data_residual) <= 1e-12 * data_residual
            assert len(firsts) == got.iterations
            if cfg is auto:
                assert set(firsts) == {1}
            else:
                assert 0 in skipped and 0 in firsts

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from lpsrecon import (
    DynamicVolume,
    ExperimentSpec,
    KSpaceData,
    Prior,
    SamplingMask,
    SolverConfig,
    acquire,
    acquire_adjoint,
    default_config,
    generate,
    make_mask,
    psnr,
    run_sweep,
    solve_ls,
    solve_priori_ls,
    solve_sequence,
    soft_threshold,
    sv_threshold,
    wavelet_forward,
    wavelet_inverse,
)
from lpsrecon.phantom import PhantomSpec

from helpers import (
    grid_prox_minimizer,
    prox_objective,
    random_volume,
    support_change,
    support_set,
)


def test_criterion_1_prox_oracles():
    """soft_threshold matches brute-force prox; sv_threshold acts on the spectrum."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)

    for _ in range(1000):
        x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lam = rng.uniform(0.0, 2.0)
        out = soft_threshold(x, lam)
        u_grid, f_grid = grid_prox_minimizer(x, lam)
        f_out = prox_objective(out, x, lam)
        # the closed form is never beaten by brute force ...
        assert f_out <= f_grid + 1e-10
        # ... and brute force lands on the same minimum to 1e-8
        assert f_grid - f_out <= 1e-8
        assert abs(out - u_grid) <= 1e-2

    for _ in range(100):
        m = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        lam = rng.uniform(0.05, 2.0)
        sigma_in = np.linalg.svd(m, compute_uv=False)
        sigma_out = np.linalg.svd(sv_threshold(m, lam), compute_uv=False)
        assert np.abs(sigma_out - np.maximum(sigma_in - lam, 0.0)).max() <= 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: prox oracles match brute force ({elapsed:.1f}s)")


def test_criterion_2_operator_algebra():
    """Adjoint identity, AA^H = I on samples, wavelet PR and Parseval at 1e-10."""
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    shapes = [(8, 8, 1), (16, 8, 3), (32, 32, 4), (16, 16, 2)]

    trials = 0
    for dims in shapes:
        n_x, n_y, n_z = dims
        for k in range(25):
            mask = make_mask(n_x, n_y, rng.uniform(0.2, 0.9), seed=k)
            x = random_volume(rng, dims)
            y = KSpaceData(
                rng.standard_normal((mask.m, n_z)) + 1j * rng.standard_normal((mask.m, n_z)),
                mask,
                dims,
            )
            lhs = np.vdot(acquire(x, mask).samples, y.samples)
            rhs = np.vdot(x.data, acquire_adjoint(y).data)
            assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x.data) * np.linalg.norm(y.samples)
            z = acquire(acquire_adjoint(y), mask)
            assert np.linalg.norm(z.samples - y.samples) <= 1e-10 * np.linalg.norm(y.samples)
            trials += 1

        vol = random_volume(rng, dims)
        coeffs = wavelet_forward(vol)
        back = wavelet_inverse(coeffs, dims)
        assert np.linalg.norm(back.data - vol.data) <= 1e-10 * np.linalg.norm(vol.data)
        assert abs(np.linalg.norm(coeffs) - np.linalg.norm(vol.data)) <= 1e-10 * np.linalg.norm(
            vol.data
        )

    elapsed = time.perf_counter() - started
    assert trials == 100
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: operator algebra holds at 1e-10 ({elapsed:.1f}s)")


def test_criterion_3_reduction_regression():
    """solve_priori_ls(lambda_p=0, empty support) is iterate-identical to solve_ls."""
    started = time.perf_counter()
    seq = generate(PhantomSpec())
    mask = make_mask(32, 32, 0.5, seed=7)
    y = acquire(seq.frames[0], mask)
    cfg = replace(default_config(y), lambda_p=0.0)
    empty_prior = Prior(np.zeros(4), np.zeros((32 * 32, 4), dtype=bool))

    for max_iter in (1, 7, 25, cfg.max_iter):
        cfg_k = replace(cfg, max_iter=max_iter)
        a = solve_ls(y, cfg_k)
        b = solve_priori_ls(y, empty_prior, cfg_k)
        scale = np.linalg.norm(a.decomposition.L) + np.linalg.norm(a.decomposition.S)
        assert np.linalg.norm(a.decomposition.L - b.decomposition.L) <= 1e-12 * scale
        assert np.linalg.norm(a.decomposition.S - b.decomposition.S) <= 1e-12 * scale
        assert a.iterations == b.iterations
        assert np.array_equal(a.residual_history, b.residual_history)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: prior solver reduces exactly to baseline ({elapsed:.1f}s)")


def test_criterion_4_exact_regime_recovery():
    """Rank-1 noiseless volume, full sampling: baseline recovers > 100 dB."""
    spec = PhantomSpec(background_rank=1, n_blobs=0, noise_sigma=0.0, drift_rate=0.0, n_frames=1)
    seq = generate(spec)
    mask = SamplingMask(np.ones((32, 32), dtype=bool))
    y = acquire(seq.frames[0], mask)
    sigma_max = np.linalg.svd(acquire_adjoint(y).data, compute_uv=False)[0]
    cfg = SolverConfig(lambda_L=1e-8 * sigma_max, lambda_S=1e9, max_iter=50)
    res = solve_ls(y, cfg)
    value = psnr(seq.frames[0], DynamicVolume(res.estimate(), spec.dims))
    assert res.iterations <= 50
    assert value > 100.0
    print(f"\nACCEPTANCE 4 PASS: exact-regime recovery at {value:.1f} dB in {res.iterations} it")


def test_criterion_5_priori_outperforms_baseline(tmp_path):
    """Desk-scale sampling-rate sweep: prior-informed solver wins at every rate,
    and every frame of the sweep converges."""
    started = time.perf_counter()
    experiment = ExperimentSpec(
        phantom=PhantomSpec(),
        first_frame_rate=0.5,
        rates=(1 / 7, 1 / 5, 1 / 3),
        solvers=("ls", "priori-ls"),
        n_seeds=5,
        output_dir=str(tmp_path / "sweep"),
    )
    run_sweep(experiment)
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * 3 * 5 * experiment.phantom.n_frames
    stalled = [row for row in rows if not row.endswith(",true")]
    assert not stalled, f"{len(stalled)} of {len(rows)} frames stopped at max_iter: {stalled[:5]}"
    lines = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()[1:]
    means = {}
    for line in lines:
        solver, rate, mean = line.split(",")
        means[(solver, rate)] = float(mean)

    rates_txt = [f"{r:.6f}" for r in experiment.rates]
    gaps = {}
    for rate in rates_txt:
        gaps[rate] = means[("priori-ls", rate)] - means[("ls", rate)]
        assert gaps[rate] >= 0.0, f"priori-ls loses at rate {rate}: {gaps[rate]:+.3f} dB"
    assert gaps[rates_txt[0]] >= 0.5, f"gap at 1/7 is only {gaps[rates_txt[0]]:+.3f} dB"

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    gap_txt = ", ".join(f"{r}: {g:+.2f} dB" for r, g in gaps.items())
    print(f"\nACCEPTANCE 5 PASS: priori-ls >= ls at every rate ({gap_txt}); "
          f"{len(rows)}/{len(rows)} frames converged ({elapsed:.0f}s)")


@pytest.fixture(scope="module")
def prior_validity_chain():
    """Frozen protocol: default phantom, 50% first frame, 1/3 afterwards."""
    spec = PhantomSpec()
    seq = generate(spec)
    mask_first = make_mask(32, 32, 0.5, seed=101)
    mask_rest = make_mask(32, 32, 1 / 3, seed=102)
    frames = [acquire(f, mask_first if t == 0 else mask_rest) for t, f in enumerate(seq.frames)]
    cfg = SolverConfig()
    results = list(solve_sequence(frames, cfg, "priori-ls"))
    return spec, cfg, results


def test_criterion_6_prior_validity(prior_validity_chain):
    """Reconstructed S support and L spectrum stay stable frame to frame."""
    spec, cfg, results = prior_validity_chain
    churn, sdist = [], []
    sup_prev = sig_prev = None
    for t, res in enumerate(results):
        sup = support_set(res.decomposition.S, spec.dims, cfg.support_eps)
        sig = np.linalg.svd(res.decomposition.L, compute_uv=False)
        if t:
            churn.append(support_change(sup_prev, sup))
            sdist.append(np.linalg.norm(sig - sig_prev) / np.linalg.norm(sig))
        sup_prev, sig_prev = sup, sig
    assert max(churn) < 0.15, f"support churn {max(churn):.3f} exceeds 15%"
    assert max(sdist) < 0.1, f"spectral distance {max(sdist):.3f} exceeds 0.1"
    print(
        f"\nACCEPTANCE 6 PASS: recon support churn <= {max(churn):.3f}, "
        f"spectral distance <= {max(sdist):.3f}"
    )


def test_criterion_7_sweep_determinism(tmp_path):
    """Re-running the same sweep config produces byte-identical CSV output."""
    base = ExperimentSpec(
        phantom=PhantomSpec(n_frames=3),
        rates=(0.2, 1 / 3),
        solvers=("ls", "priori-ls"),
        n_seeds=1,
        output_dir=str(tmp_path / "a"),
    )
    run_sweep(base)
    run_sweep(replace(base, output_dir=str(tmp_path / "b")))
    sweep_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    sweep_b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert sweep_a == sweep_b
    summary_a = (tmp_path / "a" / "summary.csv").read_bytes()
    summary_b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert summary_a == summary_b
    print(f"\nACCEPTANCE 7 PASS: sweep.csv byte-identical across reruns ({len(sweep_a)} bytes)")


def test_criterion_8_convergence_bookkeeping(prior_validity_chain):
    """Converged runs stopped below 1e-3 relative change; histories are sane."""
    spec, cfg, results = prior_validity_chain
    checked = 0
    for res in results:
        assert np.isfinite(res.residual_history).all()
        assert res.residual_history.shape == (res.iterations,)
        assert res.iterations <= cfg.max_iter
        if res.converged:
            assert res.residual_history[-1] < 1e-3
            checked += 1
    assert checked >= 1, "no converged runs to check"
    print(f"\nACCEPTANCE 8 PASS: {checked}/{len(results)} converged runs stopped below 1e-3")

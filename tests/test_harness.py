import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from lpsrecon import (
    DynamicVolume,
    ExperimentSpec,
    SolverConfig,
    generate,
    load_mask,
    load_volume,
    acquire,
    parse_config,
    prior_from_result,
    run_sweep,
    save_volume,
    solve_ls,
    solve_priori_ls,
)
import lpsrecon.cli as cli
from lpsrecon.cli import main
from lpsrecon.harness import _SECTIONS, _mask_seed, write_summary_csv, write_sweep_csv
from lpsrecon.phantom import PhantomSpec

CONFIG_TEXT = """\
# full experiment description
[phantom]
n_x = 32
n_y = 32
n_z = 4
n_frames = 3
background_rank = 2
n_blobs = 3
blob_amplitude = 0.04
motion_step = 1.0
noise_sigma = 0.0
seed = 0

[solver]
lambda_l = auto
lambda_s = auto   # data-scaled default
lambda_p = 0.7
support_eps = 0.02
tol = 1e-3
max_iter = 300

[sweep]
first_frame_rate = 0.5
rates = 0.2, 0.333333
solvers = ls, priori-ls
n_seeds = 1
output_dir = unused
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def test_parse_config_round_trip(config_file):
    experiment, cfg = parse_config(config_file)
    assert experiment.phantom.dims == (32, 32, 4)
    assert experiment.phantom.n_frames == 3
    assert experiment.first_frame_rate == 0.5
    assert experiment.rates == (0.2, 0.333333)
    assert experiment.solvers == ("ls", "priori-ls")
    assert experiment.n_seeds == 1
    assert cfg == SolverConfig(lambda_p=0.7, support_eps=0.02)


def test_parse_config_defaults_for_missing_sections(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("[phantom]\nn_frames = 2\n")
    experiment, cfg = parse_config(path)
    assert experiment.phantom.n_frames == 2
    assert experiment.rates == ExperimentSpec().rates
    assert cfg == SolverConfig()


def _config_with(section: str, line: str) -> str:
    """CONFIG_TEXT with ``line`` in ``section``, in place of the section's line
    of the same key; the section is added if it is missing."""
    header = f"[{section}]\n"
    if header not in CONFIG_TEXT:
        return f"{CONFIG_TEXT}\n{header}{line}\n"
    head, body = CONFIG_TEXT.split(header)
    body, sep, rest = body.partition("\n[")
    key = line.split("=")[0].strip()
    body = re.sub(rf"^{key} =.*\n", "", body, flags=re.M)
    return f"{head}{header}{line}\n{body}{sep}{rest}"


@pytest.mark.parametrize("section, line, names", [
    ("solver", "tol = -1", ["tol must be > 0"]),
    ("solver", "tol = inf", ["tol must be > 0", "inf"]),
    ("solver", "max_iter = 1.5", ["max_iter", "1.5"]),
    ("solver", "lamda_p = 0.0", ["unknown key 'lamda_p'"]),
    ("solver", "lambda_l_scale = 0", ["lambda_l_scale must be"]),
    ("solver", "lambda_s = -2", ["lambda_S must be"]),
    ("solver.fista", "tol = 1e-3", ["unknown section"]),
    ("solver.ls", "tol = 1e-3", ["unknown section", "[solver], [sweep]"]),
    ("phantom", "blob_width = wide", ["blob_width", "wide"]),
    ("sweep", "n_seeds = many", ["n_seeds", "many"]),
    ("phantom", "blob_amplitude = nan", ["blob_amplitude must be finite, got nan"]),
    ("phantom", "motion_step = inf", ["motion_step must be finite, got inf"]),
    ("phantom", "noise_sigma = nan", ["noise_sigma must be finite, got nan"]),
    ("phantom", "drift_rate = inf", ["drift_rate must be finite, got inf"]),
    ("phantom", "blob_width = nan", ["blob_width must be finite, got nan"]),
    ("phantom", "seed = -1", ["seed must be >= 0, got -1"]),
    # The mask falloff is a fixed constant; its old key fails by name.
    ("sweep", "density_falloff = 2.0", ["unknown key 'density_falloff'"]),
    ("sweep", "density_falloff = nan", ["unknown key 'density_falloff'"]),
], ids=["tol", "tol-inf", "max_iter", "misspelt", "scale", "threshold", "section", "old-section",
        "phantom", "sweep", "amplitude", "motion", "noise", "drift", "width", "seed", "falloff",
        "falloff-nan"])
def test_parse_config_errors_name_the_section_and_key(tmp_path, section, line, names):
    path = tmp_path / "bad.cfg"
    path.write_text(_config_with(section, line))
    with pytest.raises(ValueError) as err:
        parse_config(path)
    message = str(err.value)
    assert f"[{section}]" in message
    for name in names:
        assert name in message
    assert "lambda_L" not in message


def test_shipped_configs_parse_cleanly(tmp_path):
    root = Path(__file__).resolve().parents[1]
    experiment, cfg = parse_config(root / "demos" / "experiment.cfg")
    assert experiment.n_seeds == 5 and cfg.support_eps == 0.02
    blocks = re.findall(r"```ini\n(.*?)```", (root / "README.md").read_text(), flags=re.S)
    assert len(blocks) == 1
    (tmp_path / "readme.cfg").write_text(blocks[0])
    _, cfg = parse_config(tmp_path / "readme.cfg")
    assert cfg.lambda_L is None and cfg.lambda_p == 0.7


def _readme_commands(text: str) -> list[str]:
    """The ``lpsrecon ...`` lines of README's command-line block, with
    backslash continuations joined and ``#`` comments stripped."""
    block = re.search(r"## Command line\n.*?```bash\n(.*?)```", text, flags=re.S).group(1)
    lines = [line.split("#")[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("lpsrecon ")]


def test_readme_matches_the_command_line_and_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = _readme_commands(readme)
    assert len(commands) >= 6
    for command in commands:
        try:
            cli._build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    table = readme.split("The `[solver]` section is one `SolverConfig`")[1].split("\n\n")[1]
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert sorted(keys) == sorted(key.lower() for key in _SECTIONS["solver"])


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(rates=())
    with pytest.raises(ValueError):
        ExperimentSpec(rates=(0.3, 0.2))
    with pytest.raises(ValueError):
        ExperimentSpec(rates=(0.2, 1.5))
    with pytest.raises(ValueError):
        ExperimentSpec(solvers=("magic",))
    with pytest.raises(ValueError):
        ExperimentSpec(n_seeds=0)


def test_mask_seed_is_stable():
    assert _mask_seed(0, 0, 0.2, 0) == _mask_seed(0, 0, 0.2, 0)
    seeds = {
        _mask_seed(0, s, r, t)
        for s in range(3)
        for r in (0.2, 1 / 3)
        for t in (0, 1)
    }
    assert len(seeds) == 12


@pytest.fixture(scope="module")
def small_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    experiment = ExperimentSpec(
        phantom=PhantomSpec(n_frames=3),
        rates=(0.2, 1 / 3),
        solvers=("ls", "priori-ls"),
        n_seeds=1,
        output_dir=str(out),
    )
    rows = run_sweep(experiment)
    return experiment, rows, out


def test_sweep_row_grid(small_sweep):
    experiment, rows, _ = small_sweep
    assert len(rows) == 2 * 2 * 1 * 3  # solvers x rates x seeds x frames
    first_frame_rows = [r for r in rows if r.frame == 1]
    assert all(r.rate == experiment.first_frame_rate for r in first_frame_rows)
    assert all(r.iterations <= 300 for r in rows)


def test_sweep_csv_shape_and_order(small_sweep):
    _, _, out = small_sweep
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "solver,rate,seed,frame,psnr_db,iterations,converged"
    assert len(lines) == 1 + 12
    body = [line.split(",") for line in lines[1:]]
    keys = [(p[0], float(p[1]), int(p[2]), int(p[3])) for p in body]
    assert keys == sorted(keys)


def test_summary_csv_averages_swept_frames_only(small_sweep):
    experiment, rows, out = small_sweep
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "solver,rate,mean_psnr_db"
    assert len(lines) == 1 + len(experiment.solvers) * len(experiment.rates)
    for line in lines[1:]:
        solver, rate, mean = line.split(",")
        expected = np.mean(
            [
                r.psnr_db
                for r in rows
                if r.solver == solver
                and r.frame >= 2
                and abs(round(r.rate, 6) - float(rate)) < 1e-12
            ]
        )
        assert float(mean) == pytest.approx(expected, abs=1e-6)


def test_sweep_rerun_is_byte_identical(small_sweep, tmp_path):
    experiment, _, out = small_sweep
    rerun = replace(experiment, output_dir=str(tmp_path / "again"))
    run_sweep(rerun)
    assert (tmp_path / "again" / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()
    assert (tmp_path / "again" / "summary.csv").read_bytes() == (
        out / "summary.csv"
    ).read_bytes()


def test_sweep_is_paired_across_solvers(small_sweep):
    # Both solver arms see identical phantoms and masks; frame 1 is the
    # same baseline solve in each, so its rows must agree exactly.
    _, rows, _ = small_sweep
    ls_first = sorted(
        (r.seed, r.psnr_db, r.iterations, r.converged)
        for r in rows
        if r.solver == "ls" and r.frame == 1
    )
    pr_first = sorted(
        (r.seed, r.psnr_db, r.iterations, r.converged)
        for r in rows
        if r.solver == "priori-ls" and r.frame == 1
    )
    assert ls_first and ls_first == pr_first


def test_run_log_holds_timing_not_csv(small_sweep):
    _, _, out = small_sweep
    log = (out / "run.log").read_text()
    assert "wall=" in log
    assert "wall" not in (out / "sweep.csv").read_text()


def test_csv_writers_handle_sentinel(tmp_path):
    from lpsrecon.harness import SweepRow

    rows = [
        SweepRow("ls", 0.2, 0, 1, float("inf"), 3, True),
        SweepRow("ls", 0.2, 0, 2, 30.0, 3, True),
    ]
    write_sweep_csv(tmp_path / "s.csv", rows)
    write_summary_csv(tmp_path / "m.csv", rows)
    assert "inf" in (tmp_path / "s.csv").read_text()
    assert (tmp_path / "m.csv").read_text().splitlines()[1] == "ls,0.200000,30.000000"


class TestCli:
    def test_eval_self_comparison(self, tmp_path, capsys):
        seq = generate(PhantomSpec(n_frames=1))
        path = tmp_path / "a.x"
        save_volume(path, seq.frames[0])
        assert main(["eval", str(path), str(path)]) == 0
        assert "psnr_db=inf" in capsys.readouterr().out

    def test_eval_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "no.x"), str(tmp_path / "no.x")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_mask_gen(self, tmp_path, capsys):
        out = tmp_path / "m.lpsm"
        code = main(
            ["mask", "gen", "--nx", "32", "--ny", "32", "--rate", "0.25", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        mask = load_mask(out)
        assert mask.m == round(0.25 * 1024)

    def test_mask_gen_rejects_an_infinite_falloff(self, tmp_path, capsys):
        # The falloff is a fixed constant, so the flag itself is a usage error.
        out = tmp_path / "m.lpsm"
        with pytest.raises(SystemExit) as exc:
            main(["mask", "gen", "--nx", "32", "--ny", "32", "--rate", "0.25",
                  "--falloff", "inf", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --falloff inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (["phantom", "gen"], ["--seed", "1"]),
        (["phantom", "gen"], ["--frames", "2"]),
        (["sweep"], ["--n-seeds", "1"]),
    ], ids=["phantom-seed", "phantom-frames", "sweep-n-seeds"])
    def test_flags_that_duplicate_a_config_key_are_usage_errors(
        self, tmp_path, capsys, config_file, command, flag
    ):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", str(config_file), "--out", str(out), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["mask", "gen", "--nx", "32", "--ny", "32", "--rate", "0.25", "--seed", "-3"], "--seed"),
        (["recon-seq", "--frames", "frames", "--mask-seed", "-1"], "--mask-seed"),
    ], ids=["mask-gen", "recon-seq"])
    def test_negative_seed_flags_are_usage_errors(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        value = argv[argv.index(flag) + 1]
        assert f"argument {flag}: must be an integer >= 0, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_phantom_gen_and_recon(self, tmp_path, capsys, config_file, monkeypatch):
        frames_dir = tmp_path / "frames"
        assert main(["phantom", "gen", "--config", str(config_file),
                     "--out", str(frames_dir)]) == 0
        files = sorted(frames_dir.glob("*.x"))
        assert len(files) == 3
        vol = load_volume(files[0])
        assert vol.dims == (32, 32, 4)

        mask_path = tmp_path / "m.lpsm"
        main(["mask", "gen", "--nx", "32", "--ny", "32", "--rate", "0.5", "--out",
              str(mask_path)])
        out_base = tmp_path / "rec1"
        code = main(["recon", "--input", str(files[0]), "--mask", str(mask_path),
                     "--out", str(out_base), "--config", str(config_file)])
        assert code == 0
        captured = capsys.readouterr()
        assert "frame,iterations,converged,data_residual,psnr_db" in captured.out
        assert (tmp_path / "rec1.x").exists()
        assert (tmp_path / "rec1.l").exists()
        assert (tmp_path / "rec1.s").exists()

        # prior flags must come together
        with pytest.raises(SystemExit) as exc:
            main(["recon", "--input", str(files[0]), "--mask", str(mask_path),
                  "--out", str(out_base), "--prior-l", "x.l"])
        assert exc.value.code == 2

        # prior-informed reconstruction of the next frame
        priors = []
        monkeypatch.setattr(cli, "solve_priori_ls", lambda y, prior, cfg: (
            priors.append(prior) or solve_priori_ls(y, prior, cfg)))
        code = main(["recon", "--input", str(files[1]), "--mask", str(mask_path),
                     "--out", str(tmp_path / "rec2"), "--config", str(config_file),
                     "--prior-l", str(tmp_path / "rec1.l"),
                     "--prior-s", str(tmp_path / "rec1.s")])
        assert code == 0
        assert "priori-ls" in capsys.readouterr().err

        # the prior read back from rec1.l/rec1.s is the one solve_sequence
        # builds from the in-memory frame-1 result
        _, cfg = parse_config(config_file)
        y1 = acquire(vol, load_mask(mask_path))
        first = solve_ls(y1, cfg)
        want = prior_from_result(first.decomposition, vol.dims, cfg.support_eps)
        assert np.array_equal(priors[0].sigma_prev, want.sigma_prev)
        assert np.array_equal(priors[0].support_prev, want.support_prev)

    def test_recon_seq_single_frame_falls_back(self, tmp_path, capsys):
        seq = generate(PhantomSpec(n_frames=1))
        frames_dir = tmp_path / "one"
        frames_dir.mkdir()
        save_volume(frames_dir / "frame0001.x", seq.frames[0])
        out_dir = tmp_path / "seqout"
        code = main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                     "--solver", "priori-ls", "--rate", "0.333333"])
        assert code == 0
        captured = capsys.readouterr()
        assert "falling back to plain L+S" in captured.err
        assert "falling back to plain L+S" in (out_dir / "run.log").read_text()
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "frame0001.x").exists()

    def test_recon_seq_writes_metrics_for_all_frames(self, tmp_path, capsys, config_file):
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        out_dir = tmp_path / "seq"
        code = main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                     "--config", str(config_file), "--rate", "0.333333"])
        assert code == 0
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "frame,iterations,converged,data_residual,psnr_db"
        assert len(lines) == 4

    @pytest.mark.parametrize("fault", ["other dims", "truncated"])
    def test_recon_seq_rejects_a_bad_last_frame_before_any_solve(
        self, tmp_path, capsys, config_file, fault
    ):
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        last = frames_dir / "frame0003.x"
        if fault == "other dims":
            save_volume(last, generate(PhantomSpec(dims=(16, 16, 4), n_frames=1)).frames[0])
        else:
            last.write_bytes(last.read_bytes()[:-16])
        capsys.readouterr()
        out_dir = tmp_path / "seq"
        code = main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                     "--config", str(config_file), "--rate", "0.333333"])
        assert code == 1
        assert "frame0003.x" in capsys.readouterr().err
        assert not list(out_dir.glob("frame0001.*"))

    def test_recon_seq_keeps_the_frames_solved_before_a_failure(self, tmp_path, capsys, config_file):
        # A non-finite payload passes the header and size checks, so it fails
        # only when frame 3 is read, after frames 1 and 2 were written.
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        last = frames_dir / "frame0003.x"
        raw = bytearray(last.read_bytes())
        raw[-8:] = np.float64(np.nan).tobytes()
        last.write_bytes(bytes(raw))
        capsys.readouterr()
        out_dir = tmp_path / "seq"
        code = main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                     "--config", str(config_file), "--rate", "0.333333"])
        assert code == 1
        assert "frame0003.x" in capsys.readouterr().err
        assert sorted(p.name for p in out_dir.glob("frame*")) == [
            f"frame000{t}.{part}" for t in (1, 2) for part in "lsx"
        ]
        assert len((out_dir / "metrics.csv").read_text().splitlines()) == 3
        assert "finished" not in (out_dir / "run.log").read_text()

    BAD_SETTINGS = [
        ("solver", "tol = -1", "tol"),
        ("solver", "tol = inf", "tol"),
        ("solver", "lamda_p = 0.0", "lamda_p"),
        ("solver", "max_iter = 1.5", "max_iter"),
        ("phantom", "noise_sigma = nan", "noise_sigma"),
        ("phantom", "seed = -1", "seed"),
        ("sweep", "density_falloff = -1", "density_falloff"),  # a removed key
    ]

    @pytest.mark.parametrize("section, line, key", BAD_SETTINGS,
                             ids=[f"{line}-{key}" for _, line, key in BAD_SETTINGS])
    def test_bad_solver_settings_fail_before_any_solve(
        self, tmp_path, capsys, config_file, section, line, key
    ):
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        bad = tmp_path / "bad.cfg"
        bad.write_text(_config_with(section, line))
        capsys.readouterr()
        gen_dir, out_dir, sweep_dir = tmp_path / "gen", tmp_path / "seq", tmp_path / "sw"
        assert main(["phantom", "gen", "--config", str(bad), "--out", str(gen_dir)]) == 1
        assert main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                     "--config", str(bad), "--rate", "0.333333"]) == 1
        assert main(["sweep", "--config", str(bad), "--out", str(sweep_dir)]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 3
        for err in errors:
            assert err.startswith(f"error: [{section}]") and key in err
        assert not gen_dir.exists()
        assert not list(out_dir.glob("frame0001.*")) and not out_dir.exists()
        assert not (sweep_dir / "sweep.csv").exists() and not sweep_dir.exists()

    def test_slice_dims_off_the_wavelet_grid_fail_before_anything_is_written(
        self, tmp_path, capsys
    ):
        config = tmp_path / "n30.cfg"
        config.write_text(CONFIG_TEXT.replace("n_x = 32", "n_x = 30"))
        frames_dir = tmp_path / "frames"
        # A phantom is not tied to the wavelet, so phantom gen takes any dims.
        assert main(["phantom", "gen", "--config", str(config), "--out", str(frames_dir)]) == 0
        # A non-finite payload would fail when read: the dims check comes first.
        first = frames_dir / "frame0001.x"
        raw = bytearray(first.read_bytes())
        raw[-8:] = np.float64(np.nan).tobytes()
        first.write_bytes(bytes(raw))
        mask_path = tmp_path / "m.lpsm"
        assert main(["mask", "gen", "--nx", "30", "--ny", "32", "--rate", "0.5",
                     "--out", str(mask_path)]) == 0
        capsys.readouterr()
        out_dir, sweep_dir = tmp_path / "seq", tmp_path / "sw"
        assert main(["recon", "--input", str(first), "--mask", str(mask_path),
                     "--out", str(tmp_path / "r")]) == 1
        assert main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                     "--config", str(config)]) == 1
        assert main(["sweep", "--config", str(config), "--out", str(sweep_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: slice dims (30, 32) must each be divisible by 2^3 = 8 for a 3-level transform"
        ] * 3
        assert captured.out == ""
        assert not list(tmp_path.glob("r.*")) and not out_dir.exists() and not sweep_dir.exists()

    def test_sweep_cli_with_overrides(self, tmp_path, capsys, config_file):
        out_dir = tmp_path / "sw"
        code = main(["sweep", "--config", str(config_file), "--out", str(out_dir)])
        assert code == 0
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 4  # 2 solvers x 2 rates

    def test_unconverged_frames_warn_on_stderr(self, tmp_path, capsys):
        config = tmp_path / "one_iter.cfg"
        config.write_text(CONFIG_TEXT.replace("max_iter = 300", "max_iter = 1"))
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config), "--out", str(frames_dir)])
        mask_path = tmp_path / "m.lpsm"
        main(["mask", "gen", "--nx", "32", "--ny", "32", "--rate", "0.5", "--out", str(mask_path)])
        capsys.readouterr()

        code = main(["recon", "--input", str(frames_dir / "frame0001.x"), "--mask", str(mask_path),
                     "--out", str(tmp_path / "rec"), "--config", str(config)])
        assert code == 0
        err = capsys.readouterr().err
        assert re.search(r"warning: frame 1 stopped at max_iter=1 .*last relative change \d", err)

        out_dir = tmp_path / "seq"
        code = main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                     "--config", str(config), "--rate", "0.333333"])
        assert code == 0
        err = capsys.readouterr().err
        log = (out_dir / "run.log").read_text()
        for frame in (1, 2, 3):
            assert f"warning: frame {frame} stopped at max_iter=1" in err
            assert f"warning: frame {frame} stopped at max_iter=1" in log

        sweep_dir = tmp_path / "sw"
        code = main(["sweep", "--config", str(config), "--out", str(sweep_dir)])
        assert code == 0
        err_lines = [line for line in capsys.readouterr().err.splitlines() if line]
        assert err_lines == ["warning: 12 of 12 frames stopped at max_iter without converging "
                             "(see run.log)"]
        assert "unconverged frames: 12 of 12" in (sweep_dir / "run.log").read_text()

    def test_usage_error_on_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["mask", "gen", "--nx", "32"])
        assert exc.value.code == 2

    def test_recon_dim_mismatch_exits_1(self, tmp_path, capsys):
        seq = generate(PhantomSpec(n_frames=1))
        vol_path = tmp_path / "a.x"
        save_volume(vol_path, seq.frames[0])
        mask_path = tmp_path / "small.lpsm"
        main(["mask", "gen", "--nx", "16", "--ny", "16", "--rate", "0.5",
              "--out", str(mask_path)])
        capsys.readouterr()
        code = main(["recon", "--input", str(vol_path), "--mask", str(mask_path),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--prior-l", "other.x", "--prior-s", "a.x"],
                                       ["--reference", "other.x"]], ids=["prior", "reference"])
    def test_recon_rejects_a_file_on_another_grid_before_the_solve(self, tmp_path, capsys, flags):
        # A 16x64x4 volume flattens to the same (1024, 4) matrix as the
        # 32x32x4 input, so only the files' own dims tell them apart.
        save_volume(tmp_path / "a.x", generate(PhantomSpec(n_frames=1)).frames[0])
        rng = np.random.default_rng(0)
        save_volume(tmp_path / "other.x",
                    DynamicVolume(rng.standard_normal((1024, 4)) + 0j, (16, 64, 4)))
        mask_path = tmp_path / "m.lpsm"
        main(["mask", "gen", "--nx", "32", "--ny", "32", "--rate", "0.5", "--out", str(mask_path)])
        capsys.readouterr()
        code = main(["recon", "--input", str(tmp_path / "a.x"), "--mask", str(mask_path),
                     "--out", str(tmp_path / "r"),
                     *[f if f.startswith("--") else str(tmp_path / f) for f in flags]])
        assert code == 1
        captured = capsys.readouterr()
        assert "other.x: dims (16, 64, 4) differ from input volume (32, 32, 4)" in captured.err
        assert captured.out == "" and not list(tmp_path.glob("r.*"))


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sequence_commands_memory_is_flat_in_the_frame_count(tmp_path, capsys):
    # phantom gen writes each frame as it is made, and recon-seq reads, solves
    # and writes one frame at a time, so four more frames cost no more memory.
    dims = (64, 64, 4)
    volume_bytes = int(np.prod(dims)) * np.dtype(np.complex128).itemsize

    def run(n_frames, tag):
        config = tmp_path / f"{tag}.cfg"
        config.write_text(
            f"[phantom]\nn_x = {dims[0]}\nn_y = {dims[1]}\nn_z = {dims[2]}\n"
            f"n_frames = {n_frames}\nseed = 0\n\n"
            "[solver]\nmax_iter = 3\n"
        )
        frames, out = tmp_path / f"{tag}-frames", tmp_path / f"{tag}-out"
        gen = _traced_peak(["phantom", "gen", "--config", str(config), "--out", str(frames)])
        seq = _traced_peak(["recon-seq", "--frames", str(frames), "--out", str(out),
                            "--config", str(config), "--solver", "priori-ls", "--rate", "0.25"])
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + n_frames
        return gen, seq

    run(2, "warm-up")  # fills the wavelet band caches
    gen_2, seq_2 = run(2, "two")
    gen_6, seq_6 = run(6, "six")
    assert gen_6 <= gen_2 + volume_bytes, f"phantom gen: {gen_2} -> {gen_6} bytes"
    assert seq_6 <= seq_2 + volume_bytes, f"recon-seq: {seq_2} -> {seq_6} bytes"

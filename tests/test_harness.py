import argparse
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lpsrecon import (
    DynamicVolume,
    ExperimentSpec,
    SolverConfig,
    generate_frames,
    load_volume,
    acquire,
    make_mask,
    parse_config,
    psnr,
    run_sweep,
    save_volume,
    solve,
)
import lpsrecon.cli as cli
import lpsrecon.harness as harness
import lpsrecon.operators as operators
from lpsrecon.cli import _write_frame, main
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
tol = 1e-3
max_iter = 300

[sweep]
first_frame_rate = 0.5
rates = 0.2, 0.333333
solvers = ls, priori-ls
n_seeds = 1
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
    assert cfg == SolverConfig()


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
    ("solver", "lambda_l_scale = 0", ["unknown key 'lambda_l_scale'"]),
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
    # So are the old priori-ls constants and the sweep's output directory.
    ("solver", "lambda_p = 0.7", ["unknown key 'lambda_p'"]),
    ("solver", "support_eps = 0.02", ["unknown key 'support_eps'"]),
    ("sweep", "output_dir = out", ["unknown key 'output_dir'"]),
    ("sweep", "solvers = ls, priori-ls, ls", ["solvers must not repeat a name", "'ls'"]),
], ids=["tol", "tol-inf", "max_iter", "misspelt", "scale", "threshold", "section", "old-section",
        "phantom", "sweep", "amplitude", "motion", "noise", "drift", "width", "seed", "falloff",
        "falloff-nan", "lambda_p", "support_eps", "output_dir", "repeated-solver"])
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


def test_rates_equal_to_six_decimals_are_refused_before_a_sweep(tmp_path, capsys):
    # 0.2 and 0.2000001 are strictly increasing, but sweep.csv prints both as
    # 0.200000, summary.csv merges their rows and both cells share one mask.
    assert _mask_seed(0, 0, 0.2, 1) == _mask_seed(0, 0, 0.2000001, 1)
    with pytest.raises(ValueError, match=r"^rates 0\.2 and 0\.2000001 are equal to 6 decimals"):
        ExperimentSpec(rates=(0.1, 0.2, 0.2000001))
    assert ExperimentSpec(rates=(0.2, 0.200001)).rates == (0.2, 0.200001)
    path = tmp_path / "twin.cfg"
    path.write_text(_config_with("sweep", "rates = 0.2, 0.2000001"))
    with pytest.raises(ValueError, match=r"^\[sweep\] rates 0\.2 and 0\.2000001 are equal"):
        parse_config(path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    assert "[sweep] rates 0.2 and 0.2000001 are equal to 6 decimals" in capsys.readouterr().err
    assert not out.exists()


def test_shipped_configs_parse_cleanly(tmp_path):
    root = Path(__file__).resolve().parents[1]
    experiment, cfg = parse_config(root / "demos" / "experiment.cfg")
    assert experiment.n_seeds == 5 and cfg == SolverConfig()
    blocks = re.findall(r"```ini\n(.*?)```", (root / "README.md").read_text(), flags=re.S)
    assert len(blocks) == 1
    (tmp_path / "readme.cfg").write_text(blocks[0])
    _, cfg = parse_config(tmp_path / "readme.cfg")
    assert cfg.lambda_L is None and cfg == SolverConfig()


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


def test_readme_quickstart_prints_one_line_per_frame(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quickstart\n.*?```python\n(.*?)```", readme, flags=re.S).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:1] for line in lines] == [[str(t)] for t in range(1, 7)]
    assert all(line.split()[2] == "dB" for line in lines)


@pytest.mark.parametrize("build, name", [
    (lambda v: make_mask(8, 8, 0.5, seed=v), "seed"),
    (lambda v: PhantomSpec(seed=v), "seed"),
    (lambda v: PhantomSpec(n_frames=v), "n_frames"),
    (lambda v: PhantomSpec(background_rank=v), "background_rank"),
    (lambda v: PhantomSpec(n_blobs=v), "n_blobs"),
    (lambda v: ExperimentSpec(n_seeds=v), "n_seeds"),
    (lambda v: SolverConfig(max_iter=v), "max_iter"),
    (lambda v: PhantomSpec(dims=(v, 32, 4)), "dims n_x"),
    (lambda v: PhantomSpec(dims=(32, v, 4)), "dims n_y"),
    (lambda v: PhantomSpec(dims=(32, 32, v)), "dims n_z"),
    (lambda v: make_mask(v, 8, 0.5), "n_x"),
    (lambda v: make_mask(8, v, 0.5), "n_y"),
], ids=["mask-seed", "phantom-seed", "n_frames", "background_rank", "n_blobs", "n_seeds",
        "max_iter", "phantom-n_x", "phantom-n_y", "phantom-n_z", "mask-n_x", "mask-n_y"])
def test_integer_settings_fail_by_name_at_the_boundary(build, name):
    for bad in (1.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            build(bad)
    build(np.int64(2))  # any integral type passes


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
    )
    rows = run_sweep(experiment, out=out)
    return experiment, rows, out


def test_experiment_spec_holds_no_output_directory():
    # The directory a sweep writes into is run_sweep's out, and nowhere else.
    with pytest.raises(TypeError, match="output_dir"):
        ExperimentSpec(output_dir="sweep_out")


def test_run_sweep_writes_only_under_its_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    experiment = ExperimentSpec(phantom=PhantomSpec(n_frames=2), rates=(1 / 3,), solvers=("ls",),
                                n_seeds=1)
    with pytest.raises(TypeError, match="out"):
        run_sweep(experiment, SolverConfig())
    assert not list(tmp_path.iterdir())
    run_sweep(experiment, out=tmp_path / "new" / "sub")
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()) == [
        f"new/sub/{name}" for name in ("run.log", "summary.csv", "sweep.csv")]


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
    run_sweep(experiment, out=tmp_path / "again")
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


def test_sweep_builds_each_input_once(small_sweep, tmp_path, monkeypatch):
    # One phantom per seed, and per (rate, seed) one mask pair, one sample
    # index per mask and one acquisition per frame, shared by every solver.
    experiment, _, out = small_sweep
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("generate_frames", "make_mask", "acquire"):
        counted(harness, name)
    counted(operators, "_sample_index")
    run_sweep(experiment, out=tmp_path)
    cells = len(experiment.rates) * experiment.n_seeds
    assert calls == {
        "generate_frames": experiment.n_seeds,
        "make_mask": 2 * cells,
        "_sample_index": 2 * cells,
        "acquire": cells * experiment.phantom.n_frames,
    }
    assert (tmp_path / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()


def test_both_commands_take_their_masks_from_the_schedule(tmp_path, capsys, config_file,
                                                          monkeypatch):
    # Frame 1 gets the first-rate mask with seed(0); every later frame one
    # shared mask with seed(1). Both masks are made before any frame is read.
    frames = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=3))]
    kspace = list(harness._acquire_sequence(iter(frames), 32, 32, 0.5, 0.25, lambda t: 10 + t))
    first, rest = make_mask(32, 32, 0.5, seed=10), make_mask(32, 32, 0.25, seed=11)
    assert np.array_equal(kspace[0].mask.pattern, first.pattern)
    assert kspace[1].mask is kspace[2].mask
    assert np.array_equal(kspace[1].mask.pattern, rest.pattern)
    for frame, y in zip(frames, kspace):
        assert np.array_equal(y.samples, acquire(frame, y.mask).samples)

    def unread():
        raise AssertionError("a frame was read before the masks were made")
        yield

    with pytest.raises(ValueError, match="rate must be in"):
        harness._acquire_sequence(unread(), 32, 32, 0.5, 1.5, lambda t: t)

    # sweep and recon-seq both acquire through it: once per (rate, seed) cell
    # and once per recon-seq run, with the mask seeds each derives.
    calls = []
    schedule = harness._acquire_sequence

    def recorded(frames, n_x, n_y, first_rate, rate, seed):
        calls.append((first_rate, rate, seed(0), seed(1)))
        return schedule(frames, n_x, n_y, first_rate, rate, seed)

    monkeypatch.setattr(harness, "_acquire_sequence", recorded)
    monkeypatch.setattr(cli, "_acquire_sequence", recorded)
    experiment = ExperimentSpec(phantom=PhantomSpec(n_frames=3), rates=(0.25,), n_seeds=1)
    run_sweep(experiment, out=tmp_path / "sweep")
    assert calls == [(0.5, 0.25, _mask_seed(0, 0, 0.25, 0), _mask_seed(0, 0, 0.25, 1))]
    calls.clear()
    frames_dir = tmp_path / "frames"
    assert main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)]) == 0
    assert main(["recon-seq", "--frames", str(frames_dir), "--out", str(tmp_path / "seq"),
                 "--first-rate", "0.5", "--rate", "0.25", "--mask-seed", "4"]) == 0
    assert calls == [(0.5, 0.25, 4, 5)]


def test_sweep_scores_against_the_clean_frames(tmp_path, monkeypatch):
    # A noisy phantom is sampled as X = L + S + noise; every row's PSNR is
    # taken against the clean L + S of its frame.
    spec = PhantomSpec(n_frames=2, noise_sigma=0.05)
    experiment = ExperimentSpec(phantom=spec, rates=(1 / 3,), solvers=("ls", "priori-ls"),
                                n_seeds=1)
    references = []
    monkeypatch.setattr(harness, "psnr", lambda reference, estimate: (
        references.append(reference.data) or psnr(reference, estimate)))
    run_sweep(experiment, out=tmp_path)
    clean = [l.data + s.data for _, l, s in generate_frames(spec)]
    assert len(references) == 2 * len(clean)
    for got, want in zip(references, clean + clean):
        assert np.array_equal(got, want)


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
        truth = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=1))]
        path = tmp_path / "a.x"
        save_volume(path, truth[0])
        assert main(["eval", str(path), str(path)]) == 0
        assert "psnr_db=inf" in capsys.readouterr().out

    def test_eval_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "no.x"), str(tmp_path / "no.x")]) == 1
        assert "error:" in capsys.readouterr().err

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
        (["recon", "--input", "a.x", "--mask-seed", "-3"], "--mask-seed"),
        (["recon-seq", "--frames", "frames", "--mask-seed", "-1"], "--mask-seed"),
    ], ids=["recon", "recon-seq"])
    def test_negative_seed_flags_are_usage_errors(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        value = argv[argv.index(flag) + 1]
        assert f"argument {flag}: must be an integer >= 0, got '{value}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (["recon-seq", "--frames", "{frames}"], ["--first", "0.3"]),
        (["recon", "--input", "{frames}/frame0001.x"], ["--mask", "7"]),
    ], ids=["recon-seq-first", "recon-mask"])
    def test_a_prefix_of_a_flag_is_not_that_flag(
        self, tmp_path, capsys, config_file, command, flag
    ):
        # Without this, argparse would run --first as --first-rate and --mask
        # as --mask-seed.
        frames = tmp_path / "frames"
        assert main(["phantom", "gen", "--config", str(config_file), "--out", str(frames)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        argv = [arg.format(frames=frames) for arg in command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))  # neither out/ nor out.x/.l/.s

    def test_phantom_gen_and_recon(self, tmp_path, capsys, config_file, monkeypatch):
        frames_dir = tmp_path / "frames"
        assert main(["phantom", "gen", "--config", str(config_file),
                     "--out", str(frames_dir)]) == 0
        files = sorted(frames_dir.glob("*.x"))
        assert len(files) == 3
        vol = load_volume(files[0])
        assert vol.dims == (32, 32, 4)

        out_base = tmp_path / "rec1"
        code = main(["recon", "--input", str(files[0]), "--rate", "0.5",
                     "--out", str(out_base), "--config", str(config_file)])
        assert code == 0
        captured = capsys.readouterr()
        assert "frame,iterations,converged,data_residual,psnr_db" in captured.out
        assert (tmp_path / "rec1.x").exists()
        assert (tmp_path / "rec1.l").exists()
        assert (tmp_path / "rec1.s").exists()

        # prior-informed reconstruction of the next frame
        pairs = []
        monkeypatch.setattr(cli, "solve", lambda y, cfg, previous=None: (
            pairs.append(previous) or solve(y, cfg, previous)))
        code = main(["recon", "--input", str(files[1]), "--rate", "0.5",
                     "--out", str(tmp_path / "rec2"), "--config", str(config_file),
                     "--prior", str(out_base)])
        assert code == 0
        assert "priori-ls" in capsys.readouterr().err

        # the pair read back from rec1.l/rec1.s is, bit for bit, the
        # in-memory frame-1 result that solve_sequence would carry
        _, cfg = parse_config(config_file)
        y1 = acquire(vol, make_mask(32, 32, 0.5, seed=0))
        first = solve(y1, cfg)
        assert np.array_equal(pairs[0].L, first.L)
        assert np.array_equal(pairs[0].S, first.S)

    def test_recon_reproduces_recon_seq_frame_by_frame(self, tmp_path, capsys):
        # recon builds its mask as recon-seq does, and a prior read back from
        # the previous frame's .l/.s files is the one recon-seq carries in
        # memory. recon-seq resolves auto thresholds once, from frame 2, and
        # recon from its own frame, so the chain is bit for bit only under
        # explicit thresholds from frame 3 on.
        config = tmp_path / "fixed.cfg"
        config.write_text(CONFIG_TEXT.replace("lambda_l = auto", "lambda_l = 0.05")
                          .replace("lambda_s = auto", "lambda_s = 0.004"))
        frames_dir, seq = tmp_path / "frames", tmp_path / "seq"
        assert main(["phantom", "gen", "--config", str(config), "--out", str(frames_dir)]) == 0
        assert main(["recon-seq", "--frames", str(frames_dir), "--out", str(seq),
                     "--config", str(config), "--solver", "priori-ls", "--first-rate", "0.5",
                     "--rate", "0.25", "--mask-seed", "4"]) == 0
        capsys.readouterr()
        rows = (seq / "metrics.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        # --prior takes a basename as --out does: with or without a suffix.
        chain = ((1, "0.5", "4", []), (2, "0.25", "5", ["--prior", str(tmp_path / "rec1")]),
                 (3, "0.25", "5", ["--prior", str(tmp_path / "rec2.x")]))
        for t, rate, seed, flags in chain:
            base = tmp_path / f"rec{t}"
            assert main(["recon", "--input", str(frames_dir / f"frame000{t}.x"), "--rate", rate,
                         "--mask-seed", seed, "--config", str(config), "--out", str(base),
                         *flags]) == 0
            header, row = capsys.readouterr().out.splitlines()
            assert header == cli.METRICS_HEADER
            assert row == "1," + rows[t - 1].split(",", 1)[1]
            for part in "xls":
                got = base.with_suffix(f".{part}").read_bytes()
                assert got == (seq / f"frame000{t}.{part}").read_bytes()

        assert main(["recon", "--input", str(frames_dir / "frame0001.x"), "--rate", "1.5",
                     "--out", str(tmp_path / "bad")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: rate must be in (0, 1], got 1.5\n"
        assert captured.out == "" and not list(tmp_path.glob("bad.*"))

    def test_recon_makes_the_directories_of_its_out(self, tmp_path):
        # recon makes --out's parent, as recon-seq, phantom gen and sweep make
        # their --out, and only once its checks have passed.
        save_volume(tmp_path / "a.x", next(generate_frames(PhantomSpec(n_frames=1)))[0])
        args = ["recon", "--input", str(tmp_path / "a.x"), "--out", str(tmp_path / "new/sub/rec1")]
        assert main([*args, "--rate", "1.5"]) == 1
        assert not (tmp_path / "new").exists()
        assert main([*args, "--rate", "0.5"]) == 0
        assert sorted(p.name for p in (tmp_path / "new/sub").iterdir()) == ["rec1.l", "rec1.s", "rec1.x"]

    def test_recon_seq_single_frame_falls_back(self, tmp_path, capsys):
        truth = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=1))]
        frames_dir = tmp_path / "one"
        frames_dir.mkdir()
        save_volume(frames_dir / "frame0001.x", truth[0])
        out_dir = tmp_path / "seqout"
        code = main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                     "--solver", "priori-ls", "--rate", "0.333333"])
        assert code == 0
        captured = capsys.readouterr()
        assert "falling back to plain L+S" in captured.err
        assert "falling back to plain L+S" in (out_dir / "run.log").read_text()
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "frame0001.x").exists()

    def test_recon_seq_reads_no_sweep_key(self, tmp_path, capsys, config_file):
        # The sampling rates are the flags' defaults, whatever [sweep] says.
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        config = tmp_path / "quarter.cfg"
        config.write_text(_config_with("sweep", "first_frame_rate = 0.25"))
        written = {}
        for name, flags in (("plain", []), ("config", ["--config", str(config)])):
            out_dir = tmp_path / name
            assert main(["recon-seq", "--frames", str(frames_dir), "--out", str(out_dir),
                         *flags]) == 0
            written[name] = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "run.log"}
        assert len(written["plain"]) == 1 + 3 * 3  # metrics.csv and .x/.l/.s per frame
        assert written["config"] == written["plain"]

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

    def test_recon_seq_reads_only_frame_files_in_frame_number_order(self, tmp_path, capsys):
        # A reconstruction written beside the frames is not a frame, and
        # frame10 follows frame9 though it sorts first by name.
        config = tmp_path / "two.cfg"
        config.write_text(CONFIG_TEXT.replace("n_frames = 3", "n_frames = 2"))
        frames_dir = tmp_path / "fr"
        assert main(["phantom", "gen", "--config", str(config), "--out", str(frames_dir)]) == 0
        assert main(["recon", "--input", str(frames_dir / "frame0001.x"), "--rate", "0.5",
                     "--out", str(frames_dir / "rec1")]) == 0
        renamed = tmp_path / "renamed"
        renamed.mkdir()
        for old, new in (("frame0001.x", "frame9.x"), ("frame0002.x", "frame10.x"),
                         ("rec1.x", "rec1.x")):
            (renamed / new).write_bytes((frames_dir / old).read_bytes())
        metrics = []
        for frames in (frames_dir, renamed):
            out = tmp_path / f"seq-{frames.name}"
            assert main(["recon-seq", "--frames", str(frames), "--out", str(out),
                         "--rate", "0.333333"]) == 0
            metrics.append((out / "metrics.csv").read_text())
        assert len(metrics[0].splitlines()) == 1 + 2
        assert metrics[1] == metrics[0]
        assert sorted(p.name for p in out.glob("frame*")) == [
            f"frame000{t}.{part}" for t in (1, 2) for part in "lsx"]

    def test_two_files_with_one_frame_number_are_refused_before_anything_is_written(
        self, tmp_path, capsys
    ):
        config = tmp_path / "two.cfg"
        config.write_text(CONFIG_TEXT.replace("n_frames = 3", "n_frames = 2"))
        frames_dir = tmp_path / "fr"
        assert main(["phantom", "gen", "--config", str(config), "--out", str(frames_dir)]) == 0
        (frames_dir / "frame2.x").write_bytes((frames_dir / "frame0002.x").read_bytes())
        before = {p.name: p.read_bytes() for p in frames_dir.iterdir()}
        capsys.readouterr()
        out = tmp_path / "seq"
        assert main(["recon-seq", "--frames", str(frames_dir), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {frames_dir / 'frame0002.x'} and {frames_dir / 'frame2.x'} are both frame 2: "
            "remove one\n")
        assert not out.exists()
        # phantom gen makes its --out by the same scan.
        assert main(["phantom", "gen", "--config", str(config), "--out", str(frames_dir)]) == 1
        assert "are both frame 2" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in frames_dir.iterdir()} == before

    def test_a_frame_number_is_ascii_digits_only(self, tmp_path, capsys):
        # frame\u0663.x (an Arabic-Indic 3) is not frame 3, and so not a frame.
        config = tmp_path / "two.cfg"
        config.write_text(CONFIG_TEXT.replace("n_frames = 3", "n_frames = 2"))
        frames_dir = tmp_path / "fr"
        assert main(["phantom", "gen", "--config", str(config), "--out", str(frames_dir)]) == 0
        (frames_dir / "frame\u0663.x").write_bytes((frames_dir / "frame0001.x").read_bytes())
        out = tmp_path / "seq"
        assert main(["recon-seq", "--frames", str(frames_dir), "--out", str(out),
                     "--rate", "0.333333"]) == 0
        assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 2

    def test_recon_seq_without_frame_files_names_the_rule(self, tmp_path, capsys):
        frames_dir = tmp_path / "fr"
        frames_dir.mkdir()
        (frames_dir / "rec1.x").write_bytes(b"")
        assert main(["recon-seq", "--frames", str(frames_dir), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: no frame<N>.x files found in {frames_dir}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["phantom", "gen", "--out", ""], "--out"),
        (["phantom", "gen", "--config", "", "--out", "o"], "--config"),
        (["recon", "--input", "", "--out", "o"], "--input"),
        (["recon", "--input", "a.x", "--out", ""], "--out"),
        (["recon", "--input", "a.x", "--out", "o", "--prior", ""], "--prior"),
        (["recon", "--input", "a.x", "--out", "o", "--config", ""], "--config"),
        (["recon-seq", "--frames", "", "--out", "o"], "--frames"),
        (["recon-seq", "--frames", "fr", "--out", ""], "--out"),
        (["sweep", "--config", ""], "--config"),
        (["sweep", "--config", "a.cfg", "--out", ""], "--out"),
    ], ids=["phantom-out", "phantom-config", "recon-input", "recon-out", "recon-prior",
            "recon-config", "recon-seq-frames", "recon-seq-out", "sweep-config", "sweep-out"])
    def test_an_empty_path_is_a_usage_error_that_names_its_flag(
        self, tmp_path, capsys, monkeypatch, argv, flag
    ):
        # An empty path would read as the working directory.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be a nonempty path" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("fault", ["other dims", "truncated"])
    def test_recon_seq_rejects_a_bad_last_frame_before_any_solve(
        self, tmp_path, capsys, config_file, fault
    ):
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        last = frames_dir / "frame0003.x"
        if fault == "other dims":
            save_volume(last, next(generate_frames(PhantomSpec(dims=(16, 16, 4), n_frames=1)))[0])
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

    def test_recon_seq_refuses_an_out_that_is_its_frames_directory(
        self, tmp_path, capsys, config_file
    ):
        # Writing there would overwrite each input frame with its
        # reconstruction and then score that frame against itself.
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        before = {p.name: p.read_bytes() for p in frames_dir.iterdir()}
        capsys.readouterr()
        code = main(["recon-seq", "--frames", str(frames_dir), "--rate", "0.333333",
                     "--out", str(frames_dir / ".." / "frames")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out ") and "--frames" in captured.err
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in frames_dir.iterdir()} == before
        assert not (frames_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("out", ["frame0001", "frame0001.x"])
    def test_recon_refuses_an_out_that_is_its_input(self, tmp_path, capsys, config_file, out):
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        before = {p.name: p.read_bytes() for p in frames_dir.iterdir()}
        capsys.readouterr()
        code = main(["recon", "--input", str(frames_dir / "frame0001.x"), "--rate", "0.5",
                     "--out", str(frames_dir / ".." / "frames" / out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out ") and "--input" in captured.err
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in frames_dir.iterdir()} == before

    @pytest.mark.parametrize("out", ["rec1", "rec1.x"])
    def test_recon_refuses_an_out_that_is_its_prior(self, tmp_path, capsys, config_file, out):
        # --out rec1 writes rec1.l and rec1.s, the prior files it reads.
        frames_dir = tmp_path / "frames"
        main(["phantom", "gen", "--config", str(config_file), "--out", str(frames_dir)])
        assert main(["recon", "--input", str(frames_dir / "frame0001.x"), "--rate", "0.5",
                     "--out", str(tmp_path / "rec1")]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.glob("rec1.*")}
        capsys.readouterr()
        code = main(["recon", "--input", str(frames_dir / "frame0002.x"), "--rate", "0.25",
                     "--prior", str(tmp_path / "rec1"), "--out", str(tmp_path / out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out ") and "is the --prior " in captured.err
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in tmp_path.glob("rec1.*")} == before

    BAD_SETTINGS = [
        ("solver", "tol = -1", "tol"),
        ("solver", "tol = inf", "tol"),
        ("solver", "lamda_p = 0.0", "lamda_p"),
        ("solver", "max_iter = 1.5", "max_iter"),
        ("phantom", "noise_sigma = nan", "noise_sigma"),
        ("phantom", "seed = -1", "seed"),
        # Removed keys.
        ("sweep", "density_falloff = -1", "density_falloff"),
        ("solver", "lambda_p = 0.7", "lambda_p"),
        ("solver", "support_eps = 0.02", "support_eps"),
        ("sweep", "output_dir = out", "output_dir"),
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
        capsys.readouterr()
        out_dir, sweep_dir = tmp_path / "seq", tmp_path / "sw"
        assert main(["recon", "--input", str(first), "--rate", "0.5",
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
        capsys.readouterr()

        code = main(["recon", "--input", str(frames_dir / "frame0001.x"), "--rate", "0.5",
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

    def test_sweep_without_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                config_file):
        # No command writes into a directory it was not given.
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config_file)])
        assert exc.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_usage_error_on_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["recon", "--input", "a.x"])
        assert exc.value.code == 2

    # Per command: arguments that succeed, that fail at run time, and that
    # argparse rejects. {cfg} is a one-rate 3-frame config, {frames} its
    # phantom gen output, {out} a fresh path and {missing} a path that does
    # not exist.
    COMMAND_EXITS = {
        ("phantom", "gen"): (["--config", "{cfg}", "--out", "{out}"],
                             ["--config", "{missing}", "--out", "{out}"],
                             ["--config", "{cfg}"]),
        ("recon",): (["--input", "{frames}/frame0001.x", "--rate", "0.5", "--out", "{out}"],
                     ["--input", "{missing}", "--out", "{out}"],
                     ["--input", "{frames}/frame0001.x", "--rate", "0.5"]),
        ("recon-seq",): (["--frames", "{frames}", "--out", "{out}"],
                         ["--frames", "{missing}", "--out", "{out}"],
                         ["--frames", "{frames}", "--out", "{out}", "--solver", "none"]),
        ("sweep",): (["--config", "{cfg}", "--out", "{out}"],
                     ["--config", "{missing}", "--out", "{out}"],
                     ["--out", "{out}"]),
        ("eval",): (["{frames}/frame0001.x", "{frames}/frame0002.x"],
                    ["{missing}", "{missing}"],
                    ["{frames}/frame0001.x"]),
    }

    def test_every_command_has_a_handler(self):
        def leaves(parser, command=()):
            subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subparsers:
                yield command, parser
            for action in subparsers:
                for name, sub in action.choices.items():
                    yield from leaves(sub, (*command, name))

        commands = dict(leaves(cli._build_parser()))
        assert set(commands) == set(self.COMMAND_EXITS)
        for parser in commands.values():
            assert callable(parser.get_default("handler"))

    @pytest.mark.parametrize("command", list(COMMAND_EXITS), ids=" ".join)
    def test_every_command_exits_0_1_and_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "one-rate.cfg"
        cfg.write_text(CONFIG_TEXT.replace("rates = 0.2, 0.333333", "rates = 0.333333"))
        frames = tmp_path / "frames"
        assert main(["phantom", "gen", "--config", str(cfg), "--out", str(frames)]) == 0
        capsys.readouterr()
        ok, failing, malformed = (
            [arg.format(cfg=cfg, frames=frames, out=tmp_path / f"out-{i}",
                        missing=tmp_path / "missing") for arg in argv]
            for i, argv in enumerate(self.COMMAND_EXITS[command]))
        assert main([*command, *ok]) == 0
        capsys.readouterr()
        assert main([*command, *failing]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(SystemExit) as exc:
            main([*command, *malformed])
        assert exc.value.code == 2
        assert "error: " in capsys.readouterr().err
        assert not list(tmp_path.glob("out-[12]*"))  # neither out-1/ nor out-1.x and so on

    def test_recon_dim_mismatch_exits_1(self, tmp_path, capsys):
        # recon makes its mask on the input's grid, so only a prior file can
        # be on another grid; here it has another size, too.
        truth = [x for x, _, _ in generate_frames(PhantomSpec(n_frames=1))]
        vol_path = tmp_path / "a.x"
        save_volume(vol_path, truth[0])
        small = next(generate_frames(PhantomSpec(dims=(16, 16, 4), n_frames=1)))
        _write_frame(tmp_path / "small", *small)
        code = main(["recon", "--input", str(vol_path), "--rate", "0.5",
                     "--prior", str(tmp_path / "small"), "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "small.l: dims (16, 16, 4) differ from input volume (32, 32, 4)" in err

    @pytest.mark.parametrize("flags", [["--prior", "other"]], ids=["prior"])
    def test_recon_rejects_a_file_on_another_grid_before_the_solve(self, tmp_path, capsys, flags):
        # A 16x64x4 volume flattens to the same (1024, 4) matrix as the
        # 32x32x4 input, so only the files' own dims tell them apart.
        save_volume(tmp_path / "a.x", next(generate_frames(PhantomSpec(n_frames=1)))[0])
        rng = np.random.default_rng(0)
        save_volume(tmp_path / "other.l",
                    DynamicVolume(rng.standard_normal((1024, 4)) + 0j, (16, 64, 4)))
        (tmp_path / "other.s").write_bytes((tmp_path / "a.x").read_bytes())
        code = main(["recon", "--input", str(tmp_path / "a.x"), "--rate", "0.5",
                     "--out", str(tmp_path / "r"),
                     *[f if f.startswith("--") else str(tmp_path / f) for f in flags]])
        assert code == 1
        captured = capsys.readouterr()
        assert "other.l: dims (16, 64, 4) differ from input volume (32, 32, 4)" in captured.err
        assert captured.out == "" and not list(tmp_path.glob("r.*"))

    def test_recon_prior_missing_its_s_file_fails_before_the_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        truth = next(generate_frames(PhantomSpec(n_frames=1)))
        save_volume(tmp_path / "a.x", truth[0])
        _write_frame(tmp_path / "prev", *truth)
        (tmp_path / "prev.s").unlink()
        monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("recon solved"))
        code = main(["recon", "--input", str(tmp_path / "a.x"), "--rate", "0.5",
                     "--prior", str(tmp_path / "prev"), "--out", str(tmp_path / "r")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(tmp_path / "prev.s") in captured.err
        assert captured.out == "" and not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("flag", ["--prior-l", "--prior-s"])
    def test_recon_prior_l_and_prior_s_are_usage_errors(self, tmp_path, capsys, flag):
        # One --prior BASE names both files.
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            main(["recon", "--input", str(tmp_path / "a.x"), "--out", str(out),
                  flag, str(tmp_path / "prev.l")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("command", ["phantom gen", "recon-seq"])
    def test_sequence_commands_refuse_an_out_holding_a_later_frame(
        self, tmp_path, capsys, config_file, command
    ):
        # A 3-frame run into an --out that holds frame0004 would leave that
        # frame beside its own, and recon-seq would read the mix back.
        frames_dir = tmp_path / "frames"
        assert main(["phantom", "gen", "--config", str(config_file),
                     "--out", str(frames_dir)]) == 0
        out = frames_dir if command == "phantom gen" else tmp_path / "seq"
        out.mkdir(exist_ok=True)
        stale = out / "frame0004.s"
        stale.write_bytes(b"")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        if command == "phantom gen":
            argv = ["phantom", "gen", "--config", str(config_file), "--out", str(out)]
        else:
            argv = ["recon-seq", "--frames", str(frames_dir), "--rate", "0.333333",
                    "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: --out {out} holds {stale}, past the 3 frames this run "
                                "writes: remove it or choose another --out\n")
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_phantom_gen_overwrites_the_frames_of_an_earlier_run(self, tmp_path, capsys):
        # The same frame indices are rewritten, as a benchmark that regenerates
        # one frames directory needs; only a later index is refused.
        out = tmp_path / "frames"
        for seed in (0, 7):
            config = tmp_path / f"seed{seed}.cfg"
            config.write_text(CONFIG_TEXT.replace("seed = 0", f"seed = {seed}"))
            assert main(["phantom", "gen", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            f"frame000{t}.{part}" for t in (1, 2, 3) for part in "lsx"]
        fresh = tmp_path / "fresh"
        assert main(["phantom", "gen", "--config", str(config), "--out", str(fresh)]) == 0
        assert all(p.read_bytes() == (fresh / p.name).read_bytes() for p in out.iterdir())


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

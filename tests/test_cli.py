"""CLI contract: exit codes, strict config, deterministic artifacts."""

import json
import re
from pathlib import Path

import pytest

from mott1d import cli


def write_config(tmp_path: Path, name: str = "config.json", **overrides) -> Path:
    cfg = {
        "scenario": {"case": "collinear", "epsilon": 0.25, "lambda0": 1e-3,
                     "engine": "pt"},
        "numerics": {"n_max": 1},
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        elif isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
            cfg[key] = {k: v for k, v in cfg[key].items() if v is not None}
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def parse(path: Path) -> cli.RunConfig:
    return cli.RunConfig.from_dict(cli.read_config(path))


def assert_failure_recorded(tmp_path: Path, path: Path, match: str,
                            sweep_only: bool = False) -> None:
    """run and sweep exit 64 on the config and record an error matching
    ``match`` in a failed manifest; regime exits 64 and writes nothing."""
    for command in ("sweep",) if sweep_only else ("run", "sweep", "regime"):
        out = tmp_path / f"rejected-{command}"
        code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG, command
        if command == "regime":
            assert not out.exists()
            continue
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed", command
        assert re.search(match, manifest["error"]), (command, manifest["error"])


# ---------------------------------------------------------------------------
# config validation


def test_unknown_key_is_named(tmp_path):
    path = write_config(tmp_path, scenario={"case": "collinear", "tpyo": 1})
    with pytest.raises(cli.ConfigError, match="tpyo"):
        parse(path)
    assert_failure_recorded(tmp_path, path, "tpyo")


def test_unknown_numerics_key(tmp_path):
    path = write_config(tmp_path, numerics={"dt": 0.1})
    with pytest.raises(cli.ConfigError, match="numerics.'dt'"):
        parse(path)
    assert_failure_recorded(tmp_path, path, "numerics.'dt'")


@pytest.mark.parametrize("shape", ["box", []], ids=["box", "list"])
def test_unknown_potential_shape(tmp_path, shape):
    path = write_config(tmp_path, numerics={"potential_shape": shape})
    with pytest.raises(cli.ConfigError, match="potential_shape .* unknown"):
        parse(path)
    assert_failure_recorded(tmp_path, path, "potential_shape .* unknown")


def test_missing_scenario_section(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"numerics": {}}))
    with pytest.raises(cli.ConfigError, match="scenario"):
        parse(path)
    assert_failure_recorded(tmp_path, path, "scenario")


def test_invalid_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(cli.ConfigError, match="not valid JSON"):
        cli.read_config(path)
    # no config to record: no run directory either
    for command in ("run", "sweep"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
        assert not out.exists()


def test_missing_file(tmp_path):
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.read_config(tmp_path / "absent.json")


def test_explicit_params_with_lambda_key(tmp_path):
    path = write_config(tmp_path, scenario={
        "case": "opposite",
        "params": {"M": 1.0, "m": 0.2, "omega": 0.2, "lambda": 1e-3, "delta": 5.0,
                   "sigma": 5.0, "P0": 1.0, "a1": 25.0, "a2": -50.0}})
    config = parse(path)
    assert config.spec.params.lam == 1e-3
    assert config.spec.case == "opposite"


def test_params_missing_field(tmp_path):
    path = write_config(tmp_path, scenario={
        "case": "collinear", "params": {"M": 1.0, "m": 0.2}})
    with pytest.raises(cli.ConfigError, match="missing"):
        parse(path)
    assert_failure_recorded(tmp_path, path, "missing")


def test_type_errors_are_reported(tmp_path):
    path = write_config(tmp_path, scenario={"case": "collinear", "epsilon": "big"})
    with pytest.raises(cli.ConfigError, match="scenario.epsilon"):
        parse(path)
    assert_failure_recorded(tmp_path, path, "scenario.epsilon")
    path = write_config(tmp_path, numerics={"n_points": 2.5})
    with pytest.raises(cli.ConfigError, match="n_points"):
        parse(path)
    assert_failure_recorded(tmp_path, path, "n_points")


@pytest.mark.parametrize("overrides, match", [
    ({"scenario": {"times": 5}}, "scenario.times"),
    ({"scenario": {"times": []}}, "times must not be empty"),
    ({"scenario": {"targets": 5}}, "scenario.targets"),
    ({"sweep": {"lambda0_values": 5}}, "sweep.lambda0_values"),
    ({"output": {"density_channels": 5}}, "output.density_channels"),
    ({"output": {"formats": 5}}, "output.formats"),
    # json reads the Infinity and NaN that json.dumps writes
    ({"scenario": {"times": [float("inf")]}}, "scenario.times must be a finite number"),
    # a negative index would read the stack from its far end
    ({"output": {"density_channels": [[-1, 0], [2, 0]]}}, "output.density_channels"),
    # the run's stack holds no channel above n_max (here 1)
    ({"output": {"density_channels": [[2, 0]]}}, "output.density_channels"),
    # nor a target: one above n_max would be echoed with no probability
    ({"scenario": {"targets": [[1, 1], [2, 0]]}}, "scenario.targets entry"),
    # a PT-only run has no channel stack to write
    ({"output": {"channel_snapshot": True}}, "output.channel_snapshot"),
    # a snapshot is switched by a json boolean, not by a string that reads as one
    ({"scenario": {"engine": "oracle"}, "output": {"channel_snapshot": "false"}},
     "output.channel_snapshot"),
    # a setting has one spelling: any other is an unknown key
    ({"scenario": {"t_factor": 1.5}}, "scenario.'t_factor'"),
    ({"sweep": {"lambda_values": [1e-4, 2.5e-4, 5e-4, 1e-3]}}, "sweep.'lambda_values'"),
    ({"numerics": {"x_max": 500.0}}, "numerics.'x_max'"),
    # a step, tolerance or threshold that is not positive is caught before
    # any engine starts, not after a PT run or an escalation ladder
    ({"numerics": {"dt_oracle": 0}}, "numerics.dt_oracle: dt must be positive"),
    ({"numerics": {"dt_duhamel": -0.1}}, "numerics.dt_duhamel: dt must be positive"),
    ({"numerics": {"pt_rtol": -1}}, "numerics.pt_rtol"),
    ({"numerics": {"top_shell_threshold": -1}}, "numerics.top_shell_threshold"),
    # a repeat would be solved once, reported once and listed twice
    ({"scenario": {"times": [20, 20.0]}}, "scenario.times must not repeat"),
    # a repeat would write its field file twice and list it twice
    ({"output": {"density_channels": [[1, 0], [1, 0]]}},
     "output.density_channels must not repeat"),
], ids=["times", "times-empty", "targets", "lambda0_values", "density_channels",
        "formats", "times-infinity", "density_channels-negative",
        "density_channels-above-n_max", "targets-above-n_max", "snapshot-pt",
        "snapshot-string", "removed-t_factor", "removed-lambda_values", "removed-x_max",
        "dt_oracle-zero", "dt_duhamel-negative", "pt_rtol-negative",
        "top_shell_threshold-negative", "times-repeated", "density_channels-repeated"])
def test_list_keys_must_be_lists(tmp_path, overrides, match):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(cli.ConfigError, match=match):
        parse(path)
    assert_failure_recorded(tmp_path, path, match)


def test_readme_configs_parse():
    # the example config block and the inline time-window config, so the
    # docs cannot name a key the parser rejects
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    inline = re.findall(r'`(\{"scenario".*?\})`', text, re.S)
    assert blocks and inline
    for block in [*blocks, *inline]:
        cli.RunConfig.from_dict(json.loads(block))


def test_empty_targets_rejected_by_sweep(tmp_path, capsys):
    # with no sweep.target the sweep would fit the first of no targets
    path = write_config(tmp_path, scenario={"targets": []},
                        sweep={"lambda0_values": [1e-4, 2.5e-4, 5e-4, 1e-3]})
    with pytest.raises(cli.ConfigError, match="targets must not be empty"):
        parse(path)
    assert_failure_recorded(tmp_path, path, "targets must not be empty")
    assert "targets must not be empty" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# regime command


def test_regime_exit_valid(tmp_path, capsys):
    path = write_config(tmp_path, scenario={"case": "collinear", "epsilon": 0.1})
    assert cli.main(["regime", "--config", str(path)]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "valid"


def test_regime_exit_invalid(tmp_path, capsys):
    path = write_config(tmp_path, scenario={"case": "collinear", "epsilon": 0.1,
                                            "lambda0": 0.5})
    assert cli.main(["regime", "--config", str(path)]) == cli.EXIT_INVALID


def test_regime_exit_marginal(tmp_path, capsys):
    # sigma pushed into the marginal band of the epsilon grading
    path = write_config(tmp_path, scenario={
        "case": "collinear", "epsilon": 0.1,
        "params": {"M": 1.0, "m": 0.1, "omega": 0.1, "lambda": 1e-3, "delta": 10.0,
                   "sigma": 30.0, "P0": 1.0, "a1": 100.0, "a2": 200.0}})
    assert cli.main(["regime", "--config", str(path)]) == cli.EXIT_MARGINAL


def test_regime_exit_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    assert cli.main(["regime", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_usage_error_is_a_config_error(tmp_path, capsys):
    # argparse's own exit code, 2, would read as an invalid regime
    assert cli.main(["run"]) == cli.EXIT_CONFIG
    assert cli.main(["plotdata", str(tmp_path)]) == cli.EXIT_CONFIG
    path = write_config(tmp_path, scenario={"case": "collinear", "epsilon": 0.1,
                                            "lambda0": 0.5})
    # the config file is the one settings path: no flag overrides it
    for flag, value in (("--engine", "pt"), ("--format", "csv")):
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "run"),
                         flag, value]) == cli.EXIT_CONFIG
    assert not (tmp_path / "run").exists()
    assert cli.main(["regime", "--config", str(path)]) == cli.EXIT_INVALID
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0


def test_regime_writes_report_file(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["regime", "--config", str(path), "--out", str(out)])
    assert (out / "regime.json").exists()


# ---------------------------------------------------------------------------
# run command


@pytest.fixture(scope="module")
def pt_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-run")
    cfg = write_config(tmp)
    out = tmp / "run1"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    return cfg, out


@pytest.fixture(scope="module")
def both_run(tmp_path_factory):
    # both engines, every oracle output
    tmp = tmp_path_factory.mktemp("cli-both")
    cfg = write_config(tmp, scenario={"engine": "both"}, numerics={"n_max": 2},
                       output={"channel_snapshot": True})
    out = tmp / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    return out


def test_run_produces_expected_files(pt_run, both_run):
    # a run directory holds exactly the outputs its manifest lists
    for out, engines in ((pt_run[1], ["pt"]), (both_run, ["oracle", "pt"])):
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*manifest["outputs"], "manifest.json"])
        assert "report.json" in manifest["outputs"]
        for engine in engines:
            assert f"probabilities_{engine}.csv" in manifest["outputs"]
    assert "snapshot.csv" in json.loads((both_run / "manifest.json").read_text())["outputs"]


def test_run_probability_map_is_subnormalized(pt_run):
    _, out = pt_run
    report = json.loads((out / "report.json").read_text())
    for engine in report["engines"].values():
        for pmap in engine["probabilities"].values():
            assert sum(pmap.values()) <= 1.0 + 1e-9


def test_run_rerun_is_byte_identical(pt_run, tmp_path):
    cfg, out = pt_run
    out2 = tmp_path / "run2"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out2)]) == cli.EXIT_OK
    names = json.loads((out / "manifest.json").read_text())["outputs"]
    assert names == json.loads((out2 / "manifest.json").read_text())["outputs"]
    for name in names:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_csv_format(pt_run):
    _, out = pt_run
    text = (out / "probabilities_pt.csv").read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "t,n1,n2,p"
    assert len(lines) > 1


def test_run_unwritable_out_dir(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub"  # parent is a file: cannot create
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code != cli.EXIT_OK
    assert not out.exists()


def test_manifest_config_round_trip(pt_run, tmp_path):
    # the config embedded in the manifest reproduces the results byte-for-byte
    _, out = pt_run
    manifest = json.loads((out / "manifest.json").read_text())
    cfg2 = tmp_path / "from-manifest.json"
    cfg2.write_text(json.dumps(manifest["config"]))
    out2 = tmp_path / "replay"
    assert cli.main(["run", "--config", str(cfg2), "--out", str(out2)]) == cli.EXIT_OK
    for name in manifest["outputs"]:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_numeric_failure_exit_and_manifest(tmp_path):
    # miniature truncation: strong coupling with n_max pinned to 1
    cfg = write_config(tmp_path, scenario={"case": "collinear", "lambda0": 0.05,
                                           "engine": "oracle"},
                       numerics={"n_max": 1, "top_shell_threshold": 1e-12})
    out = tmp_path / "fail"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "error" in manifest


def test_run_pt_non_finite_exit_and_manifest(tmp_path, monkeypatch):
    # a NaN in the PT joint block fails the run with the numeric exit code
    from mott1d import perturbation

    original = perturbation._add_spectrum

    def poisoned(acc, values, phase, spectrum):
        original(acc, values, phase, spectrum)
        acc[0, 0, 0] = float("nan")

    monkeypatch.setattr(perturbation, "_add_spectrum", poisoned)
    out = tmp_path / "fail"
    cfg = write_config(tmp_path, scenario={"engine": "pt"})
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "non-finite" in manifest["error"]


@pytest.mark.parametrize("dt", [0, -1.0], ids=["zero", "negative"])
def test_non_positive_duhamel_step_fails_cleanly(tmp_path, capsys, dt):
    cfg = write_config(tmp_path, numerics={"dt_duhamel": dt},
                       sweep={"lambda0_values": [1e-4, 2.5e-4, 5e-4, 1e-3]})
    for command in ("run", "sweep"):
        out = tmp_path / command
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_CONFIG, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "dt must be positive" in manifest["error"]
        assert "numerics.dt_duhamel" in manifest["error"]
    err = capsys.readouterr().err
    assert "dt must be positive" in err and "numerics.dt_duhamel" in err


def test_run_failure_message_names_scenario(tmp_path, monkeypatch):
    from mott1d import channels, experiments

    def fail(spec, grid, form_factors):
        raise channels.TruncationError("top shell full")

    monkeypatch.setattr(experiments, "_run_oracle", fail)
    cfg = write_config(tmp_path, scenario={"engine": "oracle"})
    out = tmp_path / "fail"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERIC
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error == "top shell full [scenario case=collinear, engine=oracle]"


@pytest.mark.parametrize("lam", [1e-3, 0.0], ids=["coupled", "free"])
def test_snapshot_csv_and_summary(tmp_path, lam):
    # the oracle's final state, one row per point of every channel that
    # holds norm (only (0, 0) without coupling), next to the report's
    # probabilities at that time
    params = {"M": 1.0, "m": 0.25, "omega": 0.25, "lambda": lam, "delta": 4.0,
              "sigma": 4.0, "P0": 1.0, "a1": 16.0, "a2": 32.0}
    cfg = write_config(tmp_path, scenario={"engine": "oracle", "params": params},
                       output={"channel_snapshot": True, "density_channels": []})
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert "snapshot.csv" in json.loads((out / "manifest.json").read_text())["outputs"]
    lines = (out / "snapshot.csv").read_text().splitlines()
    assert lines[0] == "x,n1,n2,re_f,im_f"
    report = json.loads((out / "report.json").read_text())
    oracle = report["engines"]["oracle"]
    [t] = report["scenario"]["times"]
    # the oracle lands on the requested time itself
    assert "eval_times" not in oracle["convergence"]
    [segment] = oracle["convergence"]["segments"]
    assert segment["t"] == t
    assert segment["steps"] * segment["dt"] == pytest.approx(t, rel=1e-12)
    probabilities = oracle["probabilities"][f"{t:.17g}"]
    assert sum(probabilities.values()) == pytest.approx(1.0, abs=1e-8)
    held = {key for key, p in probabilities.items() if p != 0.0}
    assert (held == {"0,0"}) == (lam == 0.0)
    per_channel = {}
    for line in lines[1:]:
        x, n1, n2, _, _ = line.split(",")
        per_channel.setdefault(f"{n1},{n2}", []).append(float(x))
    assert set(per_channel) == held
    xs = per_channel["0,0"]
    assert xs == sorted(xs) and all(v == xs for v in per_channel.values())


# ---------------------------------------------------------------------------
# sweep command


def test_bad_value_exit_code_same_for_run_and_sweep(tmp_path, capsys):
    # n_max = 0 passes config parsing and fails before any propagation
    for command in ("run", "sweep"):
        for engine in ("pt", "oracle"):
            cfg = write_config(tmp_path, scenario={"engine": engine}, numerics={"n_max": 0},
                               sweep={"lambda0_values": [1e-4, 2.5e-4, 5e-4, 1e-3]})
            out = tmp_path / f"{command}_{engine}"
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            assert code == cli.EXIT_CONFIG, (command, engine)
            assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert "n_max" in capsys.readouterr().err



def test_sweep_pt_slope(tmp_path):
    cfg = write_config(tmp_path, sweep={"lambda0_values": [1e-4, 2.5e-4, 5e-4, 1e-3],
                                        "target": [1, 1]})
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    fit = json.loads((out / "fit.json").read_text())
    assert abs(fit["slope"] - 4.0) <= 1e-10
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "lambda,lambda0,p_1_1,engine"


@pytest.mark.parametrize("engine", ["pt", "oracle"])
def test_sweep_target_beyond_n_max_fails_before_solving(tmp_path, capsys, monkeypatch, engine):
    from mott1d import channels, perturbation

    def solve(*args, **kwargs):
        raise AssertionError("the sweep solved before checking its target")

    monkeypatch.setattr(perturbation, "converged_dyson_run", solve)
    monkeypatch.setattr(channels, "evolve_with_escalation", solve)
    cfg = write_config(tmp_path, scenario={"engine": engine},
                       sweep={"lambda0_values": [1e-4, 2.5e-4, 5e-4, 1e-3],
                              "target": [2, 2]})
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "n_max=1" in manifest["error"]
    assert "n_max=1" in capsys.readouterr().err


def test_sweep_requires_section(tmp_path):
    cfg = write_config(tmp_path)
    assert_failure_recorded(tmp_path, cfg, "config.sweep section is required",
                            sweep_only=True)


def test_sweep_three_points_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"lambda0_values": [1e-4, 3e-4, 1e-3]})
    assert_failure_recorded(tmp_path, cfg, "sweep needs >= 4 values")

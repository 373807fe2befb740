"""CLI contract: exit codes, strict config, deterministic artifacts."""

import json
from pathlib import Path

import pytest

from mott1d import cli


def write_config(tmp_path: Path, name: str = "config.json", **overrides) -> Path:
    cfg = {
        "scenario": {"case": "collinear", "epsilon": 0.25, "lambda0": 1e-3,
                     "engine": "pt"},
        "numerics": {"n_max": 1, "dt_oracle": 0.1},
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


# ---------------------------------------------------------------------------
# config validation


def test_unknown_key_is_named(tmp_path):
    path = write_config(tmp_path, scenario={"case": "collinear", "tpyo": 1})
    with pytest.raises(cli.ConfigError, match="tpyo"):
        cli.load_config(path)


def test_unknown_numerics_key(tmp_path):
    path = write_config(tmp_path, numerics={"dt": 0.1})
    with pytest.raises(cli.ConfigError, match="numerics.'dt'"):
        cli.load_config(path)


def test_missing_scenario_section(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"numerics": {}}))
    with pytest.raises(cli.ConfigError, match="scenario"):
        cli.load_config(path)


def test_invalid_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(cli.ConfigError, match="not valid JSON"):
        cli.load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(cli.ConfigError, match="not found"):
        cli.load_config(tmp_path / "absent.json")


def test_explicit_params_with_lambda_key(tmp_path):
    path = write_config(tmp_path, scenario={
        "case": "opposite",
        "params": {"M": 1.0, "m": 0.2, "omega": 0.2, "lambda": 1e-3, "delta": 5.0,
                   "sigma": 5.0, "P0": 1.0, "a1": 25.0, "a2": -50.0}})
    config = cli.load_config(path)
    assert config.spec.params.lam == 1e-3
    assert config.spec.case == "opposite"


def test_params_missing_field(tmp_path):
    path = write_config(tmp_path, scenario={
        "case": "collinear", "params": {"M": 1.0, "m": 0.2}})
    with pytest.raises(cli.ConfigError, match="missing"):
        cli.load_config(path)


def test_times_and_t_factor_conflict(tmp_path):
    path = write_config(tmp_path, scenario={"case": "collinear", "times": [10.0],
                                            "t_factor": 2.0})
    with pytest.raises(cli.ConfigError, match="mutually exclusive"):
        cli.load_config(path)


def test_type_errors_are_reported(tmp_path):
    path = write_config(tmp_path, scenario={"case": "collinear", "epsilon": "big"})
    with pytest.raises(cli.ConfigError, match="scenario.epsilon"):
        cli.load_config(path)
    path = write_config(tmp_path, numerics={"n_points": 2.5})
    with pytest.raises(cli.ConfigError, match="n_points"):
        cli.load_config(path)


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


def test_run_produces_expected_files(pt_run):
    _, out = pt_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out / name).exists(), name
    assert (out / "report.json").exists()
    assert (out / "probabilities_pt.csv").exists()


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


def test_run_engine_override_lands_in_manifest(tmp_path):
    cfg = write_config(tmp_path, scenario={"case": "collinear", "engine": "both"})
    out = tmp_path / "run-pt"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                     "--engine", "pt"]) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["scenario"]["engine"] == "pt"
    report = json.loads((out / "report.json").read_text())
    assert list(report["engines"]) == ["pt"]


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
                       numerics={"n_max": 1, "dt_oracle": 0.1,
                                 "top_shell_threshold": 1e-12})
    out = tmp_path / "fail"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "error" in manifest


def test_run_failure_message_names_scenario(tmp_path, monkeypatch):
    from mott1d import channels, experiments

    def fail(spec, grid):
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
    # holds norm (only (0, 0) without coupling), next to its probability
    # summary
    params = {"M": 1.0, "m": 0.25, "omega": 0.25, "lambda": lam, "delta": 4.0,
              "sigma": 4.0, "P0": 1.0, "a1": 16.0, "a2": 32.0}
    cfg = write_config(tmp_path, scenario={"engine": "oracle", "params": params},
                       output={"channel_snapshot": True, "density_channels": []})
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert "snapshot.csv" in json.loads((out / "manifest.json").read_text())["outputs"]
    lines = (out / "snapshot.csv").read_text().splitlines()
    assert lines[0] == "x,n1,n2,re_f,im_f"
    summary = json.loads((out / "probability_summary.json").read_text())
    report = json.loads((out / "report.json").read_text())
    [[_, t_used]] = report["engines"]["oracle"]["convergence"]["eval_times"]
    assert summary["t"] == t_used
    assert sum(summary["probabilities"].values()) == pytest.approx(1.0, abs=1e-8)
    held = {key for key, p in summary["probabilities"].items() if p != 0.0}
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
    cfg = write_config(tmp_path, numerics={"n_max": 0},
                       sweep={"lambda0_values": [1e-4, 2.5e-4, 5e-4, 1e-3]})
    for command in ("run", "sweep"):
        for engine in ("pt", "oracle"):
            out = tmp_path / f"{command}_{engine}"
            code = cli.main([command, "--config", str(cfg), "--out", str(out),
                             "--engine", engine])
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


def test_sweep_requires_section(tmp_path):
    cfg = write_config(tmp_path)
    assert cli.main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG


def test_sweep_three_points_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep={"lambda0_values": [1e-4, 3e-4, 1e-3]})
    assert cli.main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "s")]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# plotdata command


def test_plotdata_roundtrip(tmp_path):
    cfg = write_config(tmp_path, output={"density_channels": [[1, 0]]})
    out = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["plotdata", str(out)]) == cli.EXIT_OK
    density = out / "plot" / "density_1_0.txt"
    assert density.exists()
    first = density.read_bytes()
    header = density.read_text().splitlines()[0]
    assert header.startswith("# run ")
    assert cli.main(["plotdata", str(out)]) == cli.EXIT_OK
    assert density.read_bytes() == first


def test_plotdata_missing_manifest(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["plotdata", str(empty)]) == cli.EXIT_CONFIG
    assert "manifest" in capsys.readouterr().err

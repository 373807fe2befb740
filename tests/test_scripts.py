"""The experiment scripts stay runnable (reduced arguments), and the frozen
threshold fixture is what freeze_thresholds.py writes."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "thresholds.json"


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=600)


def test_case_comparison_quick():
    proc = run("run_case_comparison.py", "--quick", "--epsilon", "0.25")
    assert proc.returncode == 0, proc.stderr
    assert "joint-excitation ratio opposite/collinear" in proc.stdout
    assert "[collinear]" in proc.stdout and "[opposite]" in proc.stdout


def test_threshold_fixture_follows_the_freeze_rule():
    # each suppression ratio is the measured one times the script's MARGIN,
    # the slope band and the mass floor are the script's constants, and all
    # entries carry one run id, whose origin the script's docstring gives
    script = runpy.run_path(str(SCRIPTS / "freeze_thresholds.py"))
    entries = {e["threshold_name"]: e for e in json.loads(FIXTURE.read_text())}
    assert set(entries) == {"case_ratio_p11_max", "history_both_ratio_max",
                            "oracle_sweep_slope_lo", "oracle_sweep_slope_hi",
                            "localization_min_mass"}
    for name in ("case_ratio_p11_max", "history_both_ratio_max"):
        assert entries[name]["value"] == entries[name]["measured"] * script["MARGIN"]
    assert entries["oracle_sweep_slope_lo"]["value"] == 3.9
    assert entries["oracle_sweep_slope_hi"]["value"] == 4.1
    assert entries["localization_min_mass"]["value"] == 0.99
    (run_id,) = {e["oracle_run_id"] for e in entries.values()}
    assert run_id in script["__doc__"]


def test_threshold_check_bounds_each_quantity_from_its_side(tmp_path):
    # --check compares each recomputed quantity with its frozen threshold:
    # the frozen measurements pass, and moving any one of them past its
    # threshold, from the side its name gives, fails
    check = runpy.run_path(str(SCRIPTS / "freeze_thresholds.py"))["check"]
    entries = json.loads(FIXTURE.read_text())
    measured = {e["threshold_name"]: e["measured"] for e in entries}
    assert check(FIXTURE, measured) == 0
    for e in entries:
        name, bound = e["threshold_name"], e["value"]
        past = bound * 1.01 if name.endswith(("_max", "_hi")) else bound * 0.99
        assert check(FIXTURE, {**measured, name: past}) == 1, name

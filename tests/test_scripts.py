"""The experiment scripts stay runnable (reduced arguments)."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=600)


def test_case_comparison_quick():
    proc = run("run_case_comparison.py", "--quick", "--epsilon", "0.25")
    assert proc.returncode == 0, proc.stderr
    assert "joint-excitation ratio opposite/collinear" in proc.stdout
    assert "[collinear]" in proc.stdout and "[opposite]" in proc.stdout

#!/usr/bin/env python3
"""Smoke check of the benchmark itself; asserts no timing.

Runs every workload once per trace mode at the tiny grid size and checks
that each run exits 0, reports its outputs correct with no failed solve, and
prints every metric that BENCHMARK.json names for that mode, each with its
declared unit and a numeric value.  Takes about a minute:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in declared.items():
            where = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(line)}")
                continue
            if not (line["correct"] and line["failed"] == 0 and line["attempted"] >= 1):
                problems.append(f"{where}: correct={line['correct']} failed={line['failed']}")
            got = line["metrics"]
            if set(got) != set(expected):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected))}")
            for name, unit in expected.items():
                entry = got.get(name, {})
                if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
                    problems.append(f"{where}: {name} printed as {entry!r}, unit {unit!r}")
            print(f"ok {where}: {len(got)} metrics")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

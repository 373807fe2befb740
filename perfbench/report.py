#!/usr/bin/env python3
"""Per-workload table of traced self times next to the untraced solve_s.

Reads the result records that ``perfbench/run.py`` leaves in
``.perfbench_out/`` and, for each workload with both an untraced
(``--trace 0``) and a traced (``--trace 1``) run, prints the median untraced
``solve_s``, each per-layer self time with its share of that solve time, and
the tracing overhead: the traced ``trace.solve_s`` minus the untraced
``solve_s``.  Medians are taken over runs (any seeds).

    python3 perfbench/report.py
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def main() -> int:
    runs = defaultdict(lambda: ([], []))   # workload -> (untraced, traced) metric dicts
    for path in sorted(OUT.glob("result-*.json")):
        result = json.loads(path.read_text())
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        if metrics:
            runs[result["workload"]][result["trace"]].append(metrics)
    if not runs:
        print(f"no result records in {OUT}", file=sys.stderr)
        return 1
    for workload, (untraced, traced) in sorted(runs.items()):
        if not (untraced and traced):
            print(f"{workload}: needs both an untraced and a traced run")
            continue

        def med(rows, name):
            return statistics.median(row[name] for row in rows)

        solve = med(untraced, "solve_s")
        traced_solve = med(traced, "trace.solve_s")
        print(f"{workload}: untraced solve_s {solve:.3f} s ({len(untraced)} runs), "
              f"traced {traced_solve:.3f} s ({len(traced)} runs), tracing overhead "
              f"{traced_solve - solve:+.3f} s ({100 * (traced_solve / solve - 1):+.1f}%), "
              f"tracer bookkeeping {1e3 * med(traced, 'trace.bookkeeping_s'):.3f} ms per solve")
        for name in traced[0]:
            if name.endswith("_s") and not name.startswith("trace."):
                value = med(traced, name)
                print(f"  {name:30s} {value:10.4f} s  {100 * value / solve:6.1f}% of solve_s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

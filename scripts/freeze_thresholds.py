#!/usr/bin/env python3
"""Pre-release oracle run that freezes the acceptance thresholds.

The asymptotic suppression statements ("negligible", "beyond all orders")
have no closed-form constants, so the acceptance suite compares against
numbers frozen here: each threshold is the value this documented
coupled-channel run measured, times a generous safety margin.  The fixture
records the run id so any later regeneration is traceable.  The frozen
values came from the plain Strang oracle at dt 0.1, before the oracle took
composed fourth-order steps.

Usage:
    python scripts/freeze_thresholds.py [--out src/mott1d/fixtures/thresholds.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

import mott1d as m
import mott1d.experiments as ex
from mott1d import __version__

MARGIN = 1e6  # measured suppression ratios get six orders of headroom


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1]
                                             / "src/mott1d/fixtures/thresholds.json"))
    args = parser.parse_args()

    t0 = time.perf_counter()
    scen = {case: ex.acceptance_scenario(case, engine="oracle")
            for case in ("collinear", "opposite")}
    run_id_src = json.dumps({
        "epsilon": ex.ACCEPTANCE_EPSILON, "lambda0": ex.ACCEPTANCE_LAMBDA0,
        "numerics": ex.acceptance_numerics().__dict__, "version": __version__,
    }, sort_keys=True)
    run_id = hashlib.sha256(run_id_src.encode()).hexdigest()[:16]
    print(f"freeze run {run_id} (package {__version__})")

    reports = {}
    for case, spec in scen.items():
        print(f"  running oracle, {case} ...", flush=True)
        reports[case] = m.run_scenario(spec, keep_oracle_states=True)
        conv = reports[case].engines["oracle"].convergence
        print(f"    wall {reports[case].wall_time:.0f}s, norm drift {conv['norm_drift']:.2e}, "
              f"top shell {conv['top_shell_norm']:.2e}")

    t_final = max(scen["collinear"].eval_times)
    p11_coll = reports["collinear"].probability("oracle", (1, 1), t_final)
    p11_opp = reports["opposite"].probability("oracle", (1, 1), t_final)
    case_ratio = p11_opp / p11_coll
    print(f"  P11 collinear = {p11_coll:.6e}")
    print(f"  P11 opposite  = {p11_opp:.6e}")
    print(f"  case ratio    = {case_ratio:.6e}")

    none_, right, left, both = reports["opposite"].engines["oracle"].histories[t_final]
    hist_ratio = both / min(right, left)
    print(f"  histories (opposite): none={none_:.8f} right={right:.3e} "
          f"left={left:.3e} both={both:.3e}")
    print(f"  both/min(single) = {hist_ratio:.6e}")

    # localization at 1.5 tau1 from the same collinear run
    t_loc = min(scen["collinear"].eval_times)
    state = reports["collinear"].oracle_states[t_loc]
    loc = ex.localization_from_state(state, scen["collinear"].params)
    mass = loc.entry((1, 0)).mass_same_side
    print(f"  localization mass (1,0) at 1.5 tau1 = {mass:.6f}")

    # reduced-cost oracle sweep documents the slope band is attainable
    print("  running oracle lambda sweep (reduced settings) ...", flush=True)
    sweep_spec = ex.ScenarioSpec(
        case="collinear", params=scen["collinear"].params,
        epsilon=ex.ACCEPTANCE_EPSILON, engine="oracle", targets=((1, 1),),
        numerics=ex.NumericSettings(n_points=2 ** 13, n_max=3, dt_oracle=0.1))
    fit = ex.sweep_lambda(sweep_spec, [1e-4, 2.5e-4, 5e-4, 1e-3])
    print(f"  oracle sweep slope = {fit.slope:.6f} (residual max {fit.residual_max:.2e})")

    date = time.strftime("%Y-%m-%d", time.gmtime())
    entries = [
        {"threshold_name": "case_ratio_p11_max",
         "value": case_ratio * MARGIN,
         "measured": case_ratio,
         "oracle_run_id": run_id, "date": date},
        {"threshold_name": "history_both_ratio_max",
         "value": hist_ratio * MARGIN,
         "measured": hist_ratio,
         "oracle_run_id": run_id, "date": date},
        {"threshold_name": "oracle_sweep_slope_lo",
         "value": 3.9, "measured": fit.slope,
         "oracle_run_id": run_id, "date": date},
        {"threshold_name": "oracle_sweep_slope_hi",
         "value": 4.1, "measured": fit.slope,
         "oracle_run_id": run_id, "date": date},
        {"threshold_name": "localization_min_mass",
         "value": 0.99, "measured": mass,
         "oracle_run_id": run_id, "date": date},
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(entries, indent=2) + "\n")
    print(f"wrote {out} ({time.perf_counter() - t0:.0f}s total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Pre-release oracle run that freezes the acceptance thresholds.

The asymptotic suppression statements ("negligible", "beyond all orders")
have no closed-form constants, so the acceptance suite compares against
numbers frozen here: each threshold is the value this documented
coupled-channel run measured, times a generous safety margin (MARGIN for
the two suppression ratios; the slope band and the mass floor are fixed).
The fixture records the run id, a hash of the acceptance settings and the
package version, so any later regeneration is traceable.

Provenance of tests/fixtures/thresholds.json: its run id 63f832110c176a57
is this script's hash of the first release's acceptance settings (2^14
points, n_max 4, dt_oracle 0.1, dt_duhamel 0.2, with the since-removed
numerics.x_max unset), so its values come from the plain Strang oracle at
dt 0.1, before the oracle took composed fourth-order steps.  They are kept
frozen.  Run today, the script hashes the current acceptance_numerics() to
46f83853bcf2c46a, runs the current oracle and writes new values.

With ``--check`` the script writes nothing: it recomputes the five
quantities at the acceptance settings, prints each against its frozen
threshold in the fixture, and exits 1 if one falls outside it (a ``_max`` or
``_hi`` threshold bounds from above, a ``_min`` or ``_lo`` one from below).

Usage:
    python scripts/freeze_thresholds.py [--out tests/fixtures/thresholds.json] [--check]
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


def measure() -> tuple[str, dict[str, float]]:
    """The run id and each threshold's measured quantity, from the oracle at
    the acceptance settings and a reduced-cost oracle lambda sweep."""
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
    return run_id, {"case_ratio_p11_max": case_ratio, "history_both_ratio_max": hist_ratio,
                    "oracle_sweep_slope_lo": fit.slope, "oracle_sweep_slope_hi": fit.slope,
                    "localization_min_mass": mass}


def check(fixture: Path, measured: dict[str, float]) -> int:
    """0 if every measured quantity lies within its frozen threshold, else 1."""
    failed = 0
    for entry in json.loads(fixture.read_text()):
        name, bound = entry["threshold_name"], entry["value"]
        value = measured[name]
        upper = name.endswith(("_max", "_hi"))
        ok = value <= bound if upper else value >= bound
        failed += not ok
        print(f"  {name}: measured {value:.6e} {'<=' if upper else '>='} {bound:.6e} "
              f"{'ok' if ok else 'OUTSIDE'}")
    return int(failed > 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1]
                                             / "tests/fixtures/thresholds.json"))
    parser.add_argument("--check", action="store_true",
                        help="compare with the thresholds in --out and write nothing")
    args = parser.parse_args()

    t0 = time.perf_counter()
    run_id, measured = measure()
    if args.check:
        code = check(Path(args.out), measured)
        print(f"checked {args.out}: {'pass' if code == 0 else 'FAIL'} "
              f"({time.perf_counter() - t0:.0f}s total)")
        return code

    date = time.strftime("%Y-%m-%d", time.gmtime())
    fixed = {"oracle_sweep_slope_lo": 3.9, "oracle_sweep_slope_hi": 4.1,
             "localization_min_mass": 0.99}
    entries = [{"threshold_name": name,
                "value": fixed.get(name, value * MARGIN),
                "measured": value,
                "oracle_run_id": run_id, "date": date}
               for name, value in measured.items()]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(entries, indent=2) + "\n")
    print(f"wrote {out} ({time.perf_counter() - t0:.0f}s total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Side-by-side comparison of the two oscillator geometries.

Runs both engines on the opposite-side and same-side arrangements at the
acceptance defaults and prints the joint-excitation suppression, the
four-outcome histories, and the measured order-one prefactors
P / (lambda0/epsilon)^k that stand in for the asymptotic constants.

Usage:
    python scripts/run_case_comparison.py [--epsilon 0.1] [--lambda0 1e-3] [--quick]
"""

from __future__ import annotations

import argparse

import mott1d.experiments as ex


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=ex.ACCEPTANCE_EPSILON)
    parser.add_argument("--lambda0", type=float, default=ex.ACCEPTANCE_LAMBDA0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced truncation and grid (sanity runs)")
    args = parser.parse_args()

    numerics = (ex.NumericSettings(n_max=2) if args.quick
                else ex.acceptance_numerics())
    reports = {}
    for case in ("collinear", "opposite"):
        params = ex.default_params(case, epsilon=args.epsilon, lambda0=args.lambda0)
        spec = ex.ScenarioSpec(case=case, params=params, epsilon=args.epsilon,
                               engine="both", targets=((1, 1),),
                               times=(1.5 * params.tau2,), numerics=numerics)
        print(f"[{case}] a1={params.a1:g} a2={params.a2:g} t=1.5*tau2={1.5 * params.tau2:g} "
              f"(regime: {ex.check_regime(params, args.epsilon).verdict})")
        reports[case] = ex.run_scenario(spec)
        for engine, run in sorted(reports[case].engines.items()):
            t = spec.eval_times[0]
            none_, right, left, both = run.histories[t]
            p11 = run.probabilities[t][(1, 1)]
            print(f"  {engine:6s}: P11={p11:.6e}  none={none_:.8f} "
                  f"right={right:.4e} left={left:.4e} both={both:.4e} "
                  f"[{run.wall_time:.0f}s]")

    coupling_power = (args.lambda0 / args.epsilon) ** 4
    t = max(reports["collinear"].engines["oracle"].probabilities)
    p_coll = reports["collinear"].engines["oracle"].probabilities[t][(1, 1)]
    p_opp = reports["opposite"].engines["oracle"].probabilities[t][(1, 1)]
    print()
    print(f"joint-excitation ratio opposite/collinear : {p_opp / p_coll:.3e}")
    print(f"measured prefactor P11/(lambda0/eps)^4    : {p_coll / coupling_power:.4f} "
          f"(collinear; order one)")
    single = reports["collinear"].engines["oracle"].probabilities[t][(1, 0)]
    print(f"measured prefactor P10/(lambda0/eps)^2    : "
          f"{single / (args.lambda0 / args.epsilon) ** 2:.4f} (order one)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

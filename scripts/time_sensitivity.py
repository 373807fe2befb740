#!/usr/bin/env python3
"""Sensitivity of the joint-excitation probability to the evaluation time.

The scaling statements hold "for t of order tau2" without a pinned constant;
this script tabulates P11(t) for t in [1.1, 3.0] tau2 with the perturbative
engine so the choice t = 1.5 tau2 used by the acceptance suite can be judged.

Usage:
    python scripts/time_sensitivity.py [--case collinear] [--points 9]
"""

from __future__ import annotations

import argparse

import numpy as np

import mott1d.experiments as ex
import mott1d.perturbation as pt
from mott1d.channels import form_factor_pair
from mott1d.core import suggest_grid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case", choices=["collinear", "opposite"], default="collinear")
    parser.add_argument("--epsilon", type=float, default=ex.ACCEPTANCE_EPSILON)
    parser.add_argument("--lambda0", type=float, default=ex.ACCEPTANCE_LAMBDA0)
    parser.add_argument("--points", type=int, default=9)
    parser.add_argument("--n-max", type=int, default=2)
    args = parser.parse_args()

    params = ex.default_params(args.case, epsilon=args.epsilon, lambda0=args.lambda0)
    factors = np.linspace(1.1, 3.0, args.points)
    t_max = float(factors[-1]) * params.tau2
    grid = suggest_grid(params, t_max)
    ff = form_factor_pair(params, grid, args.n_max)

    print(f"case={args.case} eps={args.epsilon} lambda0={args.lambda0} "
          f"tau2={params.tau2:g} grid n={grid.n_points}")
    print(f"{'t/tau2':>8s} {'P11':>14s} {'P10':>14s} {'P01':>14s}")
    values = []
    for factor in factors:
        t = float(factor) * params.tau2
        run = pt.converged_dyson_run(params, t, ff, grid, args.n_max)
        probs = run.probabilities()
        values.append(probs[(1, 1)])
        print(f"{factor:8.3f} {probs[(1, 1)]:14.6e} {probs[(1, 0)]:14.6e} {probs[(0, 1)]:14.6e}")
    values = np.asarray(values)
    print(f"\nP11 spread over the window: max/min = {values.max() / values.min():.4f}; "
          f"value at 1.5 tau2 sits {values[np.argmin(np.abs(factors - 1.5))] / values.mean():.4f} "
          f"of the window mean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Shared fixtures: a fast reduced-scale scenario family (epsilon = 0.2) for
module tests, the full default-scale runs the acceptance suite reuses, and
the frozen acceptance thresholds."""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

import mott1d as m
from mott1d import channels as ch

REDUCED_EPS = 0.2


@pytest.fixture(scope="session")
def reduced_collinear():
    return m.default_params("collinear", epsilon=REDUCED_EPS)


@pytest.fixture(scope="session")
def reduced_opposite():
    return m.default_params("opposite", epsilon=REDUCED_EPS)


@pytest.fixture(scope="session")
def reduced_grid(reduced_collinear):
    p = reduced_collinear
    return m.suggest_grid(p, 1.5 * p.tau2)


@pytest.fixture(scope="session")
def reduced_config():
    return ch.PropagatorConfig(n_max=2)


@pytest.fixture(scope="session")
def tables():
    """tables(params, grid, n_max, shape="gaussian"): the form-factor pair
    ``evolve`` needs, built once per session for each set of arguments
    (the coupling strength does not enter the tables)."""
    cache = {}

    def get(params, grid, n_max, shape="gaussian"):
        key = (replace(params, lam=0.0), grid, n_max, shape)
        if key not in cache:
            cache[key] = ch.form_factor_pair(params, grid, n_max, shape)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def reduced_splitting_order(reduced_collinear, reduced_grid, tables):
    """Richardson estimate of the oracle's order in its step, from the
    reduced collinear P11 at 1.5 tau2 for the steps (2h, h, h/2) about the
    default step h; every step divides 1.5 tau2."""
    p = reduced_collinear
    h = ch.PropagatorConfig().dt
    p11 = []
    for dt in (2.0 * h, h, 0.5 * h):
        state = ch.initialize_channels(p, reduced_grid, 2)
        final, _ = ch.evolve(state, p, ch.PropagatorConfig(dt=dt, n_max=2), 1.5 * p.tau2,
                             tables(p, reduced_grid, 2))
        p11.append(ch.channel_probabilities(final)[(1, 1)])
    coarse, mid, fine = p11
    return math.log2(abs(coarse - mid) / abs(mid - fine))


@pytest.fixture(scope="session")
def reduced_oracle_final(reduced_collinear, reduced_grid, reduced_config, tables):
    """Coupled-channel run of the reduced collinear scenario to 1.5 tau2."""
    p = reduced_collinear
    n_max = reduced_config.n_max
    state = ch.initialize_channels(p, reduced_grid, n_max)
    final, _ = ch.evolve(state, p, reduced_config, 1.5 * p.tau2, tables(p, reduced_grid, n_max))
    return final


@pytest.fixture(scope="session")
def thresholds():
    """Frozen acceptance thresholds, name -> value, from
    fixtures/thresholds.json (scripts/freeze_thresholds.py tells their
    provenance)."""
    entries = json.loads((Path(__file__).parent / "fixtures" / "thresholds.json").read_text())
    return {e["threshold_name"]: e["value"] for e in entries}


# --- full default-scale fixtures (built lazily; only the acceptance suite
# --- and the heaviest cross-checks pay for them)

from mott1d import experiments as ex


@pytest.fixture(scope="session")
def oracle_collinear_full():
    return m.run_scenario(ex.acceptance_scenario("collinear", "oracle"),
                          keep_oracle_states=True)


@pytest.fixture(scope="session")
def oracle_opposite_full():
    return m.run_scenario(ex.acceptance_scenario("opposite", "oracle"),
                          keep_oracle_states=True)


def _pt_spec(case: str) -> m.ScenarioSpec:
    # the PT engine is only consulted at the headline time 1.5 tau2; the
    # 1.5 tau1 snapshot exists for the oracle-side localization criterion
    spec = ex.acceptance_scenario(case, "pt")
    return replace(spec, times=(max(spec.eval_times),))


@pytest.fixture(scope="session")
def pt_collinear_full():
    return m.run_scenario(_pt_spec("collinear"))


@pytest.fixture(scope="session")
def pt_opposite_full():
    return m.run_scenario(_pt_spec("opposite"))

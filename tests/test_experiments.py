"""Regime verdicts, scenario harness, scaling fits and localization."""

import json
from dataclasses import replace

import numpy as np
import pytest

import mott1d as m
import mott1d.channels as ch
import mott1d.experiments as ex
import mott1d.perturbation as pt
from mott1d.core import ComplexField, history_sums
from oracles import born_probability, mirror, mirrored


# ---------------------------------------------------------------------------
# regime


def test_regime_defaults_valid():
    params = ex.default_params("collinear", epsilon=0.1, lambda0=1e-3)
    report = ex.check_regime(params, 0.1)
    assert report.verdict == "valid"
    assert all(c["verdict"] == "ok" for c in report.checks.values())


def test_regime_large_coupling_invalid():
    params = ex.default_params("collinear", epsilon=0.1, lambda0=0.5)
    assert ex.check_regime(params, 0.1).verdict == "invalid"


def test_regime_heavy_oscillator_invalid():
    params = replace(ex.default_params("collinear", epsilon=0.1), m=1.0)  # m/M = 1
    assert ex.check_regime(params, 0.1).verdict == "invalid"


def test_regime_marginal_band():
    # sigma at 3 eps |a1|: beyond the ok bound (2 eps) but below invalid (5 eps)
    base = ex.default_params("collinear", epsilon=0.1)
    params = replace(base, sigma=3.0 * 0.1 * base.a1)
    assert ex.check_regime(params, 0.1).verdict == "marginal"


def test_default_params_geometries():
    coll = ex.default_params("collinear", epsilon=0.1)
    opp = ex.default_params("opposite", epsilon=0.1)
    assert 0 < coll.a1 < coll.a2
    assert opp.a2 < 0 < opp.a1
    with pytest.raises(ValueError):
        ex.default_params("diagonal")
    with pytest.raises(ValueError):
        ex.default_params("collinear", epsilon=1.5)


# ---------------------------------------------------------------------------
# scenario validation


def test_scenario_geometry_tag_checked():
    coll = ex.default_params("collinear")
    with pytest.raises(ValueError):
        ex.ScenarioSpec(case="opposite", params=coll)
    with pytest.raises(ValueError):
        ex.ScenarioSpec(case="sideways", params=coll)
    with pytest.raises(ValueError):
        ex.ScenarioSpec(case="collinear", params=coll, engine="exact")
    with pytest.raises(ValueError):
        ex.ScenarioSpec(case="collinear", params=coll, targets=((0, 0),))
    # a sweep would fit the first of no targets
    with pytest.raises(ValueError, match="targets must not be empty"):
        ex.ScenarioSpec(case="collinear", params=coll, targets=())
    # None asks for the default time; an empty tuple asks for none
    with pytest.raises(ValueError, match="times must not be empty"):
        ex.ScenarioSpec(case="collinear", params=coll, times=())
    with pytest.raises(ValueError, match="potential_shape 'box' unknown"):
        ex.NumericSettings(potential_shape="box")


def test_scenario_default_time():
    p = ex.default_params("collinear")
    spec = ex.ScenarioSpec(case="collinear", params=p)
    assert spec.eval_times == (1.5 * p.tau2,)


# ---------------------------------------------------------------------------
# run_scenario


def _reduced_spec(case: str, engine: str, epsilon: float = 0.2, lambda0: float = 1e-3,
                  n_max: int = 2, shape: str = "gaussian") -> ex.ScenarioSpec:
    params = ex.default_params(case, epsilon=epsilon, lambda0=lambda0)
    return ex.ScenarioSpec(case=case, params=params, epsilon=epsilon, engine=engine,
                           numerics=ex.NumericSettings(n_max=n_max, potential_shape=shape))


def test_run_scenario_zero_coupling():
    spec = _reduced_spec("collinear", "both", lambda0=0.0)
    report = ex.run_scenario(spec)
    for run in report.engines.values():
        for pmap in run.probabilities.values():
            assert all(p == 0.0 for key, p in pmap.items() if key != (0, 0))


def test_run_scenario_engines_agree():
    spec = _reduced_spec("collinear", "both")
    report = ex.run_scenario(spec)
    lambda0 = spec.params.lam / (spec.params.M * spec.params.v0 ** 2)
    p_pt = report.probability("pt", (1, 1))
    p_orc = report.probability("oracle", (1, 1))
    assert abs(p_pt - p_orc) / p_orc <= 5.0 * lambda0
    t = spec.eval_times[0]
    hist_pt = report.engines["pt"].histories[t]
    hist_orc = report.engines["oracle"].histories[t]
    for a, b in zip(hist_pt, hist_orc):
        assert a == pytest.approx(b, rel=5e-3, abs=1e-12)


def test_run_scenario_bump_potential():
    # the compact bump's form factors need quadrature on its support.  PT
    # omits corrections of relative order lambda0 whose coefficient depends
    # on the profile: about 2 for the Gaussian and 5 for the bump here
    spec = _reduced_spec("collinear", "both", shape="bump")
    report = ex.run_scenario(spec)
    lambda0 = spec.params.lam / (spec.params.M * spec.params.v0 ** 2)
    p_pt = report.probability("pt", (1, 1))
    p_orc = report.probability("oracle", (1, 1))
    assert p_orc > 0.0
    assert abs(p_pt - p_orc) / p_orc <= 10.0 * lambda0
    for run in report.engines.values():
        assert sum(run.histories[spec.eval_times[0]]) == pytest.approx(1.0, abs=1e-8)


def test_run_scenario_attaches_regime_flag():
    spec = _reduced_spec("collinear", "pt", lambda0=0.15)  # out of regime, still runs
    report = ex.run_scenario(spec)
    assert report.regime.verdict == "invalid"
    assert report.engines["pt"].probabilities


def test_report_to_dict_is_deterministic():
    spec = _reduced_spec("collinear", "pt")
    d1 = ex.run_scenario(spec).to_dict()
    d2 = ex.run_scenario(spec).to_dict()
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    blob = json.dumps(d1)
    assert "wall" not in blob


def test_run_scenario_error_carries_context():
    spec = _reduced_spec("collinear", "oracle", lambda0=0.05, n_max=1)
    probe = replace(spec, numerics=replace(spec.numerics, top_shell_threshold=1e-12))
    with pytest.raises(ch.TruncationError, match="scenario case=collinear"):
        ex.run_scenario(probe)


class _TwoArgumentError(RuntimeError):
    def __init__(self, what: str, where: float) -> None:
        super().__init__(f"{what} at t={where}")
        self.where = where


def test_run_scenario_keeps_error_object(monkeypatch):
    def fail(spec, grid, form_factors):
        raise _TwoArgumentError("breach", 3.2)

    monkeypatch.setattr(ex, "_run_oracle", fail)
    with pytest.raises(_TwoArgumentError, match="scenario case=collinear") as info:
        ex.run_scenario(_reduced_spec("collinear", "oracle"))
    assert info.value.where == 3.2
    assert info.traceback[-1].name == "fail"


def test_run_scenario_builds_one_table_pair(monkeypatch):
    # both engines read the same tables
    built = []
    build = ch.build_form_factors
    monkeypatch.setattr(ch, "build_form_factors",
                        lambda *a, **k: built.append(a) or build(*a, **k))
    report = ex.run_scenario(_reduced_spec("collinear", "both"))
    assert set(report.engines) == {"pt", "oracle"}
    assert len(built) == 2


def test_run_scenario_records_escalations():
    spec = _reduced_spec("collinear", "oracle", lambda0=0.05, n_max=1)
    conv = ex.run_scenario(spec).engines["oracle"].convergence
    attempts = conv["escalations"]
    assert [a["n_max"] for a in attempts] == list(range(1, conv["n_max"], 2))
    assert len(attempts) >= 1
    t_final = max(spec.eval_times)
    for a in attempts:
        assert 0.0 < a["t"] < t_final
        assert a["top_shell_norm"] > spec.numerics.top_shell_threshold
    assert conv["top_shell_norm"] <= spec.numerics.top_shell_threshold
    assert json.loads(json.dumps(attempts)) == attempts


def test_run_scenario_records_pt_halving():
    spec = _reduced_spec("collinear", "pt")
    p = spec.params
    # 0.25 divides both times, so every pass's step is exactly half the last
    spec = replace(spec, times=(1.5 * p.tau1, 1.5 * p.tau2),
                   numerics=replace(spec.numerics, dt_duhamel=0.25))
    conv = ex.run_scenario(spec).engines["pt"].convergence
    halving = conv["halving"]
    assert [h["t"] for h in halving] == sorted(h["t"] for h in halving)
    accepted = []
    for t in spec.eval_times:
        passes = [h for h in halving if h["t"] == t]
        accepted.append(passes[-1]["rel_change"])
        assert len(passes) >= 2
        assert passes[0]["dt"] == pytest.approx(0.25, rel=1e-12)
        assert passes[0]["rel_change"] is None and passes[0]["obs_change"] is None
        for prev, cur in zip(passes, passes[1:]):
            assert cur["dt"] == pytest.approx(prev["dt"] / 2.0, rel=1e-12)
            assert cur["rel_change"] >= cur["obs_change"] >= 0.0
        assert passes[-1]["rel_change"] <= spec.numerics.pt_rtol
        assert all(h["rel_change"] > spec.numerics.pt_rtol for h in passes[1:-1])
    assert halving[-1]["dt"] == conv["dt"]
    assert conv["halving_rel_change"] == max(accepted)
    assert json.loads(json.dumps(halving)) == halving


def test_run_scenario_oracle_lands_on_off_grid_time():
    spec = _reduced_spec("collinear", "oracle")
    t_final = 1.5 * spec.params.tau2
    off_grid = 37.53  # no multiple of dt_oracle = 0.5
    spec = replace(spec, times=(off_grid, t_final))
    report = ex.run_scenario(spec, keep_oracle_states=True)
    run = report.engines["oracle"]
    assert {t: s.t for t, s in report.oracle_states.items()} == {off_grid: off_grid,
                                                                   t_final: t_final}
    assert set(run.probabilities) == {off_grid, t_final}
    assert "eval_times" not in run.convergence


@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_both_engines_evaluate_at_the_requested_times(order):
    # at epsilon = 0.3, 1.5 tau1 lies half a step from the nearest boundary
    # of equal oracle steps over the whole run: both engines land on it, and
    # report the times in the order they were requested
    spec = _reduced_spec("collinear", "both", epsilon=0.3)
    p = spec.params
    times = (1.5 * p.tau1, 1.5 * p.tau2)
    if order == "unsorted":
        times = times[::-1]
    report = ex.run_scenario(replace(spec, times=times), keep_oracle_states=True)
    assert [s.t for s in report.oracle_states.values()] == list(times)
    for run in report.engines.values():
        assert list(run.probabilities) == list(times)


@pytest.mark.parametrize("on_grid", [False, True], ids=["off-grid", "on-grid"])
def test_oracle_records_the_steps_it_took(on_grid):
    # convergence.segments holds the step evolve took to each requested
    # time: below dt_oracle when the time is off its grid, dt_oracle on it
    spec = _reduced_spec("collinear", "oracle", epsilon=0.3)
    p = spec.params
    times = (16.0, 34.0) if on_grid else (1.5 * p.tau1, 1.5 * p.tau2)
    conv = ex.run_scenario(replace(spec, times=times)).engines["oracle"].convergence
    dt_oracle = spec.numerics.dt_oracle
    assert conv["dt"] == dt_oracle
    assert [s["t"] for s in conv["segments"]] == list(times)
    for start, segment in zip((0.0, *times), conv["segments"]):
        if on_grid:
            assert segment["dt"] == dt_oracle
        else:
            assert segment["dt"] < dt_oracle
        assert segment["steps"] * segment["dt"] == pytest.approx(segment["t"] - start,
                                                                 rel=1e-12)
    assert json.loads(json.dumps(conv["segments"])) == conv["segments"]


def test_oracle_records_its_window():
    # convergence.window: the window's points on the sampled grid, the
    # squared norm carried in k-space at the end and the largest outer-band
    # squared norm before a carry; json-ready and the same on a rerun
    spec = _reduced_spec("collinear", "oracle")
    spec = replace(spec, times=(1.5 * spec.params.tau2,))
    runs = [ex.run_scenario(spec).engines["oracle"].convergence for _ in range(2)]
    window = runs[0]["window"]
    assert set(window) == {"points", "carried_norm", "band_norm_max"}
    assert 0 < window["points"] < runs[0]["points"]
    assert 0.0 < window["band_norm_max"] < window["carried_norm"] < 1.0
    assert json.loads(json.dumps(window)) == window == runs[1]["window"]


@pytest.mark.parametrize("engine", ["oracle", "pt"])
def test_engine_records_its_points(engine):
    # convergence.points: the points the engine stepped on, the coarsest
    # sampling of the box that holds the band; here half the grid's,
    # json-ready and the same on a rerun
    spec = _reduced_spec("collinear", engine)
    spec = replace(spec, times=(1.5 * spec.params.tau2,))
    runs = [ex.run_scenario(spec).engines[engine].convergence["points"] for _ in range(2)]
    assert runs[0] == runs[1] == spec.grid().n_points // 2
    assert json.loads(json.dumps(runs[0])) == runs[0]


def test_run_scenario_keeps_escalated_snapshots():
    # every kept state comes from the attempt that passed, and the last
    # requested time lands on t_final itself
    spec = _reduced_spec("collinear", "oracle", lambda0=0.05, n_max=1)
    t_final = 1.5 * spec.params.tau2
    spec = replace(spec, times=(1.5 * spec.params.tau1, t_final))
    report = ex.run_scenario(spec, keep_oracle_states=True)
    conv = report.engines["oracle"].convergence
    assert conv["escalations"]
    assert list(report.oracle_states) == list(spec.eval_times)
    assert {s.n_max for s in report.oracle_states.values()} == {conv["n_max"]}
    assert [s.t for s in report.oracle_states.values()] == list(spec.eval_times)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_validation():
    spec = _reduced_spec("collinear", "pt")
    with pytest.raises(ValueError, match=">= 4"):
        ex.sweep_lambda(spec, [1e-4, 3e-4, 1e-3])
    with pytest.raises(ValueError, match="decade"):
        ex.sweep_lambda(spec, [1e-4, 1.5e-4, 2e-4, 3e-4])
    with pytest.raises(ValueError, match="regime"):
        ex.sweep_lambda(spec, [1e-3, 3e-3, 1e-2, 0.4])


def test_sweep_pt_second_order_slope_four():
    spec = _reduced_spec("collinear", "pt", n_max=1)
    fit = ex.sweep_lambda(spec, [1e-4, 2.5e-4, 5e-4, 1e-3], target=(1, 1))
    assert abs(fit.slope - 4.0) <= 1e-10
    assert fit.residual_max <= 0.02
    assert fit.slope_halfwidth < 1e-8


def test_sweep_pt_first_order_slope_two():
    spec = _reduced_spec("collinear", "pt", n_max=1)
    fit = ex.sweep_lambda(spec, [1e-4, 2.5e-4, 5e-4, 1e-3], target=(1, 0))
    assert abs(fit.slope - 2.0) <= 1e-10
    assert fit.residual_max <= 0.02


def test_sweep_oracle_escalates_like_run():
    # n_max = 1 holds lambda0 = 1e-4 only; the larger values escalate to 3 and 5
    spec = _reduced_spec("collinear", "oracle", n_max=1)
    fit = ex.sweep_lambda(spec, [1e-4, 1e-3, 1e-2, 5e-2], target=(1, 0))
    strong = replace(spec, params=replace(spec.params, lam=5e-2))
    run = ex.run_scenario(strong).engines["oracle"]
    assert [a["n_max"] for a in run.convergence["escalations"]] == [1, 3]
    assert fit.probabilities[-1] == pytest.approx(run.probabilities[max(spec.eval_times)][(1, 0)],
                                                  rel=1e-9)


def test_sweep_hits_numerical_floor():
    spec = _reduced_spec("collinear", "pt", n_max=1)
    with pytest.raises(RuntimeError, match="floor"):
        ex.sweep_lambda(spec, [1e-90, 3e-90, 8e-90, 1e-89], target=(1, 1))


# ---------------------------------------------------------------------------
# localization


def _localization(spec: ex.ScenarioSpec, t_eval: float) -> ex.LocalizationReport:
    """Localization of the oracle state at t_eval."""
    report = ex.run_scenario(replace(spec, times=(t_eval,)), keep_oracle_states=True)
    return ex.localization_from_state(report.oracle_states[t_eval], spec.params)


def test_localization_collinear(reduced_collinear):
    spec = ex.ScenarioSpec(case="collinear", params=reduced_collinear, epsilon=0.2,
                           engine="oracle",
                           numerics=ex.NumericSettings(n_max=2))
    report = _localization(spec, 1.5 * reduced_collinear.tau1)
    entry = report.entry((1, 0))
    assert entry.defined
    assert entry.side == "right"
    assert entry.mass_same_side >= 0.99


def test_localization_zero_coupling_undefined(reduced_collinear):
    p = replace(reduced_collinear, lam=0.0)
    spec = ex.ScenarioSpec(case="collinear", params=p, epsilon=0.2, engine="oracle",
                           numerics=ex.NumericSettings(n_max=1))
    report = _localization(spec, 1.5 * p.tau1)
    assert all(not e.defined for e in report.entries)
    assert all(e.mass_same_side is None for e in report.entries)


def test_elastic_channel_parity(reduced_collinear, reduced_grid, reduced_oracle_final, tables):
    # decoupled: the even initial state stays even to rounding; with coupling
    # the right-side oscillators imprint an O(lambda0) asymmetry, no more
    p0 = replace(reduced_collinear, lam=0.0)
    state = ch.initialize_channels(p0, reduced_grid, 1)
    states, _ = ch.evolve(state, p0, ch.PropagatorConfig(n_max=1), 1.5 * p0.tau2,
                          tables(p0, reduced_grid, 1))
    rho = np.abs(states[1.5 * p0.tau2].amplitudes[0, 0]) ** 2
    assert np.max(np.abs(rho - mirror(rho))) <= 1e-9

    rho_coupled = np.abs(reduced_oracle_final.amplitudes[0, 0]) ** 2
    asym = np.max(np.abs(rho_coupled - mirror(rho_coupled)))
    assert 0.0 < asym <= 1e-3


def test_localization_opposite_sides(reduced_opposite):
    # in the opposite geometry channel (0,1) localizes on the left
    spec = ex.ScenarioSpec(case="opposite", params=reduced_opposite, epsilon=0.2,
                           engine="oracle",
                           numerics=ex.NumericSettings(n_max=2))
    report = _localization(spec, 1.5 * reduced_opposite.tau2)
    right = report.entry((1, 0))
    left = report.entry((0, 1))
    assert right.side == "right" and right.mass_same_side >= 0.99
    assert left.side == "left" and left.mass_same_side >= 0.99


# (case, lambda0, reflected about the origin, sides of (n, 0) and (0, n))
LOCALIZATION_ROWS = {
    "collinear-1e-3": ("collinear", 1e-3, False, ("right", "right")),
    "collinear-0.05": ("collinear", 0.05, False, ("right", "right")),
    "opposite-1e-3": ("opposite", 1e-3, False, ("right", "left")),
    "opposite-0.05": ("opposite", 0.05, False, ("right", "left")),
    # a1 < 0: oscillator 1, and so channel (1, 0), on the left
    "collinear-1e-3-mirrored": ("collinear", 1e-3, True, ("left", "left")),
}


@pytest.fixture(scope="module", params=list(LOCALIZATION_ROWS), ids=list(LOCALIZATION_ROWS))
def localization_runs(request):
    """(row, params, engine -> t -> state): both engines' states at 1.5 tau1
    and 1.5 tau2 at epsilon 0.2 and n_max 2 (the oracle escalates as a
    scenario run does)."""
    case, lambda0, reflected, _ = LOCALIZATION_ROWS[request.param]
    p = ex.default_params(case, epsilon=0.2, lambda0=lambda0)
    p = mirrored(p) if reflected else p
    times = (1.5 * p.tau1, 1.5 * p.tau2)
    grid = m.suggest_grid(p, times[-1])
    assert grid.n_points == 2048
    ff = ch.form_factor_pair(p, grid, 2)
    num = ex.NumericSettings(n_max=2)
    oracle, _ = ch.evolve_with_escalation(p, grid, ff, num.n_max, num.dt_oracle, times,
                                          num.top_shell_threshold)
    dyson, _ = pt.converged_dyson_run(p, grid, ff, num.n_max, num.dt_duhamel, times, num.pt_rtol)
    return LOCALIZATION_ROWS[request.param], p, {"oracle": oracle, "pt": dyson}


def test_localization_is_the_born_mass_of_the_conditional_state(localization_runs):
    # the masked sum against the cell-overlap quadrature of the normalized
    # channel on the half-line; the quadrature gives the edge cell at x_min
    # half weight, which a state held away from the grid's edge never feels
    (_, _, _, sides), params, runs = localization_runs
    for states in runs.values():
        for state in states.values():
            grid = state.grid
            report = ex.localization_from_state(state, params)
            assert len(report.entries) == 2 * state.n_max
            for entry in report.entries:
                assert entry.side == (sides[0] if entry.channel[1] == 0 else sides[1])
                assert entry.defined
                conditional = ComplexField(grid, state.amplitudes[entry.channel]).normalized()
                half = (0.0, grid.x_max) if entry.side == "right" else (grid.x_min, 0.0)
                assert abs(entry.mass_same_side
                           - born_probability(conditional, [half])) <= 1e-12, entry


def test_pt_localization_deficit_matches_the_oracle(localization_runs):
    # the (1, 0) wrong-side deficit 1 - mass, from PT's states and the
    # oracle's, within 2.2 lambda0 relative: the constant measured for the
    # engines' probability gap with the Gaussian potential
    (_, lambda0, _, _), params, runs = localization_runs
    for t in runs["oracle"]:
        deficit = {engine: 1.0 - ex.localization_from_state(states[t], params)
                   .entry((1, 0)).mass_same_side for engine, states in runs.items()}
        assert abs(deficit["pt"] - deficit["oracle"]) <= 2.2 * lambda0 * deficit["oracle"], t


# ---------------------------------------------------------------------------
# monotone suppression


def test_joint_history_ordering_between_cases():
    # the opposite-side joint excitation sits far below the same-side one
    out = {}
    for case in ("opposite", "collinear"):
        params = ex.default_params(case, epsilon=0.2)
        t = 1.5 * params.tau2
        grid = m.suggest_grid(params, t)
        states, _ = pt.converged_dyson_run(params, grid, ch.form_factor_pair(params, grid, 1), 1,
                                           None, (t,), 1e-3)
        out[case] = history_sums(ch.channel_probabilities(states[t]))["both"]
    assert out["opposite"] < 1e-3 * out["collinear"]


def test_joint_probability_shrinks_with_packet_separation():
    # opposite case: increasing P0 sigma/hbar (= 1/eps here) separates the
    # branches and suppresses the joint excitation
    p_both = []
    for eps in (0.35, 0.3, 0.25):
        params = ex.default_params("opposite", epsilon=eps)
        t = 1.5 * params.tau2
        grid = m.suggest_grid(params, t)
        states, _ = pt.converged_dyson_run(params, grid, ch.form_factor_pair(params, grid, 1), 1,
                                           None, (t,), 1e-3)
        p_both.append(history_sums(ch.channel_probabilities(states[t]))["both"])
    assert p_both[0] > p_both[1] > p_both[2] > 0.0

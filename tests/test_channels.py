"""Form factors, channel states and the split-step coupled-channel propagator."""

import gc
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mott1d.channels as ch
import mott1d.experiments as ex
from mott1d.core import (
    ModelParams,
    NormDriftError,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    suggest_grid,
)
from oracles import free_two_packet, gaussian_form_factor_00, mirror, reference_channel_evolve


# ---------------------------------------------------------------------------
# potential profiles


def profile(x, shape="gaussian"):
    """V(x) of ``shape`` at the scalar x."""
    return ch.POTENTIAL_SHAPES[shape](np.array([x]))[0]


def test_potential_peak_value():
    assert profile(0.0) == 1.0


@settings(max_examples=30, deadline=None)
@given(x=st.floats(-10.0, 10.0), shape=st.sampled_from(["gaussian", "bump"]))
def test_potential_even(x, shape):
    assert profile(x, shape) == profile(-x, shape)


def test_potential_gaussian_tail():
    assert profile(8.0) < 1e-13


def test_potential_bump_compact_support():
    assert profile(0.0, "bump") == 1.0
    assert profile(1.0, "bump") == 0.0
    assert profile(-1.5, "bump") == 0.0
    assert 0.0 < profile(0.9, "bump") < 1.0


def test_potential_unknown_shape(ff_setup):
    params, grid, basis, _ = ff_setup
    with pytest.raises(ValueError):
        ch.build_form_factors(params, basis, grid, shape="square-well")


# ---------------------------------------------------------------------------
# form factors


@pytest.fixture(scope="module")
def ff_setup():
    params = ModelParams(M=1.0, m=0.2, omega=0.2, lam=1e-3, delta=5.0, sigma=5.0,
                         P0=1.0, a1=16.0, a2=-32.0)
    grid = SpatialGrid.symmetric(256.0, 2048)  # dx = 0.25, a1 = 16 on the grid
    basis = OscillatorBasis.for_oscillator(params, 1, 4)
    table = ch.build_form_factors(params, basis, grid)
    return params, grid, basis, table


def test_form_factor_ground_state_matches_closed_form(ff_setup):
    params, grid, basis, table = ff_setup
    expected = gaussian_form_factor_00(grid.points, basis.a, params.delta, basis.length)
    assert np.max(np.abs(table.values[0, 0] - expected)) <= 1e-10


def test_form_factor_parity_zero_at_center(ff_setup):
    params, grid, basis, table = ff_setup
    j_center = int(round((basis.a - grid.x_min) / grid.dx))
    assert grid.points[j_center] == basis.a
    assert abs(table.values[0, 1, j_center]) <= 1e-13
    assert abs(table.values[2, 1, j_center]) <= 1e-13


def test_form_factor_symmetric_exactly(ff_setup):
    _, _, _, table = ff_setup
    np.testing.assert_array_equal(table.values, table.values.transpose(1, 0, 2))


def test_form_factor_decay_far_from_center(ff_setup):
    params, grid, basis, table = ff_setup
    reach = 10.0 * max(params.delta, basis.length)
    far = np.abs(grid.points - basis.a) >= reach
    assert np.max(np.abs(table.values[:, :, far])) < 1e-10


def test_form_factor_against_dense_quadrature(ff_setup):
    # independent check of an off-diagonal element by brute-force quadrature
    params, grid, basis, gaussian = ff_setup
    r = np.linspace(basis.a - 60.0, basis.a + 60.0, 20001)
    dr = r[1] - r[0]
    phi = basis.eigenfunctions(r)
    bump = ch.build_form_factors(params, basis, grid, shape="bump")
    for table in (gaussian, bump):
        for j in (grid.n_points // 2 + 80, grid.n_points // 2 + 60):
            x = grid.points[j]
            v = ch.POTENTIAL_SHAPES[table.shape]((x - r) / params.delta)
            for (n, k) in [(1, 2), (0, 3), (2, 2)]:
                brute = float(np.sum(phi[n] * phi[k] * v) * dr)
                assert table.values[n, k, j] == pytest.approx(brute, abs=1e-9), table.shape


def test_form_factor_quadrature_budget_error(ff_setup, monkeypatch):
    params, grid, basis, _ = ff_setup
    monkeypatch.setattr(ch, "QUAD_TOL", 1e-16)
    monkeypatch.setattr(ch, "QUAD_MAX_NODES", 32)
    with pytest.raises(QuadratureError):
        ch.build_form_factors(params, basis, grid)


# ---------------------------------------------------------------------------
# channel state


def test_initialize_channels(reduced_collinear, reduced_grid):
    state = ch.initialize_channels(reduced_collinear, reduced_grid, 2)
    assert abs(state.norm() - 1.0) <= 1e-12
    assert np.all(state.amplitudes[1:, :, :] == 0.0)
    assert np.all(state.amplitudes[0, 1:, :] == 0.0)
    f00 = state.amplitudes[0, 0]
    assert np.max(np.abs(f00 - mirror(f00))) <= 1e-12


def test_initial_probabilities(reduced_collinear, reduced_grid):
    state = ch.initialize_channels(reduced_collinear, reduced_grid, 2)
    probs = ch.channel_probabilities(state)
    assert probs[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    assert all(p == 0.0 for key, p in probs.items() if key != (0, 0))


def test_probabilities_sum_to_norm(reduced_oracle_final):
    probs = ch.channel_probabilities(reduced_oracle_final)
    assert sum(probs.values()) == pytest.approx(reduced_oracle_final.norm() ** 2, abs=1e-10)


# ---------------------------------------------------------------------------
# propagator


def test_free_evolution_matches_analytic(reduced_collinear, reduced_grid, tables):
    p = replace(reduced_collinear, lam=0.0)
    config = ch.PropagatorConfig(n_max=1)
    state = ch.initialize_channels(p, reduced_grid, 1)
    final, _ = ch.evolve(state, p, config, p.tau2, tables(p, reduced_grid, 1))
    probs = ch.channel_probabilities(final)
    assert probs[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    exact = free_two_packet(reduced_grid.points, p.tau2, p.sigma, p.P0, p.hbar, p.M)
    assert np.max(np.abs(np.abs(final.amplitudes[0, 0]) - np.abs(exact))) <= 1e-8


def test_single_step_norm_preserving(reduced_collinear, reduced_grid, tables):
    config = ch.PropagatorConfig(dt=0.1, n_max=2)
    state = ch.initialize_channels(reduced_collinear, reduced_grid, 2)
    stepped, _ = ch.evolve(state, reduced_collinear, config, 0.1,
                           tables(reduced_collinear, reduced_grid, 2))
    assert abs(stepped.norm() - 1.0) <= 1e-12


def test_norm_drift_full_run(reduced_oracle_final):
    assert abs(reduced_oracle_final.norm() - 1.0) <= 1e-8


def test_top_shell_is_healthy(reduced_oracle_final):
    assert reduced_oracle_final.top_shell_norm() < 1e-6


def test_mirrored_run_has_identical_probabilities(reduced_opposite, reduced_grid,
                                                  reduced_config, tables):
    p = reduced_opposite
    t_final = 1.5 * p.tau2
    n_max = reduced_config.n_max
    runs = {}
    for tag, params in (("base", p), ("mirrored", p.mirrored())):
        state = ch.initialize_channels(params, reduced_grid, n_max)
        final, _ = ch.evolve(state, params, reduced_config, t_final,
                             tables(params, reduced_grid, n_max))
        runs[tag] = ch.channel_probabilities(final)
    for key in runs["base"]:
        assert runs["base"][key] == pytest.approx(runs["mirrored"][key], abs=1e-9)


def test_evolve_is_deterministic(reduced_collinear, reduced_grid, reduced_config,
                                 reduced_oracle_final, tables):
    p, n_max = reduced_collinear, reduced_config.n_max
    state = ch.initialize_channels(p, reduced_grid, n_max)
    again, _ = ch.evolve(state, p, reduced_config, 1.5 * p.tau2, tables(p, reduced_grid, n_max))
    np.testing.assert_array_equal(again.amplitudes, reduced_oracle_final.amplitudes)


def test_snapshot_equals_direct_run(reduced_collinear, reduced_grid, reduced_config, tables):
    p = reduced_collinear
    t_mid, t_final = 0.75 * p.tau2, 1.5 * p.tau2
    ff = tables(p, reduced_grid, reduced_config.n_max)
    state = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
    final, seen = ch.evolve(state, p, reduced_config, t_final, ff,
                            snapshot_times=[t_mid, t_final])
    # a snapshot on the last step is the final state itself, not a copy
    assert seen[t_final] is final and final.t == t_final
    snap = seen[t_mid]
    state2 = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
    direct, _ = ch.evolve(state2, p, reduced_config, t_mid, ff)
    assert snap.t == t_mid
    np.testing.assert_allclose(snap.amplitudes, direct.amplitudes, rtol=0, atol=1e-12)


def test_off_grid_snapshot_lands_on_its_time(reduced_collinear, reduced_grid, reduced_config,
                                             tables):
    # 37.53 is no multiple of the run's step: the snapshot is taken at
    # 37.53 itself, after the fewest steps no longer than dt that reach it
    p = reduced_collinear
    t_mid, t_final = 37.53, 1.5 * p.tau2
    ff = tables(p, reduced_grid, reduced_config.n_max)
    state = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
    final, seen = ch.evolve(state, p, reduced_config, t_final, ff, snapshot_times=[t_mid])
    direct, _ = ch.evolve(state, p, reduced_config, t_mid, ff)
    assert seen[t_mid].t == t_mid == direct.t and final.t == t_final
    np.testing.assert_allclose(seen[t_mid].amplitudes, direct.amplitudes, rtol=0, atol=1e-12)


@pytest.mark.parametrize("hbar", [1.0, 0.5])
@pytest.mark.parametrize("lambda0", [1e-3, 0.05])
@pytest.mark.parametrize("n_max", [1, 3])
@pytest.mark.parametrize("case", ["collinear", "opposite"])
def test_evolve_matches_reference_kernel(case, n_max, lambda0, hbar):
    # the per-oscillator factors with the energies on the kinetic step are
    # the same operator as one joint channel exponential per point; hbar
    # enters the energy phases that moved, so it is varied too
    p = replace(ex.default_params(case, epsilon=0.2, lambda0=lambda0), hbar=hbar)
    t_mid, t_final = 0.75 * p.tau2, 1.5 * p.tau2
    grid = suggest_grid(p, t_final)
    # lambda0 = 0.05 overfills the top shell at n_max = 1; the comparison
    # only needs both kernels to run to the end
    config = ch.PropagatorConfig(dt=0.75, n_max=n_max, top_shell_threshold=1.0)
    ff = ch.form_factor_pair(p, grid, n_max)
    state = ch.initialize_channels(p, grid, n_max)
    final, seen = ch.evolve(state, p, config, t_final, ff, snapshot_times=[t_mid])
    [snap] = seen.values()
    energies = [OscillatorBasis.for_oscillator(p, i, n_max).energies for i in (1, 2)]
    ref = reference_channel_evolve(state.amplitudes, ff[0].values, ff[1].values, *energies,
                                   grid.dx, t_final, config.dt, p.lam, p.hbar, p.M,
                                   ch.COUPLING_ERROR_BUDGET, snapshot_times=(t_mid,))
    assert [snap.t] == list(ref["snapshots"])
    np.testing.assert_allclose(snap.amplitudes, ref["snapshots"][snap.t], rtol=0, atol=1e-12)
    np.testing.assert_allclose(final.amplitudes, ref["final"], rtol=0, atol=1e-12)


def test_composed_step_is_fourth_order(reduced_splitting_order):
    # a wrong stage weight would leave a second-order scheme, which reads
    # about 2
    assert reduced_splitting_order >= 3.8


@pytest.mark.parametrize("case", ["collinear", "opposite"])
def test_default_step_at_least_as_accurate_as_strang(case, reduced_grid, request):
    # at 1.5 tau1 and 1.5 tau2, the default composed step puts the worst
    # channel and P11 no farther from a run at a quarter of that step than
    # the plain Strang split at dt = 0.1 (the reference kernel with one
    # stage per step) puts them
    p = request.getfixturevalue(f"reduced_{case}")
    n_max = 2
    times = (1.5 * p.tau1, 1.5 * p.tau2)
    ff = ch.form_factor_pair(p, reduced_grid, n_max)
    start = ch.initialize_channels(p, reduced_grid, n_max)

    def composed(dt):
        _, seen = ch.evolve(start, p, ch.PropagatorConfig(dt=dt, n_max=n_max), times[-1], ff,
                            snapshot_times=times)
        return [seen[t].amplitudes for t in times]

    energies = [OscillatorBasis.for_oscillator(p, i, n_max).energies for i in (1, 2)]
    strang = reference_channel_evolve(start.amplitudes, ff[0].values, ff[1].values, *energies,
                                      reduced_grid.dx, times[-1], 0.1, p.lam, p.hbar, p.M,
                                      ch.COUPLING_ERROR_BUDGET, snapshot_times=times,
                                      weights=(1.0,))["snapshots"]
    h = ch.PropagatorConfig().dt
    fine = composed(h / 4.0)

    def errors(states):
        """(worst channel, P11) relative error over both times."""
        rel = np.array([np.abs(np.sum(np.abs(a) ** 2 - np.abs(r) ** 2, axis=-1))
                        / np.sum(np.abs(r) ** 2, axis=-1) for a, r in zip(states, fine)])
        return rel.max(), rel[:, 1, 1].max()

    worst, p11 = errors(composed(h))
    worst_strang, p11_strang = errors([strang[t] for t in sorted(strang)])
    assert worst <= worst_strang
    assert p11 <= p11_strang


def test_evolve_uses_leading_block_of_larger_tables(reduced_collinear, reduced_grid,
                                                     reduced_config):
    p = reduced_collinear
    n_max = reduced_config.n_max
    state = ch.initialize_channels(p, reduced_grid, n_max)
    runs = [ch.evolve(state, p, reduced_config, p.tau1,
                      ch.form_factor_pair(p, reduced_grid, n))[0]
            for n in (n_max, n_max + 2)]
    # the two tables agree to the quadrature tolerance, not bit for bit
    np.testing.assert_allclose(runs[1].amplitudes, runs[0].amplitudes, rtol=0, atol=1e-10)


def test_snapshot_time_out_of_range(reduced_collinear, reduced_grid, reduced_config, tables):
    p, n_max = reduced_collinear, reduced_config.n_max
    state = ch.initialize_channels(p, reduced_grid, n_max)
    with pytest.raises(ValueError):
        ch.evolve(state, p, reduced_config, 10.0, tables(p, reduced_grid, n_max),
                  snapshot_times=[20.0])


def test_evolve_requires_forward_time(reduced_collinear, reduced_grid, reduced_config, tables):
    p, n_max = reduced_collinear, reduced_config.n_max
    state = ch.initialize_channels(p, reduced_grid, n_max)
    with pytest.raises(ValueError):
        ch.evolve(state, p, reduced_config, 0.0, tables(p, reduced_grid, n_max))


def test_truncation_error_and_escalation(reduced_collinear, reduced_grid, tables):
    strong = replace(reduced_collinear, lam=0.05)  # lambda0 = 0.05: heavy excitation
    config = ch.PropagatorConfig(n_max=1)
    ff = tables(strong, reduced_grid, 1)
    state = ch.initialize_channels(strong, reduced_grid, 1)
    with pytest.raises(ch.TruncationError):
        ch.evolve(state, strong, config, 1.5 * strong.tau2, ff)
    final, _, _ = ch.evolve_with_escalation(strong, reduced_grid, config,
                                            1.5 * strong.tau2, ff)
    assert final.n_max > 1
    assert final.top_shell_norm() < config.top_shell_threshold


def test_truncation_stops_at_first_breach(reduced_collinear, reduced_grid, tables):
    strong = replace(reduced_collinear, lam=0.05)
    config = ch.PropagatorConfig(n_max=1)
    t_final = 1.5 * strong.tau2
    ff = tables(strong, reduced_grid, 1)
    with pytest.raises(ch.TruncationError) as info:
        ch.evolve(ch.initialize_channels(strong, reduced_grid, 1), strong, config, t_final, ff)
    breach = info.value
    assert breach.n_max == 1
    assert breach.norm > config.top_shell_threshold
    assert breach.t < 0.1 * t_final
    # a run that is allowed to continue passes the previous check and
    # reads the same top-shell norm at the breach on a step boundary
    dt = t_final / round(t_final / config.dt)
    times = [t for t in (breach.t - ch.HEALTH_STRIDE * dt, breach.t) if t > 0.0]
    _, seen = ch.evolve(ch.initialize_channels(strong, reduced_grid, 1), strong,
                        replace(config, top_shell_threshold=1.0), t_final, ff,
                        snapshot_times=times)
    *before, at_breach = (seen[t] for t in times)
    assert at_breach.top_shell_norm() == pytest.approx(breach.norm, rel=1e-9)
    assert all(s.top_shell_norm() <= config.top_shell_threshold for s in before)


@pytest.mark.parametrize("failing_half", ["caller", "worker"])
def test_failed_evolve_leaves_no_reference_cycle(reduced_collinear, reduced_grid,
                                                 monkeypatch, failing_half, tables):
    # a cycle through the error's traceback would keep the failed attempt's
    # arrays alive while escalation allocates the next, larger one; the
    # calling thread fails a health check, the worker one of its halves
    strong = replace(reduced_collinear, lam=0.05)
    config = ch.PropagatorConfig(n_max=1)
    state = ch.initialize_channels(strong, reduced_grid, 1)
    ff = tables(strong, reduced_grid, 1)
    expected = ch.TruncationError
    if failing_half == "worker":
        expected = ZeroDivisionError
        caller, original = threading.current_thread(), ch._kinetic_rows

        def failing(f, *factor):
            if threading.current_thread() is not caller:
                raise ZeroDivisionError("worker failed")
            original(f, *factor)

        monkeypatch.setattr(ch, "_kinetic_rows", failing)
    raised = None
    gc.collect()
    gc.disable()
    try:
        try:
            ch.evolve(state, strong, config, 1.5 * strong.tau2, ff)
        except (ch.TruncationError, ZeroDivisionError) as exc:
            raised = type(exc)
        assert raised is expected
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nonfinite_amplitude_fails_within_one_stride(reduced_collinear, reduced_grid,
                                                     reduced_config, tables):
    p = reduced_collinear
    ff = tables(p, reduced_grid, reduced_config.n_max)
    state = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
    mid, _ = ch.evolve(state, p, reduced_config, 0.5 * p.tau2, ff)
    mid.amplitudes[0, 0, reduced_grid.n_points // 2] = np.nan
    with pytest.raises(NormDriftError, match="non-finite") as info:
        ch.evolve(mid, p, reduced_config, 1.5 * p.tau2, ff)
    assert mid.t < info.value.t <= mid.t + ch.HEALTH_STRIDE * reduced_config.dt * (1 + 1e-12)


def test_escalation_uses_tables_while_they_cover(reduced_collinear, reduced_grid,
                                                 monkeypatch):
    strong = replace(reduced_collinear, lam=0.05)
    config = ch.PropagatorConfig(n_max=1)
    t_final = 1.5 * strong.tau2
    ff = ch.form_factor_pair(strong, reduced_grid, 1)
    built = []
    build = ch.build_form_factors
    monkeypatch.setattr(ch, "build_form_factors",
                        lambda *a, **k: built.append(a[1].n_max) or build(*a, **k))
    final, _, failed = ch.evolve_with_escalation(strong, reduced_grid, config, t_final, ff)
    assert [e["n_max"] for e in failed] == list(range(1, final.n_max, 2))
    # the given n_max = 1 tables serve the first attempt only
    assert built == [n for n in range(3, final.n_max + 1, 2) for _ in (1, 2)]
    assert final.top_shell_norm() < config.top_shell_threshold


def test_bump_escalation_builds_bump_tables(reduced_collinear, reduced_grid, monkeypatch,
                                            tables):
    # an attempt beyond the given tables builds its own in their shape
    strong = replace(reduced_collinear, lam=0.05)
    ff = tables(strong, reduced_grid, 1, "bump")
    shapes = []
    build = ch.build_form_factors
    monkeypatch.setattr(ch, "build_form_factors",
                        lambda *a, **k: shapes.append(k["shape"]) or build(*a, **k))
    config = ch.PropagatorConfig(n_max=1)
    final, _, _ = ch.evolve_with_escalation(strong, reduced_grid, config, 1.5 * strong.tau2, ff)
    assert final.n_max > 1
    assert shapes == ["bump"] * (final.n_max - 1)
    assert final.top_shell_norm() < config.top_shell_threshold


def test_escalation_cap(reduced_collinear, reduced_grid, tables, monkeypatch):
    strong = replace(reduced_collinear, lam=0.05)
    config = ch.PropagatorConfig(n_max=1)
    monkeypatch.setattr(ch, "N_MAX_CAP", 1)
    with pytest.raises(ch.TruncationError):
        ch.evolve_with_escalation(strong, reduced_grid, config, 1.5 * strong.tau2,
                                  tables(strong, reduced_grid, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        ch.PropagatorConfig(dt=0.0)
    with pytest.raises(ValueError):
        ch.PropagatorConfig(n_max=0)


# ---------------------------------------------------------------------------
# the worker thread


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "free"])
@pytest.mark.parametrize("n_max", [1, 4])
@pytest.mark.parametrize("case", ["collinear", "opposite"])
def test_evolve_bitwise_under_short_switch_interval(case, n_max, coupled):
    # each row's transforms and each point's coupling run in the same order
    # whatever the thread interleaving, so a GIL hand-off every microsecond
    # changes no bit; n_max 1 and 4 split 4 and 25 rows, and without
    # coupling there are no slabs to split
    p = ex.default_params(case, epsilon=0.2)
    if not coupled:
        p = replace(p, lam=0.0)
    grid = suggest_grid(p, p.tau2)
    # the top shell overfills at n_max = 1; the comparison only needs both
    # runs to reach the end
    config = ch.PropagatorConfig(n_max=n_max, top_shell_threshold=1.0)
    ff = ch.form_factor_pair(p, grid, n_max)

    def run():
        final, seen = ch.evolve(ch.initialize_channels(p, grid, n_max), p, config, p.tau2, ff,
                                snapshot_times=[p.tau1])
        return final, seen[p.tau1]

    base, base_snap = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fast, fast_snap = run()
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(fast.amplitudes, base.amplitudes)
    assert fast_snap.t == base_snap.t
    assert np.array_equal(fast_snap.amplitudes, base_snap.amplitudes)


def test_evolve_worker_failure_leaves_the_call(reduced_collinear, reduced_grid,
                                               reduced_config, monkeypatch, tables):
    # a failure in the worker's half surfaces from evolve unchanged, and the
    # executor's thread is joined before evolve raises
    p = reduced_collinear
    ff = tables(p, reduced_grid, reduced_config.n_max)
    boom = RuntimeError("worker failed")
    workers = set()
    original = ch._kinetic_rows
    caller = None

    def failing(f, *factor):
        if threading.current_thread() is not caller:  # the worker's half
            workers.add(threading.current_thread())
            failing.calls += 1
            if failing.calls == 5:
                raise boom
        original(f, *factor)

    failing.calls = 0
    monkeypatch.setattr(ch, "_kinetic_rows", failing)
    before = threading.active_count()
    outcome = []

    def call():
        state = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
        try:
            ch.evolve(state, p, reduced_config, 1.5 * p.tau2, ff)
        except RuntimeError as exc:
            outcome.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive(), "evolve blocked after its worker failed"
    assert len(outcome) == 1 and outcome[0] is boom
    assert len(workers) == 1
    assert threading.active_count() == before


def test_escalation_leaves_no_worker_thread(reduced_collinear, reduced_grid, tables):
    strong = replace(reduced_collinear, lam=0.05)
    config = ch.PropagatorConfig(n_max=1)
    ff = tables(strong, reduced_grid, 1)
    before = threading.active_count()
    final, _, failed = ch.evolve_with_escalation(strong, reduced_grid, config,
                                                 1.5 * strong.tau2, ff)
    assert failed[0]["n_max"] == 1 and final.n_max > 1
    assert threading.active_count() == before

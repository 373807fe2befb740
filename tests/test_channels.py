"""Form factors, channel states and the split-step coupled-channel propagator."""

import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mott1d.channels as ch
import mott1d.experiments as ex
from mott1d.core import (
    GridError,
    ModelParams,
    NormDriftError,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    suggest_grid,
)
from oracles import (eigenfunctions, free_two_packet, gaussian_form_factor_00, mirror, mirrored,
                     reference_channel_evolve)


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
    phi = eigenfunctions(basis, r)
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
    states, _ = ch.evolve(state, p, config, p.tau2, tables(p, reduced_grid, 1))
    final = states[p.tau2]
    probs = ch.channel_probabilities(final)
    assert probs[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    exact = free_two_packet(reduced_grid.points, p.tau2, p.sigma, p.P0, p.hbar, p.M)
    assert np.max(np.abs(np.abs(final.amplitudes[0, 0]) - np.abs(exact))) <= 1e-8


def test_single_step_norm_preserving(reduced_collinear, reduced_grid, tables):
    config = ch.PropagatorConfig(dt=0.1, n_max=2)
    state = ch.initialize_channels(reduced_collinear, reduced_grid, 2)
    states, _ = ch.evolve(state, reduced_collinear, config, 0.1,
                          tables(reduced_collinear, reduced_grid, 2))
    assert abs(states[0.1].norm() - 1.0) <= 1e-12


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
    for tag, params in (("base", p), ("mirrored", mirrored(p))):
        state = ch.initialize_channels(params, reduced_grid, n_max)
        states, _ = ch.evolve(state, params, reduced_config, t_final,
                              tables(params, reduced_grid, n_max))
        runs[tag] = ch.channel_probabilities(states[t_final])
    for key in runs["base"]:
        assert runs["base"][key] == pytest.approx(runs["mirrored"][key], abs=1e-9)


def test_evolve_is_deterministic(reduced_collinear, reduced_grid, reduced_config,
                                 reduced_oracle_final, tables):
    p, n_max = reduced_collinear, reduced_config.n_max
    state = ch.initialize_channels(p, reduced_grid, n_max)
    again, _ = ch.evolve(state, p, reduced_config, 1.5 * p.tau2, tables(p, reduced_grid, n_max))
    np.testing.assert_array_equal(again[1.5 * p.tau2].amplitudes,
                                  reduced_oracle_final.amplitudes)


def test_snapshot_equals_direct_run(reduced_collinear, reduced_grid, reduced_config, tables):
    p = reduced_collinear
    t_mid, t_final = 0.75 * p.tau2, 1.5 * p.tau2
    ff = tables(p, reduced_grid, reduced_config.n_max)
    state = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
    # one state at each time, in time order, the final one among them
    seen, _ = ch.evolve(state, p, reduced_config, t_final, ff, snapshot_times=[t_final, t_mid])
    assert [(t, s.t) for t, s in seen.items()] == [(t_mid, t_mid), (t_final, t_final)]
    state2 = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
    direct, _ = ch.evolve(state2, p, reduced_config, t_mid, ff)
    np.testing.assert_allclose(seen[t_mid].amplitudes, direct[t_mid].amplitudes,
                               rtol=0, atol=1e-12)


def test_off_grid_snapshot_lands_on_its_time(reduced_collinear, reduced_grid, reduced_config,
                                             tables):
    # 37.53 is no multiple of the run's step: the snapshot is taken at
    # 37.53 itself, after the fewest steps no longer than dt that reach it
    p = reduced_collinear
    t_mid, t_final = 37.53, 1.5 * p.tau2
    ff = tables(p, reduced_grid, reduced_config.n_max)
    state = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
    seen, _ = ch.evolve(state, p, reduced_config, t_final, ff, snapshot_times=[t_mid])
    direct, _ = ch.evolve(state, p, reduced_config, t_mid, ff)
    assert seen[t_mid].t == t_mid == direct[t_mid].t and seen[t_final].t == t_final
    np.testing.assert_allclose(seen[t_mid].amplitudes, direct[t_mid].amplitudes,
                               rtol=0, atol=1e-12)


def test_evolve_leaves_the_callers_state_unchanged(reduced_collinear, reduced_grid,
                                                   reduced_config, tables):
    # evolve transforms a private copy of the stack in place; the state it
    # is given, here one with every channel populated, is only read
    p = reduced_collinear
    ff = tables(p, reduced_grid, reduced_config.n_max)
    state = ch.initialize_channels(p, reduced_grid, reduced_config.n_max)
    states, _ = ch.evolve(state, p, reduced_config, 0.75 * p.tau2, ff)
    mid = states[0.75 * p.tau2]
    assert np.all(np.abs(mid.amplitudes).max(axis=2) > 0)
    before = mid.amplitudes.copy()
    ch.evolve(mid, p, reduced_config, 1.5 * p.tau2, ff)
    assert mid.t == 0.75 * p.tau2
    assert np.array_equal(mid.amplitudes, before)


@pytest.mark.parametrize("part", ["first-half", "second-half", "whole"])
def test_kinetic_rows_in_place_equals_out_of_place(part):
    # evolve transforms its stack in place: the rows handed over, the whole
    # stack or either half of it, a view that starts or ends inside the
    # stack, must read bit for bit as the out-of-place composition fft ->
    # x free phase -> ifft -> x energy phase, and the other rows must stay
    # untouched
    rng = np.random.default_rng(20)
    rows, n_points = 9, 2048  # (n_max + 1)^2 rows at n_max 2
    f = rng.standard_normal((rows, n_points)) + 1j * rng.standard_normal((rows, n_points))
    free = np.exp(1j * rng.uniform(-np.pi, np.pi, n_points))
    energy = np.exp(1j * rng.uniform(-np.pi, np.pi, rows))
    rows_of = {"first-half": slice(0, rows // 2), "second-half": slice(rows // 2, rows),
               "whole": slice(0, rows)}
    sel = rows_of[part]
    spectrum = np.fft.fft(f[sel], axis=-1)
    spectrum *= free
    expected = f.copy()
    expected[sel] = np.fft.ifft(spectrum, axis=-1) * energy[sel, None]
    ch._kinetic_rows(f[sel], free, energy[sel])
    assert np.array_equal(f, expected)


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
    seen, _ = ch.evolve(state, p, config, t_final, ff, snapshot_times=[t_mid])
    snap, final = seen.values()
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
        seen, _ = ch.evolve(start, p, ch.PropagatorConfig(dt=dt, n_max=n_max), times[-1], ff,
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
                      ch.form_factor_pair(p, reduced_grid, n))[0][p.tau1]
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
    states, _ = ch.evolve_with_escalation(strong, reduced_grid, ff, config.n_max, config.dt,
                                          (1.5 * strong.tau2,), config.top_shell_threshold)
    [final] = states.values()
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
    seen, _ = ch.evolve(ch.initialize_channels(strong, reduced_grid, 1), strong,
                        replace(config, top_shell_threshold=1.0), t_final, ff,
                        snapshot_times=times)
    *before, at_breach = (seen[t] for t in times)
    assert at_breach.top_shell_norm() == pytest.approx(breach.norm, rel=1e-9)
    assert all(s.top_shell_norm() <= config.top_shell_threshold for s in before)


@pytest.mark.parametrize("failing", ["health-check", "stage"])
def test_failed_evolve_leaves_no_reference_cycle(reduced_collinear, reduced_grid,
                                                 monkeypatch, failing, tables):
    # a cycle through the error's traceback would keep the failed attempt's
    # arrays alive while escalation allocates the next, larger one; the run
    # fails a health check, or a kinetic stage raises
    strong = replace(reduced_collinear, lam=0.05)
    config = ch.PropagatorConfig(n_max=1)
    state = ch.initialize_channels(strong, reduced_grid, 1)
    ff = tables(strong, reduced_grid, 1)
    expected = ch.TruncationError
    if failing == "stage":
        expected = ZeroDivisionError

        def stage(f, *factor):
            raise ZeroDivisionError("stage failed")

        monkeypatch.setattr(ch, "_kinetic_rows", stage)
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
    states, _ = ch.evolve(state, p, reduced_config, 0.5 * p.tau2, ff)
    mid = states[0.5 * p.tau2]
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
    states, record = ch.evolve_with_escalation(strong, reduced_grid, ff, config.n_max,
                                               config.dt, (t_final,), config.top_shell_threshold)
    final = states[t_final]
    assert [e["n_max"] for e in record["escalations"]] == list(range(1, final.n_max, 2))
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
    states, _ = ch.evolve_with_escalation(strong, reduced_grid, ff, config.n_max, config.dt,
                                          (1.5 * strong.tau2,), config.top_shell_threshold)
    [final] = states.values()
    assert final.n_max > 1
    assert shapes == ["bump"] * (final.n_max - 1)
    assert final.top_shell_norm() < config.top_shell_threshold


def test_escalation_cap(reduced_collinear, reduced_grid, tables, monkeypatch):
    strong = replace(reduced_collinear, lam=0.05)
    config = ch.PropagatorConfig(n_max=1)
    monkeypatch.setattr(ch, "N_MAX_CAP", 1)
    with pytest.raises(ch.TruncationError):
        ch.evolve_with_escalation(strong, reduced_grid, tables(strong, reduced_grid, 1),
                                  config.n_max, config.dt, (1.5 * strong.tau2,),
                                  config.top_shell_threshold)


def test_config_validation():
    with pytest.raises(ValueError):
        ch.PropagatorConfig(dt=0.0)
    with pytest.raises(ValueError):
        ch.PropagatorConfig(n_max=0)


# ---------------------------------------------------------------------------
# the window and the carry


def test_fft_size_is_the_least_5_smooth_length():
    def smooth(n):
        for prime in (2, 3, 5):
            while n % prime == 0:
                n //= prime
        return n == 1

    for n in range(1, 3000):
        assert ch._fft_size(n) == next(m for m in range(n, 2 * n + 1) if smooth(m))


@pytest.mark.parametrize("lambda0", [1e-3, 0.05])
@pytest.mark.parametrize("case", ["collinear", "opposite"])
def test_windowed_evolve_matches_reference_kernel(case, lambda0):
    # the reference kernel steps on the whole grid; evolve steps on a
    # window well inside it and carries the rest in k-space.  By 1.5 tau2
    # the collinear run has carried a quarter of the norm, psi- past the
    # window's left end; the opposite window holds oscillator 2's slabs, far
    # to the left, so only psi+'s front is carried there
    p = ex.default_params(case, epsilon=0.2, lambda0=lambda0)
    times = (1.5 * p.tau1, 1.5 * p.tau2)
    grid = suggest_grid(p, times[-1])
    n_max = 2
    config = ch.PropagatorConfig(n_max=n_max, top_shell_threshold=1.0)
    ff = ch.form_factor_pair(p, grid, n_max)
    state = ch.initialize_channels(p, grid, n_max)
    seen, record = ch.evolve(state, p, config, times[-1], ff, snapshot_times=times)
    energies = [OscillatorBasis.for_oscillator(p, i, n_max).energies for i in (1, 2)]
    ref = reference_channel_evolve(state.amplitudes, ff[0].values, ff[1].values, *energies,
                                   grid.dx, times[-1], config.dt, p.lam, p.hbar, p.M,
                                   ch.COUPLING_ERROR_BUDGET, snapshot_times=times)
    for t in times:
        np.testing.assert_allclose(seen[t].amplitudes, ref["snapshots"][t], rtol=0, atol=1e-12)
    window = record["window"]
    if case == "collinear":
        assert window["points"] < 0.6 * grid.n_points and window["carried_norm"] > 0.1
    else:
        assert window["points"] < 0.75 * grid.n_points and window["carried_norm"] > 1e-5
    assert 0.0 < window["band_norm_max"] < window["carried_norm"]


def test_run_continued_from_a_late_snapshot_equals_the_whole_run(reduced_collinear):
    # in a box narrower than suggest_grid's, by 0.9 of the run the state
    # exceeds the budget everywhere on the grid, so a run continued from
    # there steps on the whole grid and carries nothing; it must land on
    # the final state of the whole run, which carried a quarter of the norm
    p = reduced_collinear
    n_max = 2
    grid = SpatialGrid.symmetric(180.0, 2048)
    t_late, t_final = 0.9 * 1.5 * p.tau2, 1.5 * p.tau2
    ff = ch.form_factor_pair(p, grid, n_max)
    config = ch.PropagatorConfig(n_max=n_max)
    whole, record = ch.evolve(ch.initialize_channels(p, grid, n_max), p, config, t_final, ff,
                              snapshot_times=[t_late])
    continued, again = ch.evolve(whole[t_late], p, config, t_final, ff)
    assert record["window"]["points"] < 0.8 * grid.n_points
    assert record["window"]["carried_norm"] > 0.1
    assert again["window"] == {"points": grid.n_points, "carried_norm": 0.0,
                               "band_norm_max": 0.0}
    np.testing.assert_allclose(continued[t_final].amplitudes, whole[t_final].amplitudes,
                               rtol=0, atol=1e-12)


def test_breach_after_a_carry_reads_the_whole_states_top_shell(reduced_collinear,
                                                               reduced_grid, tables):
    # at n_max = 1 and lambda0 = 0.05 the top shell holds every excitation,
    # and by the last in-run check psi-'s share of it is past the window's
    # left end, in k-space: the breach must report the top-shell norm of
    # the state the run reports, not of the window
    strong = replace(reduced_collinear, lam=0.05)
    t_final = 1.5 * strong.tau2
    ff = tables(strong, reduced_grid, 1)
    config = ch.PropagatorConfig(n_max=1, top_shell_threshold=1.0)
    # the last two in-run checks, on the run's step boundaries
    n_steps = round(t_final / config.dt)
    last, before = ((n_steps - k * ch.HEALTH_STRIDE) * (t_final / n_steps) for k in (1, 2))
    seen, record = ch.evolve(ch.initialize_channels(strong, reduced_grid, 1), strong, config,
                             t_final, ff, snapshot_times=[before, last])
    assert record["window"]["carried_norm"] > 0.1
    top = {t: seen[t].top_shell_norm() for t in (before, last)}
    assert top[before] < top[last]
    threshold = 0.5 * (top[before] + top[last])
    with pytest.raises(ch.TruncationError) as info:
        ch.evolve(ch.initialize_channels(strong, reduced_grid, 1), strong,
                  replace(config, top_shell_threshold=threshold), t_final, ff)
    assert info.value.t == last
    assert info.value.norm == pytest.approx(top[last], rel=1e-9)


def test_free_run_past_the_window_matches_analytic(reduced_collinear, reduced_grid, tables):
    # without coupling the window holds only the initial packet and its
    # bands; by 1.5 tau2 most of both packets is carried in k-space
    p = replace(reduced_collinear, lam=0.0)
    t_final = 1.5 * p.tau2
    state = ch.initialize_channels(p, reduced_grid, 1)
    states, record = ch.evolve(state, p, ch.PropagatorConfig(n_max=1), t_final,
                               tables(p, reduced_grid, 1))
    final = states[t_final]
    assert record["window"]["points"] < 0.5 * reduced_grid.n_points
    assert record["window"]["carried_norm"] > 0.5
    assert ch.channel_probabilities(final)[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    exact = free_two_packet(reduced_grid.points, t_final, p.sigma, p.P0, p.hbar, p.M)
    assert np.max(np.abs(np.abs(final.amplitudes[0, 0]) - np.abs(exact))) <= 1e-8


def test_coupling_slabs_are_the_runs_of_the_window(reduced_collinear, reduced_grid, tables):
    # one slab per run of coupled points, none dropped and none twice, and a
    # window from grid point 50 on counts its own points and reads the table
    # at its grid point, bit for bit
    p = reduced_collinear
    n_points = reduced_grid.n_points
    table, _ = tables(p, reduced_grid, 2)
    energies = OscillatorBasis.for_oscillator(p, 1, 2).energies
    on = np.zeros(n_points, dtype=bool)
    on[100:200] = on[300:310] = True
    taus = [0.3, -0.2]

    def per_point(slabs):
        u = np.zeros((3, 3, n_points), dtype=np.complex128)
        for span, factor in slabs:
            u[:, :, span] = factor
        return u

    whole = ch._coupling_slabs(p, table, energies, taus, on, 0)
    assert len(whole) == len(taus)
    for slabs in whole:
        assert [(s.start, s.stop) for s, _ in slabs] == [(100, 200), (300, 310)]
    no_runs = np.zeros(n_points, dtype=bool)
    assert ch._coupling_slabs(p, table, energies, taus, no_runs, 0) == [[], []]
    shift = 50
    windowed = ch._coupling_slabs(p, table, energies, taus, on[shift:], shift)
    for slabs, uncut in zip(windowed, whole):
        assert np.array_equal(per_point(slabs)[:, :, :n_points - shift],
                              per_point(uncut)[:, :, shift:])


# ---------------------------------------------------------------------------
# sampling on the band


def test_band_filling_the_grid_steps_on_every_point(reduced_collinear):
    # M is the fewest points N / 2^j with M/2 above the joint source's band
    assert ch._step_points(2048, 511) == 1024
    assert ch._step_points(2048, 512) == 2048
    # the bands of this run need more than 256 indices, so on 1024 points
    # the rule keeps the grid and the tables themselves
    p = reduced_collinear
    grid = suggest_grid(p, 1.5 * p.tau2, 1024)
    ff = ch.form_factor_pair(p, grid, 2)
    coarse, sampled = ch.band_sampling(p, grid, ff)
    assert coarse is grid and sampled is ff


def test_non_finite_table_between_the_step_points_rejected(reduced_collinear, reduced_grid,
                                                           monkeypatch):
    # the steps read every second point of this grid; a NaN on a point they
    # skip still fails the run, in the band measurement, before any step
    p = reduced_collinear
    ff1, ff2 = ch.form_factor_pair(p, reduced_grid, 1)
    values = ff2.values.copy()
    values[1, 0, reduced_grid.n_points // 2 + 1] = np.nan
    steps = []
    monkeypatch.setattr(ch, "evolve", lambda *args: steps.append(None))
    with pytest.raises(ValueError, match="not finite"):
        ch.evolve_with_escalation(p, reduced_grid, (ff1, replace(ff2, values=values)), 1, 0.5,
                                  (1.5 * p.tau2,), 1e-6)
    assert not steps
    coarse, sampled = ch.band_sampling(p, reduced_grid, (ff1, ff2))
    assert coarse == SpatialGrid(reduced_grid.x_min, reduced_grid.x_max,
                                 reduced_grid.n_points // 2)
    for table, full in zip(sampled, (ff1, ff2)):
        assert table.grid == coarse and np.array_equal(table.values, full.values[..., ::2])
    # tables on a wider grid with the same points would be sampled as if on
    # this one
    wide = SpatialGrid(1.25 * reduced_grid.x_min, 1.25 * reduced_grid.x_max,
                       reduced_grid.n_points)
    with pytest.raises(GridError, match="grid"):
        ch.band_sampling(p, reduced_grid, ch.form_factor_pair(p, wide, 1))


def test_escalation_samples_each_attempts_own_tables(reduced_collinear, reduced_grid,
                                                     monkeypatch, tables):
    # the rule runs once per attempt, on the tables that attempt steps with:
    # the given n_max = 1 pair, then each pair the escalation builds
    strong = replace(reduced_collinear, lam=0.05)
    ff = tables(strong, reduced_grid, 1)
    seen = []
    rule = ch.band_sampling

    def spy(params, grid, form_factors):
        seen.append(form_factors)
        return rule(params, grid, form_factors)

    monkeypatch.setattr(ch, "band_sampling", spy)
    states, record = ch.evolve_with_escalation(strong, reduced_grid, ff, 1, 0.5,
                                               (1.5 * strong.tau2,), 1e-6)
    attempts = [e["n_max"] for e in record["escalations"]] + [states[1.5 * strong.tau2].n_max]
    assert len(attempts) > 1
    assert seen[0] is ff
    assert [pair[0].n_max for pair in seen] == [pair[1].n_max for pair in seen] == attempts
    assert all(t.grid == reduced_grid for pair in seen for t in pair)


@pytest.mark.parametrize("case", ["collinear", "opposite"])
def test_sampled_oracle_matches_evolve_on_the_grid_of_record(case):
    # 8192 points at epsilon = 0.2 sample the band 8x finer than the rule
    # needs; every amplitude the escalation returns on the grid of record,
    # stepped on 1024 points, matches evolve stepped on all 8192
    p = ex.default_params(case, epsilon=0.2)
    times = (1.5 * p.tau1, 1.5 * p.tau2)
    grid = suggest_grid(p, times[-1], 8192)
    config = ch.PropagatorConfig(n_max=2, top_shell_threshold=1.0)
    ff = ch.form_factor_pair(p, grid, 2)
    seen, record = ch.evolve_with_escalation(p, grid, ff, config.n_max, config.dt, times,
                                             config.top_shell_threshold)
    assert record["points"] == 1024 and all(s.grid == grid for s in seen.values())
    ref, _ = ch.evolve(ch.initialize_channels(p, grid, 2), p, config, times[-1], ff, times)
    for t in times:
        np.testing.assert_allclose(seen[t].amplitudes, ref[t].amplitudes, rtol=0, atol=1e-12)

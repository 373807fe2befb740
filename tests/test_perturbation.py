"""Dyson engine: free propagator, kick accumulation, scaling structure."""

import gc
import math
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

import mott1d.perturbation as pt
from mott1d import experiments as ex
from mott1d.channels import channel_probabilities, form_factor_pair
from mott1d.core import (
    GridError,
    ModelParams,
    NormDriftError,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    make_spherical_wave_1d,
    free_spread,
    history_sums,
    suggest_grid,
    time_segments,
)
from oracles import (free_propagate, free_two_packet, make_gaussian_packet, mirrored,
                     reference_dyson_stack)


@pytest.fixture(scope="module")
def free_params():
    return ModelParams(M=1.0, m=0.2, omega=0.2, lam=0.0, delta=5.0, sigma=1.0,
                       P0=2.0, a1=25.0, a2=50.0)


# ---------------------------------------------------------------------------
# free propagator


def test_free_propagate_zero_time_is_identity(free_params):
    g = SpatialGrid.symmetric(64.0, 2048)
    psi = make_gaussian_packet(g, 1.0, 2.0)
    out = free_propagate(psi, 0.0, free_params)
    assert np.max(np.abs(out.values - psi.values)) <= 1e-14


def test_free_propagate_center_and_width(free_params):
    g = SpatialGrid.symmetric(64.0, 4096)
    p = free_params
    psi = make_gaussian_packet(g, p.sigma, p.P0, hbar=p.hbar)
    t = 5.0
    out = free_propagate(psi, t, p)
    x = g.points
    rho = np.abs(out.values) ** 2 * g.dx
    mean = float(np.sum(rho * x))
    spread = math.sqrt(float(np.sum(rho * (x - mean) ** 2)))
    assert mean == pytest.approx(p.v0 * t, abs=1e-9)
    assert spread == pytest.approx(free_spread(p.sigma, t, p.hbar, p.M) / math.sqrt(2.0),
                                   abs=1e-9)


def test_free_propagate_group_property(free_params):
    g = SpatialGrid.symmetric(64.0, 2048)
    psi = make_gaussian_packet(g, 1.0, 2.0)
    out = free_propagate(free_propagate(psi, 3.7, free_params), -3.7, free_params)
    assert np.max(np.abs(out.values - psi.values)) <= 1e-12


def test_dyson_free_row_honours_hbar(free_params):
    # the unkicked row is the free two-packet state times the ground-state
    # energy phase, for any hbar (the kinetic term carries hbar k^2 / 2M)
    p = replace(free_params, hbar=0.5, lam=1e-3)
    g = SpatialGrid.symmetric(64.0, 2048)
    t = 5.0
    states, _ = pt.dyson_run(p, t, form_factor_pair(p, g, 1), g, 1, pt.default_duhamel_step(p))
    run = states[t]
    e00 = p.hbar * p.omega  # two oscillators at hbar omega / 2 each
    exact = np.exp(-1j * e00 * t / p.hbar) * free_two_packet(g.points, t, p.sigma, p.P0,
                                                              p.hbar, p.M)
    assert np.max(np.abs(run.amplitudes[0, 0] - exact)) <= 1e-10
    psi0 = make_spherical_wave_1d(g, p.sigma, p.P0, p.hbar)
    free = free_propagate(psi0, t, p).values
    assert np.max(np.abs(run.amplitudes[0, 0] - np.exp(-1j * e00 * t / p.hbar) * free)) <= 1e-12


# ---------------------------------------------------------------------------
# first order


def test_first_order_zero_coupling(reduced_collinear, reduced_grid):
    p = replace(reduced_collinear, lam=0.0)
    t = 0.5 * p.tau2
    states, _ = pt.converged_dyson_run(p, reduced_grid, form_factor_pair(p, reduced_grid, 1), 1,
                                       None, (t,), 1e-3)
    run = states[t]
    assert np.all(run.amplitudes[1, 0] == 0.0)
    assert channel_probabilities(run)[(1, 0)] == 0.0


def test_first_order_lambda_doubling_quadruples_exactly(reduced_collinear, reduced_grid):
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    t = p.tau2
    r1, _ = pt.converged_dyson_run(p, reduced_grid, ff, 1, None, (t,), 1e-3)
    r2, _ = pt.converged_dyson_run(replace(p, lam=2.0 * p.lam), reduced_grid, ff, 1, None, (t,),
                                   1e-3)
    assert channel_probabilities(r2[t])[(1, 0)] == 4.0 * channel_probabilities(r1[t])[(1, 0)]


def test_first_order_grows_after_arrival():
    # before the packet reaches a1 the excitation is tail-suppressed by >= 1e3
    p = ex.default_params("collinear", epsilon=0.1)
    grid = suggest_grid(p, 2.0 * p.tau1)
    ff = form_factor_pair(p, grid, 1)
    early, late = (pt.converged_dyson_run(p, grid, ff, 1, None, (t,), 1e-3)[0][t]
                   for t in (0.5 * p.tau1, 2.0 * p.tau1))
    assert channel_probabilities(late)[(1, 0)] >= 1e3 * channel_probabilities(early)[(1, 0)]


# ---------------------------------------------------------------------------
# second order


def test_second_order_zero_coupling(reduced_collinear, reduced_grid):
    p = replace(reduced_collinear, lam=0.0)
    t = 1.5 * p.tau2
    states, _ = pt.converged_dyson_run(p, reduced_grid, form_factor_pair(p, reduced_grid, 1), 1,
                                       None, (t,), 1e-3)
    run = states[t]
    assert np.all(run.amplitudes[1, 1] == 0.0)
    assert channel_probabilities(run)[(1, 1)] == 0.0


def test_second_order_lambda_fourth_power(reduced_collinear, reduced_grid):
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    t = 1.5 * p.tau2
    probs = {}
    for lam in (5e-4, 1e-3, 3e-3):
        states, _ = pt.converged_dyson_run(replace(p, lam=lam), reduced_grid, ff, 1, None, (t,),
                                           1e-3)
        probs[lam] = channel_probabilities(states[t])[(1, 1)]
    lams = sorted(probs)
    for lo, hi in [(lams[0], lams[1]), (lams[0], lams[2]), (lams[1], lams[2])]:
        slope = math.log(probs[hi] / probs[lo]) / math.log(hi / lo)
        assert abs(slope - 4.0) <= 1e-10


def test_second_order_ordering_dominance(reduced_collinear, reduced_grid):
    # same-side geometry: the packet passes a1 first, so the 1->2 ordering
    # carries essentially all of the amplitude, but the 2->1 one is not empty
    p = reduced_collinear
    t = 1.5 * p.tau2
    ff = form_factor_pair(p, reduced_grid, 1)
    states, record = pt.converged_dyson_run(p, reduced_grid, ff, 1, None, (t,), 1e-3)
    run = states[t]
    ref = _reference(p, t, ff, reduced_grid, 1, record["halving"][-1]["dt"])
    p12 = _norm_sq(ref["c12"][1, 1], reduced_grid)
    p21 = _norm_sq(ref["c21"][1, 1], reduced_grid)
    assert p21 > 0
    assert p12 > 1e3 * p21
    assert channel_probabilities(run)[(1, 1)] == pytest.approx(p12, rel=0.05)


def _norm_sq(values, grid):
    return float(np.sum(np.abs(values) ** 2)) * grid.dx


def _reference(p, t, ff, grid, n_max, dt, on_kick_slabs=False):
    """The reference pass on the full tables, or, with ``on_kick_slabs``, on
    the engine's kick slabs."""
    energies = OscillatorBasis.for_oscillator(p, 1, n_max).energies
    psi0 = make_spherical_wave_1d(grid, p.sigma, p.P0, p.hbar).values
    g1, g2 = (f.values[:n_max + 1, 0] for f in ff)
    if on_kick_slabs:
        g1, g2 = _on_kick_slab(g1), _on_kick_slab(g2)
    return reference_dyson_stack(psi0, g1, g2, energies, grid.dx, t, dt, p.lam, p.hbar, p.M)


def _on_kick_slab(g):
    """The table the engine kicks with: zero outside its KICK_FLOOR slab."""
    out = np.zeros_like(g)
    slab = pt._kick_slab(g[1:])
    out[:, slab] = g[:, slab]
    return out


_REFERENCE_CASES = [
    pytest.param(case, shape, n_max, 1.0, 0.2, id=f"{case}-{shape}-{n_max}")
    for case in (ex.COLLINEAR, ex.OPPOSITE) for shape in ("gaussian", "bump") for n_max in (1, 2)
] + [
    pytest.param(ex.COLLINEAR, "gaussian", 2, 0.5, 0.2, id="collinear-gaussian-2-hbar0.5"),
    # 1500 steps: a phase that drifts from step to step shows up here
    pytest.param(ex.OPPOSITE, "gaussian", 2, 1.0, 0.05, id="opposite-gaussian-2-1500steps"),
]


def _assert_probabilities_match(run, ref, grid):
    """Every excited channel's probability within rel 1e-12 of the reference
    pass on the grid of record (orderings summed)."""
    for (n1, n2), prob in channel_probabilities(run).items():
        if (n1, n2) == (0, 0):
            continue
        if n2 == 0:
            expected = _norm_sq(ref["b1"][n1], grid)
        elif n1 == 0:
            expected = _norm_sq(ref["b2"][n2], grid)
        else:
            expected = _norm_sq(ref["c12"][n1, n2] + ref["c21"][n1, n2], grid)
        assert prob == pytest.approx(expected, rel=1e-12), (n1, n2)


def _field_errors(run, ref):
    """{label: max |engine - reference| / reference peak} over the b rows and
    the joint rows (orderings summed)."""
    n_max = run.n_max
    out = {}
    for n in range(1, n_max + 1):
        for got, want, label in ((run.amplitudes[n, 0], ref["b1"][n], ("b1", n)),
                                 (run.amplitudes[0, n], ref["b2"][n], ("b2", n))):
            out[label] = np.max(np.abs(got - want)) / np.max(np.abs(want))
    for n1 in range(1, n_max + 1):
        for n2 in range(1, n_max + 1):
            c12, c21 = ref["c12"][n1, n2], ref["c21"][n1, n2]
            out[n1, n2] = (np.max(np.abs(run.amplitudes[n1, n2] - (c12 + c21)))
                           / (np.max(np.abs(c12)) + np.max(np.abs(c21))))
    return out


@pytest.mark.parametrize("case, shape, n_max, hbar, dt", _REFERENCE_CASES)
def test_dyson_run_matches_reference_kernel(case, shape, n_max, hbar, dt):
    p = replace(ex.default_params(case, epsilon=0.2), hbar=hbar)
    t = 1.5 * p.tau2
    grid = suggest_grid(p, t)
    ff = form_factor_pair(p, grid, n_max, shape)
    states, _ = pt.dyson_run(p, t, ff, grid, n_max, dt)
    run = states[t]
    _assert_probabilities_match(run, _reference(p, t, ff, grid, n_max, dt), grid)

    # amplitudes, phases included, to 1e-12 of each channel's peak, at every
    # point of the grid the pass steps on, against the reference pass on the
    # engine's slabs.  Against the full tables the opposite geometry's joint
    # fields, suppressed far below the b peaks, differ by up to 6.4e-12 of
    # their peak; a 1e-16 relative change of psi0 alone moves a pass by
    # 7.5e-13 to 6.7e-12 there
    ref = _reference(p, t, ff, grid, n_max, dt, on_kick_slabs=True)
    for label, err in _field_errors(run, ref).items():
        assert err <= 1e-12, label


@pytest.mark.parametrize("case", [ex.COLLINEAR, ex.OPPOSITE])
def test_decimated_dyson_run_matches_reference_on_the_grid_of_record(case):
    # 8192 points at epsilon = 0.2 sample the band 4x finer than
    # suggest_grid's rule, so the ladder's passes step on fewer points; every
    # amplitude of the accepted pass, returned on the grid of record, matches
    # the reference pass there.  The opposite geometry's joint fields are
    # left out for the reason the kernel test gives.  So is the bump table:
    # its opposite-geometry probabilities read 1.5e-12 here, where a pass on
    # every point reads 5.6e-13 and a 1e-16 relative change of psi0 moves it
    # by 3.9e-13, so these digits are noise.  From dt 0.4 with any change
    # accepted, the second pass, at dt 0.2, is the accepted one
    p = ex.default_params(case, epsilon=0.2)
    t = 1.5 * p.tau2
    grid = suggest_grid(p, t, 8192)
    ff = form_factor_pair(p, grid, 2)
    states, record = pt.converged_dyson_run(p, grid, ff, 2, 0.4, (t,), 1.0)
    run = states[t]
    assert [h["dt"] for h in record["halving"]] == [t / math.ceil(t / 0.4),
                                                    t / math.ceil(t / 0.2)]
    assert run.grid == grid and record["points"] < grid.n_points
    ref = _reference(p, t, ff, grid, 2, 0.2)
    _assert_probabilities_match(run, ref, grid)
    for label, err in _field_errors(run, ref).items():
        if case == ex.COLLINEAR or label[0] in ("b1", "b2"):
            assert err <= 1e-12, label


def random_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_propagate_in_place_equals_out_of_place():
    # the free step of the x-space rows writes back into them, bit for bit
    # the out-of-place composition fft -> x phase -> ifft
    rng = np.random.default_rng(24)
    st = random_stack(rng, (5, 2048))  # psi, b1 and b2 at n_max 2
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, st.shape))
    spectrum = np.fft.fft(st, axis=-1)
    spectrum *= phase
    expected = np.fft.ifft(spectrum, axis=-1)
    pt._propagate(st, phase)
    assert np.array_equal(st, expected)


def test_add_spectrum_equals_out_of_place():
    # a source is transformed into the scratch array and added, bit for bit
    # acc + phase * fft(values); the source itself is only read
    rng = np.random.default_rng(25)
    acc, values = random_stack(rng, (2, 2, 2048)), random_stack(rng, (2, 2, 2048))
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, 2048))
    source = values.copy()
    expected = acc + np.fft.fft(values, axis=-1) * phase
    pt._add_spectrum(acc, values, phase, np.empty_like(acc))
    assert np.array_equal(acc, expected)
    assert np.array_equal(values, source)


def test_dyson_run_bitwise_under_short_switch_interval(reduced_collinear, reduced_grid):
    # the worker thread adds the joint sources in step order whatever the
    # thread interleaving, so a GIL hand-off every microsecond changes no bit
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 2)
    args = (p, 1.5 * p.tau2, ff, reduced_grid, 2, 0.2)
    base, _ = pt.dyson_run(*args)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fast, _ = pt.dyson_run(*args)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(fast[args[1]].amplitudes, base[args[1]].amplitudes)


def test_dyson_run_worker_failure_leaves_the_call(reduced_collinear, reduced_grid, monkeypatch):
    # a failure in the worker's accumulation surfaces from dyson_run; the
    # calling thread must not wait forever on its in-flight sources, and
    # the executor's thread is joined before dyson_run raises
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    callers = set()
    original = pt._add_spectrum

    def failing(acc, values, phase, spectrum):
        callers.add(threading.current_thread())
        if failing.calls == 3:
            time.sleep(0.5)  # long enough for the calling thread to fill its three sources
            raise RuntimeError("worker failed")
        failing.calls += 1
        original(acc, values, phase, spectrum)

    failing.calls = 0
    monkeypatch.setattr(pt, "_add_spectrum", failing)
    before = threading.active_count()
    outcome = []

    def call():
        try:
            pt.dyson_run(p, 1.5 * p.tau2, ff, reduced_grid, 1, 0.05)
        except RuntimeError as exc:
            outcome.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive(), "dyson_run blocked after its worker failed"
    assert [str(e) for e in outcome] == ["worker failed"]
    assert len(callers) == 1 and caller not in callers
    assert threading.active_count() == before


def test_dyson_run_worker_failure_cancels_pending_sources(reduced_collinear, reduced_grid,
                                                          monkeypatch):
    # the sources submitted after the failing one are not added: at most the
    # one the worker had already started runs
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    original = pt._add_spectrum

    def failing(acc, values, phase, spectrum):
        failing.calls += 1
        if failing.calls >= 3:
            time.sleep(0.2)  # long enough for the calling thread to fill its three sources
            raise RuntimeError("worker failed")
        original(acc, values, phase, spectrum)

    failing.calls = 0
    monkeypatch.setattr(pt, "_add_spectrum", failing)
    with pytest.raises(RuntimeError, match="worker failed"):
        pt.dyson_run(p, 1.5 * p.tau2, ff, reduced_grid, 1, 0.2)
    assert failing.calls <= 4


def test_non_finite_pass_raises_norm_drift(reduced_collinear, reduced_grid, monkeypatch):
    # one NaN in the joint accumulator makes whole channels NaN; the first
    # pass must fail on them, with no second pass and no halving comparison
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 2)
    original, dyson_run = pt._add_spectrum, pt.dyson_run

    def poisoned(acc, values, phase, spectrum):
        original(acc, values, phase, spectrum)
        acc[0, 0, acc.shape[-1] // 2] = np.nan

    monkeypatch.setattr(pt, "_add_spectrum", poisoned)
    runs = []
    monkeypatch.setattr(pt, "dyson_run", lambda *a, **k: runs.append(a) or dyson_run(*a, **k))
    with pytest.raises(NormDriftError, match="non-finite") as info:
        pt.converged_dyson_run(p, reduced_grid, ff, 2, None, (1.5 * p.tau2,), 1e-3)
    assert len(runs) == 1
    err = info.value
    assert err.t == 1.5 * p.tau2 and err.n_max == 2 and not math.isfinite(err.norm)


@pytest.mark.parametrize("row, scale", [(0, np.nan), (1, np.nan), (2, np.nan), (0, 1.0 + 1e-6)],
                         ids=["psi-nan", "b1-nan", "b2-nan", "psi-drift"])
def test_row_breach_raises_within_one_stride(reduced_collinear, reduced_grid, monkeypatch,
                                             row, scale):
    # the calling thread checks psi's norm and that psi and b are finite
    # every HEALTH_STRIDE steps, on the thread that owns them
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    original = pt._propagate
    poisoned_step = 15
    calls = []

    def poisoned(st, phase):
        original(st, phase)
        calls.append(None)
        if len(calls) == 1 + poisoned_step:  # after the initial half step
            st[row] *= scale

    monkeypatch.setattr(pt, "_propagate", poisoned)
    dt = 0.2
    nan = math.isnan(scale)
    with pytest.raises(NormDriftError, match="non-finite" if nan else "drift") as info:
        pt.dyson_run(p, 1.5 * p.tau2, ff, reduced_grid, 1, dt)
    err = info.value
    assert poisoned_step * dt <= err.t <= (poisoned_step + pt.HEALTH_STRIDE) * dt * (1 + 1e-12)
    assert len(calls) <= 1 + poisoned_step + pt.HEALTH_STRIDE
    assert err.n_max == 1 and math.isfinite(err.norm) != nan


@pytest.mark.parametrize("mid", [False, True], ids=["one-time", "two-time"])
def test_non_finite_joint_block_raises_at_next_requested_time(reduced_collinear, reduced_grid,
                                                             monkeypatch, mid):
    # the joint block lives on the worker; a NaN there fails the pass at the
    # first requested time after it, once every source up to it is added:
    # at the end of a one-time pass
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    original = pt._add_spectrum
    calls = []

    def poisoned(acc, values, phase, spectrum):
        original(acc, values, phase, spectrum)
        calls.append(None)
        if len(calls) == 5:
            acc[0, 0, 0] = np.nan

    monkeypatch.setattr(pt, "_add_spectrum", poisoned)
    t, snapshot_times = 1.5 * p.tau2, (0.75 * p.tau2,) if mid else ()
    with pytest.raises(NormDriftError, match="non-finite") as info:
        pt.dyson_run(p, t, ff, reduced_grid, 1, 0.2, snapshot_times)
    err = info.value
    _, first, steps = time_segments(0.0, t, snapshot_times, 0.2)[0]
    assert err.t == first and err.n_max == 1 and not math.isfinite(err.norm)
    assert len(calls) == steps


def test_snapshot_equals_one_time_run(reduced_collinear, reduced_grid):
    # the segment up to the first requested time is the one-time run op for
    # op; the pass forms one state at each time, in time order, the final
    # one among them
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 2)
    t_mid, t_end = 0.75 * p.tau2, 1.5 * p.tau2
    direct, _ = pt.dyson_run(p, t_mid, ff, reduced_grid, 2, 0.2)
    states, _ = pt.dyson_run(p, t_end, ff, reduced_grid, 2, 0.2, snapshot_times=(t_end, t_mid))
    assert [(t, s.t) for t, s in states.items()] == [(t_mid, t_mid), (t_end, t_end)]
    assert np.array_equal(states[t_mid].amplitudes, direct[t_mid].amplitudes)
    with pytest.raises(ValueError, match="snapshot times"):
        pt.dyson_run(p, t_mid, ff, reduced_grid, 2, 0.2, snapshot_times=(t_end,))


def test_converged_run_one_pass_for_every_time(reduced_collinear, reduced_grid, monkeypatch):
    p = reduced_collinear
    calls = []
    dyson_run = pt.dyson_run
    monkeypatch.setattr(pt, "dyson_run", lambda *a, **k: calls.append(a) or dyson_run(*a, **k))
    times = (0.75 * p.tau2, 1.5 * p.tau2)
    rtol = 1e-3
    states, record = pt.converged_dyson_run(p, reduced_grid, form_factor_pair(p, reduced_grid, 1),
                                            1, 0.4, times, rtol)
    halving = record["halving"]
    assert len(calls) >= 2
    assert [(t, s.t) for t, s in states.items()] == [(t, t) for t in times]
    # one entry per pass and time, ordered by time, then pass
    assert [h["t"] for h in halving] == [t for t in times for _ in calls]
    for t in times:
        passes = [h for h in halving if h["t"] == t]
        assert passes[0]["rel_change"] is None
        for prev, cur in zip(passes, passes[1:]):
            assert cur["dt"] == pytest.approx(prev["dt"] / 2.0, rel=1e-12)
    assert max(h["rel_change"] for h in halving[len(calls) - 1::len(calls)]) <= rtol


def test_max_rel_change_is_relative():
    assert pt._max_rel_change({"a": 1.0}, {"a": 1.0 + 1e-6}) == pytest.approx(1e-6, rel=1e-5)


def test_dyson_run_rejects_tables_on_another_grid(reduced_collinear, reduced_grid):
    # tables on a wider grid with the same points would be read point by
    # point as if on this one, and give a wrong P10 without a word
    p = reduced_collinear
    g = reduced_grid
    wide = SpatialGrid(1.25 * g.x_min, 1.25 * g.x_max, g.n_points)
    with pytest.raises(GridError, match="grid"):
        pt.dyson_run(p, 1.5 * p.tau2, form_factor_pair(p, wide, 1), g, 1, 0.2)


def test_non_finite_form_factor_table_rejected(reduced_collinear, reduced_grid):
    # a NaN table would otherwise empty the kick slab and report P = 0
    p = reduced_collinear
    ff1, ff2 = form_factor_pair(p, reduced_grid, 1)
    values = ff1.values.copy()
    values[1, 0, reduced_grid.n_points // 2] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        pt.dyson_run(p, 1.5 * p.tau2, (replace(ff1, values=values), ff2), reduced_grid, 1, 0.2)


def test_failed_dyson_run_leaves_no_reference_cycle(reduced_collinear, reduced_grid,
                                                    monkeypatch):
    # a cycle through the worker's error would keep the run's arrays alive
    # until the garbage collector runs
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)

    def failing(acc, values, phase, spectrum):
        raise ZeroDivisionError("worker failed")

    monkeypatch.setattr(pt, "_add_spectrum", failing)
    raised = None
    gc.collect()
    gc.disable()
    try:
        try:
            pt.dyson_run(p, 1.5 * p.tau2, ff, reduced_grid, 1, 0.2)
        except ZeroDivisionError as exc:
            raised = str(exc)
        assert raised == "worker failed"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_converged_run_drops_previous_pass_fields(reduced_collinear, reduced_grid,
                                                  monkeypatch):
    # only the previous pass's probabilities outlive it: its fields are freed
    # before the next pass runs
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    refs = []
    dyson_run = pt.dyson_run

    def tracked(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in refs), "an earlier pass's amplitudes are alive"
        states, record = dyson_run(*args, **kwargs)
        refs.extend(weakref.ref(s.amplitudes) for s in states.values())
        return states, record

    monkeypatch.setattr(pt, "dyson_run", tracked)
    monkeypatch.setattr(pt, "MAX_HALVINGS", 2)
    times = (0.75 * p.tau2, 1.5 * p.tau2)
    with pytest.raises(QuadratureError):
        pt.converged_dyson_run(p, reduced_grid, ff, 1, 0.4, times, 0.0)
    assert len(refs) == 3 * len(times)


# ---------------------------------------------------------------------------
# histories


def _pt_histories(p):
    """(p_none, p_right_only, p_left_only, p_both) of the collinear PT
    scenario at 1.5 tau2, n_max 2, on the reduced grid."""
    spec = ex.ScenarioSpec(case=ex.COLLINEAR, params=p, epsilon=0.2, engine="pt",
                           numerics=ex.NumericSettings(n_max=2))
    [hist] = ex.run_scenario(spec).engines["pt"].histories.values()
    return hist


def test_histories_zero_coupling(reduced_collinear):
    assert _pt_histories(replace(reduced_collinear, lam=0.0)) == (1.0, 0.0, 0.0, 0.0)


def test_histories_sum_to_one(reduced_collinear):
    p_none, p_right, p_left, p_both = _pt_histories(reduced_collinear)
    assert p_none + p_right + p_left + p_both == pytest.approx(1.0, abs=1e-12)
    assert p_right > 0
    assert p_left > 0
    assert p_both > 0
    assert p_both < min(p_right, p_left)


def test_histories_parity(reduced_opposite, reduced_grid):
    # the mirrored setup (a1, a2) -> (-a1, -a2) is no scenario geometry, so
    # both runs go through the engine directly; every channel and every
    # history agrees
    p = reduced_opposite
    t = 1.5 * p.tau2
    base, reflected = (pt.converged_dyson_run(q, reduced_grid, form_factor_pair(q, reduced_grid, 2),
                                              2, None, (t,), 1e-3)[0][t]
                       for q in (p, mirrored(p)))
    a, b = channel_probabilities(base), channel_probabilities(reflected)
    assert a.keys() == b.keys()
    for key in a:
        assert a[key] == pytest.approx(b[key], abs=1e-9), key
    sums_a, sums_b = history_sums(a), history_sums(b)
    for key in ("right", "left", "both"):
        assert sums_a[key] == pytest.approx(sums_b[key], abs=1e-9), key


# ---------------------------------------------------------------------------
# quadrature control


def test_quadrature_convergence_error(reduced_collinear, reduced_grid, monkeypatch):
    p = reduced_collinear
    monkeypatch.setattr(pt, "MAX_HALVINGS", 1)
    with pytest.raises(QuadratureError):
        pt.converged_dyson_run(p, reduced_grid, form_factor_pair(p, reduced_grid, 1), 1, None,
                               (p.tau2,), 0.0)


def test_converged_run_reports_step(reduced_collinear, reduced_grid, monkeypatch):
    p = reduced_collinear
    calls = []
    dyson_run = pt.dyson_run
    monkeypatch.setattr(pt, "dyson_run", lambda *a, **k: calls.append(a) or dyson_run(*a, **k))
    _, record = pt.converged_dyson_run(p, reduced_grid, form_factor_pair(p, reduced_grid, 1), 1,
                                       None, (p.tau2,), 1e-3)
    halving = record["halving"]
    assert 0.0 < halving[-1]["dt"] < pt.default_duhamel_step(p)
    # one halving entry per pass, each step half the last, the last accepted
    assert len(halving) == len(calls) >= 2
    assert halving[0]["rel_change"] is None and halving[0]["obs_change"] is None
    for prev, cur in zip(halving, halving[1:]):
        assert cur["dt"] == pytest.approx(prev["dt"] / 2.0, rel=1e-12)
    # whole steps of the accepted dt reach the evaluation time
    assert p.tau2 / halving[-1]["dt"] == pytest.approx(round(p.tau2 / halving[-1]["dt"]),
                                                       rel=1e-12)
    assert all(h["t"] == p.tau2 for h in halving)
    assert halving[-1]["rel_change"] <= 1e-3

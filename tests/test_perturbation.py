"""Dyson engine: free propagator, kick accumulation, scaling structure."""

import math
from dataclasses import replace

import numpy as np
import pytest

import mott1d.perturbation as pt
from mott1d import experiments as ex
from mott1d.channels import form_factor_pair
from mott1d.core import (
    ModelParams,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    make_gaussian_packet,
    make_spherical_wave_1d,
    free_spread,
    suggest_grid,
)
from oracles import free_two_packet, reference_dyson_stack


@pytest.fixture(scope="module")
def free_params():
    return ModelParams(M=1.0, m=0.2, omega=0.2, lam=0.0, delta=5.0, sigma=1.0,
                       P0=2.0, a1=25.0, a2=50.0)


# ---------------------------------------------------------------------------
# free propagator


def test_free_propagate_zero_time_is_identity(free_params):
    g = SpatialGrid.symmetric(64.0, 2048)
    psi = make_gaussian_packet(g, 1.0, 2.0)
    out = pt.free_propagate(psi, 0.0, free_params)
    assert np.max(np.abs(out.values - psi.values)) <= 1e-14


def test_free_propagate_center_and_width(free_params):
    g = SpatialGrid.symmetric(64.0, 4096)
    p = free_params
    psi = make_gaussian_packet(g, p.sigma, p.P0, hbar=p.hbar)
    t = 5.0
    out = pt.free_propagate(psi, t, p)
    x = g.points
    rho = out.density() * g.dx
    mean = float(np.sum(rho * x))
    spread = math.sqrt(float(np.sum(rho * (x - mean) ** 2)))
    assert mean == pytest.approx(p.v0 * t, abs=1e-9)
    assert spread == pytest.approx(free_spread(p.sigma, t, p.hbar, p.M) / math.sqrt(2.0),
                                   abs=1e-9)


def test_free_propagate_group_property(free_params):
    g = SpatialGrid.symmetric(64.0, 2048)
    psi = make_gaussian_packet(g, 1.0, 2.0)
    out = pt.free_propagate(pt.free_propagate(psi, 3.7, free_params), -3.7, free_params)
    assert np.max(np.abs(out.values - psi.values)) <= 1e-12


def test_dyson_free_row_honours_hbar(free_params):
    # the unkicked row is the free two-packet state times the ground-state
    # energy phase, for any hbar (the kinetic term carries hbar k^2 / 2M)
    p = replace(free_params, hbar=0.5, lam=1e-3)
    g = SpatialGrid.symmetric(64.0, 2048)
    t = 5.0
    run = pt.dyson_run(p, t, form_factor_pair(p, g, 1), g, n_max=1)
    e00 = p.hbar * p.omega  # two oscillators at hbar omega / 2 each
    exact = np.exp(-1j * e00 * t / p.hbar) * free_two_packet(g.points, t, p.sigma, p.P0,
                                                              p.hbar, p.M)
    assert np.max(np.abs(run.psi_free - exact)) <= 1e-10
    psi0 = make_spherical_wave_1d(g, p.sigma, p.P0, p.hbar)
    free = pt.free_propagate(psi0, t, p).values
    assert np.max(np.abs(run.psi_free - np.exp(-1j * e00 * t / p.hbar) * free)) <= 1e-12


# ---------------------------------------------------------------------------
# first order


def test_first_order_zero_coupling(reduced_collinear, reduced_grid):
    p = replace(reduced_collinear, lam=0.0)
    amp = pt.first_order_amplitude((1, 0), 0.5 * p.tau2, p, grid=reduced_grid)
    assert np.all(amp.amplitude.values == 0.0)
    assert amp.probability == 0.0


def test_first_order_lambda_doubling_quadruples_exactly(reduced_collinear, reduced_grid):
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    t = p.tau2
    a1 = pt.first_order_amplitude((1, 0), t, p, ff, grid=reduced_grid)
    a2 = pt.first_order_amplitude((1, 0), t, replace(p, lam=2.0 * p.lam), ff,
                                  grid=reduced_grid)
    assert a2.probability == 4.0 * a1.probability


def test_first_order_rejects_bad_target(reduced_collinear, reduced_grid):
    with pytest.raises(ValueError):
        pt.first_order_amplitude((1, 1), 10.0, reduced_collinear, grid=reduced_grid)
    with pytest.raises(ValueError):
        pt.first_order_amplitude((0, 0), 10.0, reduced_collinear, grid=reduced_grid)


def test_first_order_grows_after_arrival():
    # before the packet reaches a1 the excitation is tail-suppressed by >= 1e3
    p = m_default_collinear_eps01()
    grid = suggest_grid(p, 2.0 * p.tau1)
    ff = form_factor_pair(p, grid, 1)
    early = pt.first_order_amplitude((1, 0), 0.5 * p.tau1, p, ff, grid=grid)
    late = pt.first_order_amplitude((1, 0), 2.0 * p.tau1, p, ff, grid=grid)
    assert late.probability >= 1e3 * early.probability


def m_default_collinear_eps01():
    import mott1d.experiments as ex
    return ex.default_params("collinear", epsilon=0.1)


# ---------------------------------------------------------------------------
# second order


def test_second_order_zero_coupling(reduced_collinear, reduced_grid):
    p = replace(reduced_collinear, lam=0.0)
    amp = pt.second_order_joint_amplitude((1, 1), 1.5 * p.tau2, p, grid=reduced_grid)
    assert np.all(amp.amplitude.values == 0.0)
    assert amp.probability == 0.0


def test_second_order_lambda_fourth_power(reduced_collinear, reduced_grid):
    p = reduced_collinear
    ff = form_factor_pair(p, reduced_grid, 1)
    t = 1.5 * p.tau2
    probs = {}
    for lam in (5e-4, 1e-3, 3e-3):
        amp = pt.second_order_joint_amplitude((1, 1), t, replace(p, lam=lam), ff,
                                              grid=reduced_grid)
        probs[lam] = amp.probability
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
    amp = pt.second_order_joint_amplitude((1, 1), t, p, ff, grid=reduced_grid)
    p12 = amp.ordering_probabilities["1->2"]
    p21 = amp.ordering_probabilities["2->1"]
    assert p21 > 0
    assert p12 > 1e3 * p21
    assert amp.probability == pytest.approx(p12, rel=0.05)
    ref = _reference(p, t, ff, reduced_grid, 1, amp.quadrature_step)
    assert p12 == pytest.approx(_norm_sq(ref["c12"][1, 1], reduced_grid), rel=1e-12)
    assert p21 == pytest.approx(_norm_sq(ref["c21"][1, 1], reduced_grid), rel=1e-12)


def test_second_order_warns_before_tau2(reduced_collinear, reduced_grid):
    p = reduced_collinear
    with pytest.warns(UserWarning):
        pt.second_order_joint_amplitude((1, 1), 0.5 * p.tau2, p, grid=reduced_grid)


def test_second_order_rejects_single_excitation(reduced_collinear, reduced_grid):
    with pytest.raises(ValueError):
        pt.second_order_joint_amplitude((1, 0), 10.0, reduced_collinear,
                                        grid=reduced_grid)


def _norm_sq(values, grid):
    return float(np.sum(np.abs(values) ** 2)) * grid.dx


def _reference(p, t, ff, grid, n_max, dt, on_kick_slabs=False):
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


@pytest.mark.parametrize("case, shape, n_max, hbar, dt", _REFERENCE_CASES)
def test_dyson_run_matches_reference_kernel(case, shape, n_max, hbar, dt):
    p = replace(ex.default_params(case, epsilon=0.2), hbar=hbar)
    t = 1.5 * p.tau2
    grid = suggest_grid(p, t)
    ff = form_factor_pair(p, grid, n_max, shape)
    ref = _reference(p, t, ff, grid, n_max, dt)
    run = pt.dyson_run(p, t, ff, grid, n_max, dt)
    for (n1, n2), prob in run.probabilities().items():
        if n2 == 0:
            expected = _norm_sq(ref["b1"][n1], grid)
        elif n1 == 0:
            expected = _norm_sq(ref["b2"][n2], grid)
        else:
            expected = _norm_sq(ref["c12"][n1, n2] + ref["c21"][n1, n2], grid)
        assert prob == pytest.approx(expected, rel=1e-12), (n1, n2)

    # split orderings: each matches the reference's own ordering.  The kick
    # drops form-factor tails below KICK_FLOOR of their maximum, an error at
    # rounding level relative to the channel's joint amplitude; an ordering
    # many orders below the other (2->1 in the opposite geometry, 1e-13 of
    # 1->2) is therefore held to 1e-12 of the channel, not of itself
    split = pt.dyson_run(p, t, ff, grid, n_max, dt, split_orderings=True)
    assert split.joint.shape[0] == 2
    for n1 in range(1, n_max + 1):
        for n2 in range(1, n_max + 1):
            want = [_norm_sq(ref[key][n1, n2], grid) for key in ("c12", "c21")]
            got = [_norm_sq(c, grid) for c in split.joint[:, n1, n2]]
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=0, abs=1e-12 * sum(want)), (n1, n2)
            assert split.joint_probability((n1, n2)) == pytest.approx(
                run.joint_probability((n1, n2)), rel=1e-12)

    # amplitudes, phases included, to 1e-12 of each channel's peak (summed
    # over orderings).  Against the full tables the dropped tails reach 5e-12
    # of the suppressed opposite-geometry joint peak, so the fields are
    # compared with the reference kicking on the engine's own slabs
    ref = _reference(p, t, ff, grid, n_max, dt, on_kick_slabs=True)
    for n in range(1, n_max + 1):
        for got, want, label in ((run.b1[n], ref["b1"][n], ("b1", n)),
                                 (run.b2[n], ref["b2"][n], ("b2", n))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), label
    for n1 in range(1, n_max + 1):
        for n2 in range(1, n_max + 1):
            c12, c21 = ref["c12"][n1, n2], ref["c21"][n1, n2]
            tol = 1e-12 * (np.max(np.abs(c12)) + np.max(np.abs(c21)))
            for got, want, label in ((run.joint[0, n1, n2], c12 + c21, "sum"),
                                     (split.joint[0, n1, n2], c12, "1->2"),
                                     (split.joint[1, n1, n2], c21, "2->1")):
                assert np.max(np.abs(got - want)) <= tol, (label, n1, n2)


def test_dyson_order_validation():
    with pytest.raises(ValueError):
        pt.DysonOrder(3)
    with pytest.raises(ValueError):
        pt.DysonOrder(2, "simultaneous")
    assert pt.DysonOrder(2, "1->2").ordering == "1->2"


# ---------------------------------------------------------------------------
# histories


def test_histories_zero_coupling(reduced_collinear, reduced_grid):
    p = replace(reduced_collinear, lam=0.0)
    hist = pt.history_probabilities(1.5 * p.tau2, p, n_max=2, grid=reduced_grid)
    assert hist.as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_histories_sum_to_one(reduced_collinear, reduced_grid):
    p = reduced_collinear
    hist = pt.history_probabilities(1.5 * p.tau2, p, n_max=2, grid=reduced_grid)
    assert sum(hist.as_tuple()) == pytest.approx(1.0, abs=1e-12)
    assert hist.p_right_only > 0
    assert hist.p_left_only > 0
    assert hist.p_both > 0
    assert hist.p_both < min(hist.p_right_only, hist.p_left_only)


def test_histories_parity(reduced_opposite, reduced_grid):
    p = reduced_opposite
    t = 1.5 * p.tau2
    base = pt.history_probabilities(t, p, n_max=2, grid=reduced_grid)
    mirrored = pt.history_probabilities(t, p.mirrored(), n_max=2, grid=reduced_grid)
    for a, b in zip(base.as_tuple(), mirrored.as_tuple()):
        assert a == pytest.approx(b, abs=1e-9)


# ---------------------------------------------------------------------------
# quadrature control


def test_quadrature_convergence_error(reduced_collinear, reduced_grid):
    p = reduced_collinear
    with pytest.raises(QuadratureError):
        pt.converged_dyson_run(p, p.tau2, grid=reduced_grid, n_max=1,
                               rtol=0.0, max_halvings=1)


def test_converged_run_reports_step(reduced_collinear, reduced_grid):
    p = reduced_collinear
    amp = pt.first_order_amplitude((1, 0), p.tau2, p, grid=reduced_grid)
    assert amp.converged
    assert 0.0 < amp.quadrature_step < pt.default_duhamel_step(p)


def test_amplitude_json_report(reduced_collinear, reduced_grid):
    import json

    p = reduced_collinear
    amp = pt.second_order_joint_amplitude((1, 1), 1.5 * p.tau2, p, grid=reduced_grid)
    report = amp.as_report()
    assert {"order", "n1", "n2", "t", "P", "quadrature_step", "converged"} <= set(report)
    assert report["order"] == 2
    assert (report["n1"], report["n2"]) == (1, 1)
    assert report["P"] == amp.probability
    json.dumps(report)  # serializable as-is

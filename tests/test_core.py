"""Packets, grids, oscillator basis and the position-space diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mott1d.core import (
    NORM_TOLERANCE,
    ComplexField,
    GridError,
    ModelParams,
    NormDriftError,
    OscillatorBasis,
    SpatialGrid,
    born_probability,
    check_norm,
    dimensionless_group,
    free_spread,
    hermite_functions,
    make_spherical_wave_1d,
)
from oracles import (eigenfunctions, fd_momentum_moments, make_gaussian_packet, mirror,
                     spherical_wave_norm_sq, uncertainty_product)


def grid_for_packet(sigma=1.0, x_max=32.0, n=2048):
    return SpatialGrid.symmetric(x_max, n)


# ---------------------------------------------------------------------------
# grid


def test_grid_requires_power_of_two():
    with pytest.raises(ValueError):
        SpatialGrid.symmetric(10.0, 1000)
    with pytest.raises(ValueError):
        SpatialGrid(1.0, -1.0, 256)


def test_grid_points_and_mirror_are_exact():
    g = SpatialGrid.symmetric(32.0, 256)
    x = g.points
    assert x[g.n_points // 2] == 0.0
    # x_j = -x_(n-j): the reflection about the origin maps points to points
    np.testing.assert_array_equal(x[:0:-1], -x[1:])


def test_field_requires_matching_shape_and_is_readonly():
    g = grid_for_packet()
    with pytest.raises(GridError):
        ComplexField(g, np.zeros(7))
    f = ComplexField(g, np.ones(g.n_points))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


# ---------------------------------------------------------------------------
# gaussian packet


def test_gaussian_packet_zero_momentum_is_real_and_even():
    g = grid_for_packet()
    psi = make_gaussian_packet(g, sigma=1.0, P0=0.0)
    assert np.max(np.abs(psi.values.imag)) == 0.0
    assert np.max(np.abs(psi.values - mirror(psi.values))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(sigma=st.floats(0.5, 2.0), p0=st.floats(0.0, 4.0),
       sign=st.sampled_from([+1, -1]))
def test_gaussian_packet_unit_norm(sigma, p0, sign):
    g = grid_for_packet()
    psi = make_gaussian_packet(g, sigma=sigma, P0=p0, momentum_sign=sign)
    assert abs(psi.norm() - 1.0) <= 1e-12


def test_gaussian_packet_minimum_uncertainty():
    g = grid_for_packet()
    psi = make_gaussian_packet(g, sigma=1.0, P0=1.0, hbar=1.0)
    _, _, product = uncertainty_product(psi, hbar=1.0)
    assert abs(product - 0.5) <= 1e-10


def test_gaussian_packet_grid_too_narrow():
    g = SpatialGrid.symmetric(3.0, 64)
    with pytest.raises(GridError):
        make_gaussian_packet(g, sigma=1.0, P0=1.0)


# ---------------------------------------------------------------------------
# two-packet superposition


def test_spherical_wave_is_even_pointwise():
    g = grid_for_packet()
    psi = make_spherical_wave_1d(g, sigma=1.0, P0=5.0)
    assert np.max(np.abs(psi.values - mirror(psi.values))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(sigma=st.floats(0.5, 2.0), p0=st.floats(0.0, 6.0))
def test_spherical_wave_unit_norm(sigma, p0):
    g = grid_for_packet()
    psi = make_spherical_wave_1d(g, sigma=sigma, P0=p0)
    assert abs(psi.norm() - 1.0) <= 1e-12


def test_spherical_wave_normalization_against_closed_form():
    # the numeric normalizer must reproduce the analytic overlap integral
    g = grid_for_packet(x_max=32.0, n=4096)
    sigma, p0, hbar = 1.0, 5.0, 1.0
    x = g.points
    unnormalized = (np.exp(-x ** 2 / (2 * sigma ** 2)) / math.sqrt(sigma)
                    * 2.0 * np.cos(p0 * x / hbar))
    norm_sq = float(np.sum(np.abs(unnormalized) ** 2) * g.dx)
    assert norm_sq == pytest.approx(spherical_wave_norm_sq(sigma, p0, hbar), abs=1e-10)


# ---------------------------------------------------------------------------
# oscillator basis


def test_ground_state_value_at_center():
    basis = OscillatorBasis(a=0.0, m=1.0, omega=1.0, hbar=1.0, n_max=2)
    g = SpatialGrid.symmetric(16.0, 1024)
    phi0 = eigenfunctions(basis, g.points)[0]
    at_zero = phi0[g.n_points // 2]
    assert at_zero == pytest.approx(np.pi ** -0.25, abs=1e-12)


def test_first_excited_vanishes_at_center():
    basis = OscillatorBasis(a=0.0, m=1.0, omega=1.0, hbar=1.0, n_max=2)
    g = SpatialGrid.symmetric(16.0, 1024)
    phi1 = eigenfunctions(basis, g.points)[1]
    assert phi1[g.n_points // 2] == 0.0


def test_orthonormality_up_to_ten():
    basis = OscillatorBasis(a=1.7, m=0.4, omega=0.9, hbar=1.0, n_max=10)
    span = 14.0 * basis.length
    g = SpatialGrid(basis.a - span, basis.a + span, 4096)
    phi = eigenfunctions(basis, g.points)
    gram = phi @ phi.T * g.dx
    assert np.max(np.abs(gram - np.eye(11))) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 8), a=st.floats(-3.0, 3.0))
def test_parity_about_center(n, a):
    basis = OscillatorBasis(a=a, m=1.0, omega=1.0, hbar=1.0, n_max=8)
    s = np.linspace(0.1, 5.0, 40)
    left = eigenfunctions(basis, a - s)[n]
    right = eigenfunctions(basis, a + s)[n]
    np.testing.assert_allclose(right, (-1.0) ** n * left, rtol=0, atol=1e-12)


def test_energies():
    basis = OscillatorBasis(a=0.0, m=1.0, omega=0.5, hbar=2.0, n_max=3)
    np.testing.assert_allclose(basis.energies, [0.5, 1.5, 2.5, 3.5])


def test_hermite_recurrence_stable_to_high_order():
    xi = np.linspace(-20.0, 20.0, 8001)  # turning point of n=100 is at ~14.2
    h = hermite_functions(xi, 100)
    assert np.all(np.isfinite(h))
    dxi = xi[1] - xi[0]
    assert float(np.sum(h[100] ** 2) * dxi) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# born probability


def test_born_full_grid_is_one():
    g = grid_for_packet()
    psi = make_spherical_wave_1d(g, 1.0, 3.0)
    assert born_probability(psi, [(g.x_min, g.x_max)]) == pytest.approx(1.0, abs=1e-10)


def test_born_complement_additivity():
    g = grid_for_packet()
    psi = make_gaussian_packet(g, 1.0, 2.0)
    cut = 0.37
    p_left = born_probability(psi, [(g.x_min, cut)])
    p_right = born_probability(psi, [(cut, g.x_max)])
    assert p_left + p_right == pytest.approx(1.0, abs=1e-10)


def test_born_even_state_half_line():
    g = grid_for_packet()
    psi = make_spherical_wave_1d(g, 1.0, 5.0)
    assert born_probability(psi, [(0.0, g.x_max)]) == pytest.approx(0.5, abs=1e-8)


def test_born_outside_grid():
    g = grid_for_packet()
    psi = make_gaussian_packet(g, 1.0, 0.0)
    with pytest.raises(GridError):
        born_probability(psi, [(0.0, g.x_max + 5.0)])


@settings(max_examples=25, deadline=None)
@given(lo=st.floats(-20.0, 18.0), width=st.floats(0.1, 10.0), shrink=st.floats(0.0, 0.9))
def test_born_monotone_under_inclusion(lo, width, shrink):
    g = grid_for_packet()
    psi = make_gaussian_packet(g, 1.0, 1.0)
    hi = lo + width
    inner = (lo + shrink * width / 2, hi - shrink * width / 2)
    assert born_probability(psi, [inner]) <= born_probability(psi, [(lo, hi)]) + 1e-12


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-15.0, 14.0), b=st.floats(0.05, 8.0), c=st.floats(0.05, 8.0))
def test_born_additive_over_disjoint(a, b, c):
    g = grid_for_packet()
    psi = make_gaussian_packet(g, 1.0, 1.0)
    p_union = born_probability(psi, [(a, a + b), (a + b, a + b + c)])
    p_whole = born_probability(psi, [(a, a + b + c)])
    assert p_union == pytest.approx(p_whole, abs=1e-10)


# ---------------------------------------------------------------------------
# interference


def test_fringe_spacing_matches_momentum():
    # zero crossings of the psi+/psi- cross term sit pi*hbar/(2 P0) apart,
    # so the fringe period (two crossings) is pi*hbar/P0
    g = grid_for_packet(x_max=32.0, n=4096)
    p0, hbar = 5.0, 1.0
    plus = make_gaussian_packet(g, 1.0, p0, +1, hbar)
    minus = make_gaussian_packet(g, 1.0, p0, -1, hbar)
    # the cross term of |psi+ + psi-|^2
    cross_term = np.abs(plus.values + minus.values) ** 2 - plus.density() - minus.density()
    x = g.points
    window = np.abs(x) < 2.0
    cross = cross_term[window]
    signs = np.sign(cross)
    crossings = x[window][:-1][signs[:-1] * signs[1:] < 0]
    spacing = np.diff(crossings)
    fringe = 2.0 * float(np.mean(spacing))
    assert abs(fringe - math.pi * hbar / p0) <= g.dx


# ---------------------------------------------------------------------------
# uncertainty


def test_uncertainty_equality_for_gaussian():
    g = grid_for_packet()
    psi = make_gaussian_packet(g, 1.0, 2.0)
    result = uncertainty_product(psi)
    assert result.product == pytest.approx(0.5, abs=1e-9)


def test_uncertainty_scaling_with_sigma():
    g = grid_for_packet(x_max=64.0, n=4096)
    r1 = uncertainty_product(make_gaussian_packet(g, 1.0, 1.0))
    r2 = uncertainty_product(make_gaussian_packet(g, 2.0, 1.0))
    assert r2.delta_x == pytest.approx(2.0 * r1.delta_x, abs=1e-9)
    assert r2.delta_p == pytest.approx(0.5 * r1.delta_p, abs=1e-9)
    assert r2.product == pytest.approx(r1.product, abs=1e-9)


def test_uncertainty_spherical_wave_against_moment_oracle():
    g = grid_for_packet(x_max=32.0, n=8192)
    psi = make_spherical_wave_1d(g, 1.0, 5.0)  # P0 sigma / hbar = 5
    result = uncertainty_product(psi)
    _, dp_oracle = fd_momentum_moments(psi.values, g.dx)
    assert result.delta_p == pytest.approx(dp_oracle, rel=1e-8)
    dx_direct = math.sqrt(float(np.sum(psi.density() * g.points ** 2) * g.dx))
    assert result.product == pytest.approx(dx_direct * dp_oracle, rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(sigma=st.floats(0.6, 2.0), p0=st.floats(0.0, 5.0))
def test_uncertainty_lower_bound(sigma, p0):
    g = grid_for_packet(x_max=48.0, n=4096)
    psi = make_spherical_wave_1d(g, sigma, p0)
    assert uncertainty_product(psi).product >= 0.5 - 1e-9


def test_spectral_vs_finite_difference_momentum_spread():
    g = grid_for_packet(x_max=32.0, n=4096)
    psi = make_gaussian_packet(g, 1.0, 3.0)
    spectral = uncertainty_product(psi).delta_p
    _, fd = fd_momentum_moments(psi.values, g.dx)
    assert abs(spectral - fd) / spectral <= 1e-6


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    good = dict(M=1.0, m=0.1, omega=0.1, lam=1e-3, delta=10.0, sigma=10.0,
                P0=1.0, a1=100.0, a2=200.0)
    ModelParams(**good)
    for key, bad in [("M", 0.0), ("m", -1.0), ("omega", 0.0), ("sigma", -2.0),
                     ("P0", 0.0), ("lam", -1e-3), ("a1", 0.0), ("a2", 0.0)]:
        with pytest.raises(ValueError):
            ModelParams(**{**good, key: bad})
    with pytest.raises(ValueError):
        ModelParams(**{**good, "a2": good["a1"]})


def test_params_derived_quantities():
    p = ModelParams(M=2.0, m=0.1, omega=0.1, lam=0.0, delta=1.0, sigma=1.0,
                    P0=3.0, a1=5.0, a2=-10.0)
    assert p.v0 == 1.5
    assert p.tau2 == pytest.approx(10.0 / 1.5, rel=1e-15)
    assert p.tau1 == pytest.approx(5.0 / 1.5, rel=1e-15)


@settings(max_examples=25, deadline=None)
@given(m=st.floats(0.05, 0.5), omega=st.floats(0.05, 0.5), lam=st.floats(0.0, 0.1),
       sigma=st.floats(1.0, 20.0), a1=st.floats(1.0, 200.0))
def test_dimensionless_group_recomputes(m, omega, lam, sigma, a1):
    p = ModelParams(M=1.0, m=m, omega=omega, lam=lam, delta=sigma, sigma=sigma,
                    P0=1.0, a1=a1, a2=-2.0 * a1)
    g = dimensionless_group(p, 0.1)
    assert g["lambda0"] == lam / (p.M * p.v0 ** 2)
    assert g["sigma_over_a2"] == sigma / abs(p.a2)
    assert g["v0_over_omega_a1"] == p.v0 / (omega * a1)
    assert all(np.isfinite(v) and v >= 0 for v in g.values())


def test_free_spread_law():
    assert free_spread(2.0, 0.0, 1.0, 1.0) == 2.0
    assert free_spread(1.0, 3.0, 1.0, 1.0) == pytest.approx(math.sqrt(10.0))


# ---------------------------------------------------------------------------
# norm check


def test_check_norm():
    # a healthy state passes: the held norm within tolerance, any finite total
    check_norm(1.0, 1.0, 1.0, 2.5, 3)
    check_norm(1.0 + 0.5 * NORM_TOLERANCE, 2.0, 1.0, 2.5, 3)
    with pytest.raises(NormDriftError, match="norm drift .* at t=2.5") as info:
        check_norm(1.0 + 1e-6, 1.5, 1.0, 2.5, 3)
    assert (info.value.t, info.value.norm, info.value.n_max) == (2.5, 1.5, 3)
    # a non-finite total fails even when the held norm has not drifted
    for total in (math.nan, math.inf):
        with pytest.raises(NormDriftError, match="non-finite amplitudes") as info:
            check_norm(1.0, total, 1.0, 4.0, 2)
        assert info.value.t == 4.0 and info.value.n_max == 2
    with pytest.raises(NormDriftError, match="non-finite amplitudes"):
        check_norm(math.nan, math.nan, 1.0, 4.0, 2)

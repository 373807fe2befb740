"""Coupled-channel propagation of the full three-body state.

Projecting the total wave function onto the product basis of oscillator
eigenstates turns the three-coordinate Schrödinger equation into coupled 1D
channel equations for the amplitudes f_{n1 n2}(R, t):

    i hbar df/dt = [ -hbar^2/2M d^2/dR^2 + E_{n1} + E_{n2} ] f_{n1 n2}
                   + lam * sum_k V1_{n1 k}(R) f_{k n2}
                   + lam * sum_k V2_{n2 k}(R) f_{n1 k}

with the form factors V_i_{n n'}(R) = <phi_n | V((R - r)/delta) | phi_n'>.
The propagator takes composed fourth-order steps on the time grid PT steps
on too (``core.time_segments``): from one requested time to the next, the
fewest equal steps h no longer than dt, so it lands exactly on each.  Each
step of h is Yoshida's triple jump (Phys. Lett. A 150, 262, 1990) of Strang
steps S(W1 h) S(W0 h) S(W1 h), with W1 = 1/(2 - 2^(1/3)) and
W0 = 1 - 2 W1 < 0, and adjacent kinetic halves merge, so a step costs three
stages of one coupling and one kinetic factor each.  At each point the
channel matrix is H1(R) (x) I + I (x) H2(R) with H_i = diag(E_i) + lam V_i(R);
the two terms commute, so its exponential is exactly U1(R) (x) U2(R), one
(n_max+1)-dimensional exponential per oscillator.  Each is split as
U_i = D_i^(1/2) U_i' D_i^(1/2) with D_i = exp(-i tau E_i / hbar); the
diagonal energy phases D^(1/2) commute with the free step and ride on the
exact spectral kinetic factor, applied as a bare free phase per point and an
energy phase per channel row.  U_i' is eigendecomposed once per run on the
oscillator's slabs, the contiguous runs of points where its coupling exceeds
an error-budget floor, and the stage lengths W1 h and W0 h of every step are
built from the one decomposition; U_i' is the identity elsewhere, so points
far from both oscillators cost nothing beyond the free step.  A negative
stage is as exact as a positive one: the coupling factor is the exponential
of a Hermitian matrix for any real tau.

Off the slabs a channel moves freely, so the steps act only on a window of
the grid (after Heather and Metiu, J. Chem. Phys. 86, 5009, 1987): a
contiguous run of its points, with its dx, whose length has no prime factor
above 5, so that pocketfft transforms it fast.  The window holds the core,
the hull of both oscillators' slabs and of the entry state's support (the
points where some channel exceeds ``COUPLING_ERROR_BUDGET`` of the largest
amplitude), and a band at each end.  It is periodic in its own length, and
its kinetic factor is the exact spectral phase on its own wavenumbers.  Every
``every`` composed steps the bands' amplitude g = f s moves out of the
window, where s is an erf ramp from 0 in the core to 1 at the window's ends,
into one full-grid k-space accumulator per channel row:
A += exp(+i omega t) FFT(g on the grid), omega = hbar k^2/2M + E/hbar, with
t the window's time.  That is exact free flight, so the state at a requested
time is the window on the grid plus ifft(exp(-i omega t) A).  At entry the
part of the state off the window goes into A, so nothing is dropped.  The
band's constants follow from the budget and the run's scales, with
z = ``BUDGET_WIDTHS`` the widths at which a Gaussian falls to the budget:

* the ramp's Gaussian width is w = sqrt(hbar T / M) / 2 for a run of length
  T.  A carried piece found d past the core travelled at least d from it, so
  to come back within the run it must turn by at least 4 M d / (hbar T) in
  wavenumber; the ramp spreads wavenumbers by a Gaussian of width 1/w, which
  holds that turn to the budget once d = z w;
* the ramp's centre lies d = z w past the core, where s falls to the budget;
* between carries, content moves out by at most its speed times ``every``
  steps; a wavenumber a fraction u of the way to the budget level of the
  packet's and the ramp's spread about P0/hbar carries amplitude
  budget^(u^2), and each carry multiplies what stays by 1 - s, so the band
  reaches past the ramp until, for every u, the product of those factors
  falls to the budget before the content reaches the window's end, where it
  would wrap round to the other end;
* ``every`` balances a carry's full-grid transforms against the window
  points that the content's travel between carries adds.

A window that would not fit inside the grid is the grid, on the same code,
with no bands.  The carried part's squared norm and its overlap with the
window change only at a carry, where the carry's own transform updates
them; between carries both parts move under the same free flight off the
slabs, so their overlap holds to the budget.  The in-run checks therefore
read the whole state's norms with no transform, and each requested time's
check reads the state as it is formed.

Each stage runs on the calling thread and transforms its rows in place
(numpy's ``out=``) in ``evolve``'s private copy of the window, so a stage
allocates no spectrum.

Both engines step on the coarsest grid of the same box that holds the
band (Fourier-grid sampling: Kosloff and Kosloff, J. Comput. Phys. 52, 35,
1983), picked by one rule, ``band_sampling``, that their entry points
apply: ``evolve_with_escalation`` to each attempt's own tables and
``perturbation.converged_dyson_run`` once per ladder.  On the N-point grid
of record the packet's spectrum vanishes, to ``COUPLING_ERROR_BUDGET`` of
its peak, beyond the wavenumber index K_psi, and every table row's beyond
K_g.  The free step only rephases each wavenumber, and a pointwise product
adds the bands of its factors.  The rule takes M = N / 2^j points, the
fewest with M/2 > K_psi + 2 K_g, and reads the tables at every (N/M)-th
point; the packet built on the M points is its samples to rounding.  The
same box at M points has the wavenumbers 2 pi j / L for |j| < M/2, so
while a state's band stays below M/2 its samples are the whole state: a
pointwise product of samples is the sample of the product, and each
transform is the N-point one restricted to |j| < M/2 and scaled by M/N.
``on_grid`` takes each requested state back to the grid of record, each
row's spectrum zero-padded to N points.  A band that fills the grid gives
M = N.  Every engine call returns ``(states, record)``: the states keyed
by time and a plain dict of the steps, window and attempts that made them.

PT's widest product is its joint source (g2 b1, g1 b2 or g1 g2 psi), of
band K_psi + 2 K_g, so nothing it forms folds.  The oracle's coupling
factor is a power series in lam V(R) at each point: for a stage of length
tau its k-th term is a product of k table rows, of band k K_g and size at
most x^k / k!, x = tau lam max|V| / hbar.  So the state's part of order k
in lam has band K_psi + k K_g: up to k = 2 it stays below M/2, and only
what the orders from 3 on, x^3 / 6 per stage or less, put past M/2 can
fold.  That is far less than those orders: for Gaussian rows a k-fold
product falls to the budget near sqrt(k) K_g, not k K_g.  The margin,
measured at lambda0 = 0.05 (epsilon 0.2, 8192 points, n_max 4, dt 0.5,
both geometries), where x is 0.028 and x^3 / 6 is 3.5e-6: on the rule's
M = 1024 no amplitude moves by more than 1.1e-14 against ``evolve`` on
all 8192 points; on M = 512 none moves by more than 2.8e-12; M = 256 fails the norm check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    ComplexField,
    GridError,
    ModelParams,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    TruncationError,
    _at_breach,
    check_norm,
    hermite_functions,
    kinetic_phase,
    l2_norm,
    make_spherical_wave_1d,
    time_segments,
)


# ---------------------------------------------------------------------------
# interaction potential


def _gaussian_profile(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.asarray(x, dtype=float) ** 2 / 2.0)


def _bump_profile(x: np.ndarray) -> np.ndarray:
    # compactly supported on (-1, 1), normalized to 1 at the origin
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi ** 2))
    return out


POTENTIAL_SHAPES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "gaussian": _gaussian_profile,
    "bump": _bump_profile,
}


# ---------------------------------------------------------------------------
# form factors

# build_form_factors doubles its nodes from QUAD_START_NODES to QUAD_MAX_NODES
QUAD_TOL = 1e-10
QUAD_START_NODES = 16
QUAD_MAX_NODES = 256


@dataclass(frozen=True)
class FormFactorTable:
    """V_{n n'}(R) for one oscillator, on every grid point.

    ``values[n, n', j]`` is the matrix element of the bare (unit-strength)
    potential between levels n and n' at grid point j; multiply by lam for
    the physical coupling.  Exactly symmetric in (n, n').
    """

    n_max: int
    grid: SpatialGrid
    values: np.ndarray = field(repr=False)
    shape: str = "gaussian"


def build_form_factors(params: ModelParams, basis: OscillatorBasis, grid: SpatialGrid,
                       shape: str = "gaussian") -> FormFactorTable:
    """Quadrature of the potential matrix elements.

    In the scaled oscillator coordinate xi = (r - a)/l the element is the
    integral of h_n(xi) h_n'(xi) V((R - a - l*xi)/delta) dxi.  The Gaussian
    profile is integrated with Gauss–Hermite nodes in xi (weights corrected
    for the Gaussian already inside the Hermite functions).  The bump
    vanishes outside |u| < 1, u = (R - a - l*xi)/delta, where Gauss–Hermite
    nodes land only sparsely; it is integrated with Gauss–Legendre nodes in
    u over that support, dxi = (delta/l) du.  The node count doubles until
    the table changes by less than ``QUAD_TOL`` in max norm.
    """
    profile = POTENTIAL_SHAPES.get(shape)
    if profile is None:
        raise ValueError(f"unknown potential shape {shape!r}; known: {sorted(POTENTIAL_SHAPES)}")
    ell = basis.length
    a = basis.a
    n_max = basis.n_max
    x = grid.points

    def hermite_table(n_nodes: int) -> np.ndarray:
        nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
        # integrand carries e^{-xi^2} through the two Hermite functions, so
        # the GH weights must be de-weighted; do it in log space to dodge
        # overflow of e^{+xi^2} at large node count
        wmod = np.exp(np.log(weights) + nodes ** 2)
        h = hermite_functions(nodes, n_max)
        v = profile((x[:, None] - a - ell * nodes[None, :]) / params.delta)
        out = np.empty((n_max + 1, n_max + 1, grid.n_points))
        for n in range(n_max + 1):
            for k in range(n, n_max + 1):
                out[n, k] = v @ (wmod * h[n] * h[k])
                out[k, n] = out[n, k]
        return out

    def support_table(n_nodes: int) -> np.ndarray:
        nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
        wmod = weights * profile(nodes) * (params.delta / ell)
        out = np.zeros((n_max + 1, n_max + 1, grid.n_points))
        # one node at a time keeps memory at one table, not one per node
        for u, w in zip(nodes, wmod):
            h = hermite_functions((x - a - params.delta * u) / ell, n_max)
            out += w * (h[:, None, :] * h[None, :, :])
        return out

    table_with = support_table if shape == "bump" else hermite_table
    n_nodes = QUAD_START_NODES
    prev = table_with(n_nodes)
    while True:
        n_nodes *= 2
        if n_nodes > QUAD_MAX_NODES:
            raise QuadratureError(
                f"form-factor quadrature not converged at {QUAD_MAX_NODES} nodes")
        cur = table_with(n_nodes)
        if float(np.max(np.abs(cur - prev))) < QUAD_TOL:
            return FormFactorTable(n_max=n_max, grid=grid, values=cur, shape=shape)
        prev = cur


def form_factor_pair(params: ModelParams, grid: SpatialGrid, n_max: int,
                     shape: str = "gaussian") -> tuple[FormFactorTable, FormFactorTable]:
    """Form-factor tables for both oscillators at truncation n_max."""
    b1 = OscillatorBasis.for_oscillator(params, 1, n_max)
    b2 = OscillatorBasis.for_oscillator(params, 2, n_max)
    return (build_form_factors(params, b1, grid, shape=shape),
            build_form_factors(params, b2, grid, shape=shape))


# ---------------------------------------------------------------------------
# channel state


@dataclass
class ChannelState:
    """Amplitudes f_{n1 n2}(R) at time t, shape (n_max+1, n_max+1, n_points)."""

    t: float
    grid: SpatialGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim != 3 or amp.shape[0] != amp.shape[1] or amp.shape[2] != self.grid.n_points:
            raise GridError(f"amplitudes shape {amp.shape} invalid for grid "
                            f"({self.grid.n_points} points)")
        self.amplitudes = amp

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1

    def norm(self) -> float:
        return l2_norm(self.amplitudes, self.grid.dx)

    def top_shell_norm(self) -> float:
        """Squared norm in the channels touching the truncation boundary."""
        n = self.n_max
        top = (np.sum(np.abs(self.amplitudes[n, :, :]) ** 2)
               + np.sum(np.abs(self.amplitudes[:, n, :]) ** 2)
               - np.sum(np.abs(self.amplitudes[n, n, :]) ** 2))
        return float(top) * self.grid.dx

    def channel_field(self, n1: int, n2: int) -> ComplexField:
        return ComplexField(self.grid, self.amplitudes[n1, n2])


def initialize_channels(params: ModelParams, grid: SpatialGrid, n_max: int) -> ChannelState:
    """Product initial state: both oscillators in their ground state,
    the test particle in the symmetric two-packet superposition."""
    psi = make_spherical_wave_1d(grid, params.sigma, params.P0, params.hbar)
    amp = np.zeros((n_max + 1, n_max + 1, grid.n_points), dtype=np.complex128)
    amp[0, 0] = psi.values
    return ChannelState(t=0.0, grid=grid, amplitudes=amp)


def channel_probabilities(state: ChannelState) -> dict[tuple[int, int], float]:
    """P_{n1 n2} = integral |f_{n1 n2}|^2 dR for every channel."""
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=2) * state.grid.dx
    n = state.n_max
    return {(n1, n2): float(p[n1, n2]) for n1 in range(n + 1) for n2 in range(n + 1)}


# ---------------------------------------------------------------------------
# propagator

# Yoshida's triple jump: the Strang steps S(W1 h) S(W0 h) S(W1 h) make one
# symmetric step of h that is fourth order in h
W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
W0 = 1.0 - 2.0 * W1
# evolve checks the state's health every HEALTH_STRIDE composed steps,
# counted in steps so that where a failing run stops does not depend on the
# machine
HEALTH_STRIDE = 3
# zeroing couplings below the floor costs at most this much amplitude over
# the whole run
COUPLING_ERROR_BUDGET = 1e-14
# a Gaussian tail falls to COUPLING_ERROR_BUDGET this many widths out
BUDGET_WIDTHS = math.sqrt(2.0 * math.log(1.0 / COUPLING_ERROR_BUDGET))
# evolve_with_escalation raises n_max by 2 up to this cap
N_MAX_CAP = 10


@dataclass(frozen=True)
class PropagatorConfig:
    """Numerical knobs of the split-step channel propagator; ``dt`` is the
    composed (three-stage) step."""

    dt: float = 0.5
    n_max: int = 4
    top_shell_threshold: float = 1e-6

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max!r}")


Slabs = list[tuple[slice, np.ndarray]]
# one band of the window: its points, the ramp s on them, and its outer part
# (past the ramp's centre), all counted in window points
Band = tuple[slice, np.ndarray, slice]


def _fft_size(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: a length pocketfft transforms fast."""
    size = max(n, 1)
    while True:
        rest = size
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 1


def _window(params: ModelParams, grid: SpatialGrid, core: np.ndarray, duration: float,
            h: float) -> tuple[int, int, int, list[Band]]:
    """(start, points, every, bands): the window of ``grid`` that evolve
    steps on for ``duration`` in steps of at most h, the composed steps
    between two carries, and the window's two bands.

    ``core`` lists the grid points the window must hold away from its
    bands; each band adds the ramp's offset and its outer reach (module
    docstring), and the window's length is rounded up to a fast transform
    length.  A window that would not fit inside the grid is the grid, with
    no bands.
    """
    z = BUDGET_WIDTHS
    width = 0.5 * math.sqrt(params.hbar * duration / params.M)
    offset = z * width
    # wavenumbers a fraction u of the way out to the budget level, in the
    # packet's spread about P0/hbar and the ramp's together, carry amplitude
    # budget^(u^2) and move out by travel[u] between two carries
    spread = params.hbar * z * math.hypot(1.0 / params.sigma, 1.0 / width)
    every = max(1, round(math.sqrt(grid.length * params.M / (12.0 * (params.P0 + spread) * h))))
    u = np.linspace(0.0, 1.0, 11)
    travel = (params.P0 + spread * u) / params.M * every * h
    need = offset ** 2 * (1.0 - u ** 2)
    reach = float(np.max(travel + np.minimum(np.sqrt(need), np.cbrt(3.0 * travel * need))))
    pad = math.ceil((offset + reach) / grid.dx)
    lo, hi = (int(core[0]), int(core[-1]) + 1) if core.size else (0, grid.n_points)
    points = _fft_size(hi - lo + 2 * pad)
    start = lo - pad - (points - (hi - lo + 2 * pad)) // 2
    if start < 0 or start + points > grid.n_points or points == grid.n_points:
        return 0, grid.n_points, every, []
    lo, hi = lo - start, hi - start
    bands = []
    for span, centre, sign in ((slice(0, lo), lo - offset / grid.dx, -1.0),
                               (slice(hi, points), hi - 1 + offset / grid.dx, 1.0)):
        x = sign * (centre - np.arange(span.start, span.stop)) * grid.dx
        ramp = np.array([0.5 * math.erfc(v / (math.sqrt(2.0) * width)) for v in x])
        outer = slice(0, math.ceil(centre)) if sign < 0 else slice(math.floor(centre) + 1, points)
        bands.append((span, ramp, outer))
    return start, points, every, bands


def _coupling_slabs(params: ModelParams, table: FormFactorTable, energies: np.ndarray,
                    taus: Sequence[float], on: np.ndarray, start: int) -> list[Slabs]:
    """One oscillator's coupling factor in the interaction picture, per slab,
    for each step length in ``taus``.  ``on`` and the slabs count the points
    of the window that starts at grid point ``start``.

    A slab is one contiguous run of the points where ``on`` holds (lam
    max|V| exceeds the floor); the coupling is zeroed everywhere else, so
    every step length has the same slabs.  On a slab the factor is
    U'(R) = D^(-1/2) exp(-i tau (diag(E) + lam V(R)) / hbar) D^(-1/2) with
    D = exp(-i tau E / hbar), stored as u[n, n', j] for the slab's j-th
    point.  Off the slabs U' is the identity, because D is carried by the
    kinetic factor.
    """
    n_lvl = energies.size
    values = table.values[:n_lvl, :n_lvl]
    d_half_inv = [np.exp(0.5j * tau * energies / params.hbar) for tau in taus]
    out: list[Slabs] = [[] for _ in taus]
    # padded with False so that every run has a rising and a falling edge
    padded = np.zeros(on.size + 2, dtype=bool)
    padded[1:-1] = on
    for lo, hi in np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2):
        h = params.lam * values[:, :, start + lo:start + hi].transpose(2, 0, 1) + np.diag(energies)
        evals, evecs = np.linalg.eigh(h)
        for tau, d, slabs in zip(taus, d_half_inv, out):
            u = np.einsum("xij,xj,xkj->ikx", evecs, np.exp(-1j * evals * tau / params.hbar), evecs)
            u *= d[:, None, None] * d[None, :, None]
            slabs.append((slice(lo, hi), np.ascontiguousarray(u)))
    return out


def _kinetic_rows(f: np.ndarray, kinetic: np.ndarray, energy: np.ndarray) -> None:
    """f = energy * ifft(kinetic * fft(f)) along the last axis, in place:
    ``kinetic`` is the bare free factor per point, ``energy`` the channel
    energy phase per row.  Both transforms write back into f, so a stage
    allocates no spectrum."""
    np.fft.fft(f, axis=-1, out=f)
    f *= kinetic
    np.fft.ifft(f, axis=-1, out=f)
    f *= energy[:, None]


def _couple_points(f3: np.ndarray, slabs1: Slabs, slabs2: Slabs) -> None:
    """U1' (x) U2' in place on the (n1, n2, point) view, slab by slab; U2'
    acts on the second index, i.e. on the first of the transpose."""
    n_lvl = f3.shape[0]
    for view, slabs in ((f3, slabs1), (f3.transpose(1, 0, 2), slabs2)):
        for span, u in slabs:
            g = view[:, :, span]
            out = u[:, 0, None, :] * g[0]
            for k in range(1, n_lvl):
                out += u[:, k, None, :] * g[k]
            g[...] = out


def _re_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re sum conj(u) v along the last axis, which must be contiguous: one
    pass over the real views, with no temporary array and no BLAS call,
    whose threads would spin beside the engine's."""
    return np.einsum("...i,...i->...", u.view(np.float64), v.view(np.float64))


def _carry_rows(f: np.ndarray, a: np.ndarray, scratch: np.ndarray, start: int,
                bands: list[Band], plus: np.ndarray, energy: np.ndarray,
                carried: np.ndarray, overlap: np.ndarray) -> float:
    """Move each row's band amplitude g = f s out of the window into its
    accumulator, a += exp(+i omega t) FFT(embed(g)), through ``scratch``.
    Per row and as sums over points, ``carried`` (the carried part's |c|^2)
    gains |g|^2 + 2 Re<g, c> and ``overlap`` (Re<f, c>) gains
    Re<f - g, g> - Re<g, c>; the spectral sum over N wavenumbers gives
    <g, c> times N.  Returns the outer bands' sum |f|^2 before the carry."""
    n = a.shape[1]
    outer_sq = 0.0
    for i, (row, acc, e) in enumerate(zip(f, a, energy)):
        scratch[:] = 0.0
        piece_sq = kept_piece = 0.0
        for span, ramp, outer in bands:
            outer_sq += _re_dot(row[outer], row[outer])
            band = row[span]
            piece = band * ramp
            band -= piece
            piece_sq += _re_dot(piece, piece)
            kept_piece += _re_dot(band, piece)
            scratch[start + span.start:start + span.stop] = piece
        np.fft.fft(scratch, out=scratch)
        scratch *= plus
        scratch *= e
        piece_carried = _re_dot(scratch, acc) / n
        acc += scratch
        carried[i] += piece_sq + 2.0 * piece_carried
        overlap[i] += kept_piece - piece_carried
    return outer_sq


def evolve(state: ChannelState, params: ModelParams, config: PropagatorConfig,
           t_final: float, form_factors: tuple[FormFactorTable, FormFactorTable],
           snapshot_times: Sequence[float] = ()
           ) -> tuple[dict[float, ChannelState], dict]:
    """Propagate the channel state to t_final in composed fourth-order steps.

    From state.t to each snapshot time in turn, and on to t_final, it takes
    the fewest equal steps h no longer than ``config.dt``, so it lands
    exactly on each.  Each step is the Strang steps S(W1 h) S(W0 h)
    S(W1 h), whose adjacent kinetic halves merge.  Unitary to rounding: the
    kinetic factor is an exact spectral phase and each oscillator's coupling
    factor an exact Hermitian exponential, for the negative W0 too.  The
    steps act on a window of the grid and amplitude that leaves it is
    carried exactly in k-space (module docstring).  The state's health is
    checked every ``HEALTH_STRIDE`` steps of the whole run, at every
    snapshot and at t_final, and the run stops at the first failed check:
    TruncationError when the top oscillator shell holds more norm than
    ``config.top_shell_threshold``, NormDriftError when the total norm
    drifts beyond ``NORM_TOLERANCE`` or an amplitude is not finite.  Each
    check reads the norms of the whole state, window and carried part: the
    in-run checks from the window's norms and the carried part's norm and
    overlap with the window as of the last carry (module docstring), read
    just after the kinetic factor that joins two steps, whose per-channel
    norms are those at the step boundary (the kinetic factor is a unitary
    phase on each channel); the checks at the requested times from the
    state as formed.

    ``form_factors`` are both oscillators' tables on the state's grid, at
    truncation ``config.n_max`` or above (only the leading block is read).
    Returns ``(states, record)``: ``states`` holds a new state at exactly
    each snapshot time and at t_final, keyed by time in time order.
    ``record["segments"]`` holds one {t, dt, steps} per time, dt the step
    that reached t, and ``record["window"]`` the window's ``points``,
    ``carried_norm`` (the squared norm carried in k-space at t_final) and
    ``band_norm_max`` (the largest squared norm in the bands' outer parts
    just before a carry).
    """
    if not t_final > state.t:
        raise ValueError(f"t_final={t_final} must exceed state.t={state.t}")
    if state.n_max != config.n_max:
        raise ValueError(f"state truncation {state.n_max} != config n_max {config.n_max}")
    grid = state.grid
    segments = time_segments(state.t, t_final, snapshot_times, config.dt)

    ff1, ff2 = form_factors
    if ff1.grid != grid or ff2.grid != grid or ff1.n_max < config.n_max or ff2.n_max < config.n_max:
        raise GridError("form-factor tables do not match the propagation grid/truncation")

    e1 = OscillatorBasis.for_oscillator(params, 1, config.n_max).energies
    e2 = OscillatorBasis.for_oscillator(params, 2, config.n_max).energies
    # each oscillator may spend half of the run's error budget, and a step's
    # stages zero the sub-floor coupling for (2 W1 - W0) h in all
    floor = 0.5 * COUPLING_ERROR_BUDGET * params.hbar / ((t_final - state.t) * (2.0 * W1 - W0))
    # both stage lengths of every distinct step share one decomposition
    steps = sorted({(end - start) / n for start, end, n in segments})
    taus = [tau for h in steps for tau in (W1 * h, W0 * h)]
    n_lvl = config.n_max + 1
    rows = n_lvl * n_lvl
    on1, on2 = (params.lam * np.abs(ff.values[:n_lvl, :n_lvl]).max(axis=(0, 1)) > floor
                for ff in (ff1, ff2))

    # the window holds both oscillators' slabs and the entry state's
    # support, the points where some channel exceeds the error budget
    # relative to the largest amplitude
    f0 = state.amplitudes.reshape(rows, grid.n_points)
    norm0 = l2_norm(f0, grid.dx)
    mag = np.abs(f0).max(axis=0)
    core = np.flatnonzero(on1 | on2 | (mag > COUPLING_ERROR_BUDGET * mag.max()))
    del mag
    start, points, every, bands = _window(params, grid, core, t_final - state.t, steps[-1])
    stop = start + points
    slabs1 = _coupling_slabs(params, ff1, e1, taus, on1[start:stop], start)
    slabs2 = _coupling_slabs(params, ff2, e2, taus, on2[start:stop], start)

    # the window's private copy, and the carried amplitude in k-space; per
    # row, the carried part's sum |c|^2 and Re<f, c>, its overlap with the
    # window, as sums over points
    f = f0[:, start:stop].copy()
    f3 = f.reshape(n_lvl, n_lvl, points)
    a = np.empty((rows, grid.n_points), dtype=np.complex128)
    scratch = np.empty(grid.n_points, dtype=np.complex128)
    carried = np.empty(rows)
    overlap = np.zeros(rows)
    wavenumbers = 2.0 * np.pi * np.fft.fftfreq(points, d=grid.dx)

    # the channel energy phases D^(1/2) ride on the kinetic factors: a bare
    # free factor per point, then an energy phase per row
    energies = (e1[:, None] + e2[None, :]).reshape(-1)

    def kinetic(tau: float) -> tuple[np.ndarray, np.ndarray]:
        return kinetic_phase(wavenumbers, params, tau), np.exp(-1j * tau / params.hbar * energies)

    def at(t: float) -> tuple[np.ndarray, np.ndarray]:
        """exp(+i omega t) on the grid, as the bare factor per point and the
        energy factor per row; at(-t) undoes it."""
        return kinetic_phase(grid, params, -t), np.exp(1j * t / params.hbar * energies)

    # each step -> its (outer, middle) coupling stages: W1 h and W0 h
    parts = list(zip(slabs1, slabs2))
    stages = dict(zip(steps, zip(parts[0::2], parts[1::2])))

    # nothing is dropped: a = exp(+i omega t) FFT(f0 off the window), and
    # carried its sum |f0|^2, row by row
    plus, energy = at(state.t)
    for i, (acc, row, e) in enumerate(zip(a, f0, energy)):
        acc[:start], acc[start:stop], acc[stop:] = row[:start], 0.0, row[stop:]
        carried[i] = _re_dot(acc, acc)
        np.fft.fft(acc, out=acc)
        acc *= plus
        acc *= e

    at_time: dict[float, ChannelState] = {}
    step = 0  # composed steps over the whole run
    band_norm_max = 0.0
    # per segment of n steps of h: K(W1 h/2) [C1 K' C0 K' C1 K(W1 h)]^{n-1}
    # C1 K' C0 K' C1 K(W1 h/2), with C1, C0 the coupling stages, K' =
    # K((W1 + W0) h/2) the inner factor and K(W1 h/2), K(W1 h) the edge and
    # seam factors, so the state at its end sits on its time; after a seam
    # the window is K(W1 h/2) past the step boundary
    for start_t, end, n_steps in segments:
        h = (end - start_t) / n_steps
        outer, middle = stages[h]
        edge, inner, seam = (kinetic(w * h) for w in (0.5 * W1, 0.5 * (W1 + W0), W1))
        _kinetic_rows(f, *edge)
        for k in range(1, n_steps + 1):
            step += 1
            _couple_points(f3, *outer)
            _kinetic_rows(f, *inner)
            _couple_points(f3, *middle)
            _kinetic_rows(f, *inner)
            _couple_points(f3, *outer)
            _kinetic_rows(f, *(edge if k == n_steps else seam))
            if bands and step % every == 0:
                at_carry = at(end if k == n_steps else start_t + (k + 0.5 * W1) * h)
                outer_sq = _carry_rows(f, a, scratch, start, bands, *at_carry, carried, overlap)
                band_norm_max = max(band_norm_max, outer_sq * grid.dx)
            if step % HEALTH_STRIDE == 0 and k < n_steps:
                _health_check(start_t + k * h,
                              (_re_dot(f, f) + carried + 2.0 * overlap) * grid.dx, config, norm0)
        # a new state at each requested time, embed(f) + ifft(exp(-i omega
        # t) a) row by row, formed in a at the end, and checked as formed
        out = a if end == t_final else np.empty_like(a)
        minus, energy = at(-end)
        for o, row, acc, e in zip(out, f, a, energy):
            np.multiply(acc, minus, out=o)
            o *= e
            np.fft.ifft(o, out=o)
            o[start:stop] += row
        at_time[end] = ChannelState(end, grid, out.reshape(n_lvl, n_lvl, grid.n_points))
        _health_check(end, _re_dot(out, out) * grid.dx, config, norm0)
    return at_time, {"segments": [{"t": end, "dt": (end - t0) / n, "steps": n}
                                  for t0, end, n in segments],
                     "window": {"points": points,
                                "carried_norm": float(np.sum(carried)) * grid.dx,
                                "band_norm_max": band_norm_max}}


def _health_check(t: float, sq: np.ndarray, config: PropagatorConfig, norm0: float) -> None:
    """Check the per-row squared norms ``sq`` of the state at t."""
    n = config.n_max
    sq = sq.reshape(n + 1, n + 1)
    norm = math.sqrt(float(np.sum(sq)))
    check_norm(norm, norm, norm0, t, n)
    top = float(np.sum(sq[n, :]) + np.sum(sq[:, n]) - sq[n, n])
    if not top <= config.top_shell_threshold:
        raise _at_breach(TruncationError(
            f"top-shell norm {top:.3e} exceeds {config.top_shell_threshold:.1e} "
            f"at n_max={n}, t={t:.6g}"), t, top, n)


# ---------------------------------------------------------------------------
# sampling on the band


def _band(rows: np.ndarray) -> int:
    """Largest wavenumber index |j| at which the spectrum of some row of
    ``rows`` (last axis) exceeds ``COUPLING_ERROR_BUDGET`` of that row's peak.

    A non-finite row raises ValueError: its spectrum is NaN throughout, every
    comparison would be False, and the row would read as having no band.
    """
    n = rows.shape[-1]
    j = np.minimum(np.arange(n), n - np.arange(n))
    band = 0
    for row in rows.reshape(-1, n):
        mag = np.abs(np.fft.fft(row))
        peak = mag.max()
        if not math.isfinite(peak):
            raise ValueError("form-factor table is not finite")
        band = max(band, int(j[mag > COUPLING_ERROR_BUDGET * peak].max(initial=0)))
    return band


def _step_points(n_points: int, band: int) -> int:
    """The fewest points M = n_points / 2^j whose spectrum holds every index
    up to ``band`` below its Nyquist index: M/2 > band."""
    m = n_points
    while m // 4 > band:
        m //= 2
    return m


def band_sampling(params: ModelParams, grid: SpatialGrid,
                  form_factors: tuple[FormFactorTable, FormFactorTable]
                  ) -> tuple[SpatialGrid, tuple[FormFactorTable, FormFactorTable]]:
    """The M-point grid of ``grid``'s box that holds the band, and both
    tables sampled on it (module docstring).

    K_psi is the initial packet's band and K_g the largest band of any row
    of either table, both measured on ``grid``; M = N / 2^j is the fewest
    points with M/2 > K_psi + 2 K_g, and the tables are read at every
    (N/M)-th point.  A band that fills the grid returns ``grid`` and the
    tables themselves.  GridError when a table is not on ``grid``, and
    ValueError when one is not finite, on any point.
    """
    if any(ff.grid != grid for ff in form_factors):
        raise GridError("form-factor tables do not match the grid of record")
    psi0 = make_spherical_wave_1d(grid, params.sigma, params.P0, params.hbar).values
    m = _step_points(grid.n_points,
                     _band(psi0) + 2 * max(_band(ff.values) for ff in form_factors))
    if m == grid.n_points:
        return grid, form_factors
    coarse = SpatialGrid(grid.x_min, grid.x_max, m)
    every = grid.n_points // m
    ff1, ff2 = (replace(ff, grid=coarse, values=ff.values[..., ::every].copy())
                for ff in form_factors)
    return coarse, (ff1, ff2)


def on_grid(state: ChannelState, grid: SpatialGrid) -> ChannelState:
    """``state``, stepped on the M points ``band_sampling`` chose, on the
    N-point ``grid`` of the same box: each row's M-point spectrum
    zero-padded to N points, transformed back and scaled by N/M."""
    if state.grid == grid:
        return state
    m = state.grid.n_points
    spectrum = np.fft.fft(state.amplitudes, axis=-1)
    amplitudes = np.zeros(spectrum.shape[:-1] + (grid.n_points,), dtype=np.complex128)
    # indices 0..M/2-1 and -M/2..-1 keep their place; the band ends below M/2
    for k in (slice(None, m // 2), slice(-(m // 2), None)):
        amplitudes[..., k] = spectrum[..., k]
    np.fft.ifft(amplitudes, axis=-1, out=amplitudes)
    amplitudes *= grid.n_points // m
    return ChannelState(state.t, grid, amplitudes)


def evolve_with_escalation(params: ModelParams, grid: SpatialGrid,
                           form_factors: tuple[FormFactorTable, FormFactorTable], n_max: int,
                           dt: float, times: Sequence[float], top_shell_threshold: float
                           ) -> tuple[dict[float, ChannelState], dict]:
    """Run from the product initial state to max(times), raising n_max by 2
    until the top-shell check passes.

    Each attempt steps on the grid ``band_sampling`` picks for its own
    tables.  Returns ``(states, record)`` from the attempt that passed:
    ``states`` keyed by ``times`` in their order, each ``on_grid`` on
    ``grid``, and ``record`` with the sampled grid's ``points``, the
    attempt's ``window`` and ``segments`` from ``evolve``, and one
    {n_max, t, top_shell_norm} entry in ``escalations`` for each failed
    attempt, read from its TruncationError.  ``form_factors``, on ``grid``,
    serve every attempt whose n_max they cover; each attempt beyond builds
    its own pair, in the given tables' potential shape.
    """
    attempts: list[dict[str, float | int]] = []
    config = PropagatorConfig(dt, n_max, top_shell_threshold)
    while True:
        tables = form_factors
        if min(t.n_max for t in form_factors) < config.n_max:
            tables = form_factor_pair(params, grid, config.n_max, form_factors[0].shape)
        coarse, tables = band_sampling(params, grid, tables)
        try:
            states, record = evolve(initialize_channels(params, coarse, config.n_max), params,
                                    config, max(times), tables, times)
        except TruncationError as err:
            if config.n_max + 2 > N_MAX_CAP:
                raise
            attempts.append({"n_max": err.n_max, "t": err.t, "top_shell_norm": err.norm})
            config = replace(config, n_max=config.n_max + 2)
            continue
        return ({t: on_grid(states[t], grid) for t in times},
                {"points": coarse.n_points, **record, "escalations": attempts})

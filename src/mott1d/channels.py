"""Coupled-channel propagation of the full three-body state.

Projecting the total wave function onto the product basis of oscillator
eigenstates turns the three-coordinate Schrödinger equation into coupled 1D
channel equations for the amplitudes f_{n1 n2}(R, t):

    i hbar df/dt = [ -hbar^2/2M d^2/dR^2 + E_{n1} + E_{n2} ] f_{n1 n2}
                   + lam * sum_k V1_{n1 k}(R) f_{k n2}
                   + lam * sum_k V2_{n2 k}(R) f_{n1 k}

with the form factors V_i_{n n'}(R) = <phi_n | V((R - r)/delta) | phi_n'>.
The propagator takes composed fourth-order steps: each step of h is
Yoshida's triple jump (Phys. Lett. A 150, 262, 1990) of Strang steps
S(W1 h) S(W0 h) S(W1 h), with W1 = 1/(2 - 2^(1/3)) and W0 = 1 - 2 W1 < 0,
and adjacent kinetic halves merge, so a step costs three stages of one
coupling and one kinetic factor each.  At each point the channel matrix is
H1(R) (x) I + I (x) H2(R) with H_i = diag(E_i) + lam V_i(R); the two terms
commute, so its exponential is exactly U1(R) (x) U2(R), one
(n_max+1)-dimensional exponential per oscillator.  Each is split as U_i = D_i^(1/2) U_i' D_i^(1/2) with
D_i = exp(-i tau E_i / hbar); the diagonal energy phases D^(1/2) commute
with the free step and ride on the exact spectral kinetic factor, applied
as a bare free phase per point and an energy phase per channel row.  U_i'
is eigendecomposed once per run on the oscillator's slabs, the contiguous
runs of points where its coupling exceeds an error-budget floor, and both
stage lengths W1 h and W0 h are built from the one decomposition; U_i' is
the identity elsewhere, so points far from both oscillators cost nothing
beyond the free step.  A negative stage is as exact as a positive one: the
coupling factor is the exponential of a Hermitian matrix for any real tau.

Each stage runs on two threads.  ``evolve`` opens one single-worker
executor per call and submits to it half of each part of a stage: the upper
half of the channel rows in every kinetic factor, and the grid points from
one cut on in every coupling stage, the cut chosen once per call to halve
the slab points of both oscillators (both stage lengths share the slabs).
The calling thread does the other half and then waits for the worker's, so
a stage has two synchronous hand-offs.  Each row's transforms and each
point's U1' and U2' are the same operations in the same order as on one
thread, so every amplitude is bit-identical to a one-thread run.  The
health checks, snapshots and typed errors stay on the calling thread and
fall on composed-step boundaries; a failure in the worker's half is
re-raised there, and the executor is shut down before ``evolve`` returns or
raises.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    ComplexField,
    GridError,
    ModelParams,
    NormDriftError,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    TruncationError,
    _at_breach,
    hermite_functions,
    kinetic_phase,
    make_spherical_wave_1d,
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
        return math.sqrt(float(np.sum(np.abs(self.amplitudes) ** 2)) * self.grid.dx)

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
# the largest total-norm drift a healthy run may show
NORM_TOLERANCE = 1e-8
# zeroing couplings below the floor costs at most this much amplitude over
# the whole run
COUPLING_ERROR_BUDGET = 1e-14
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


def _coupling_slabs(params: ModelParams, table: FormFactorTable, energies: np.ndarray,
                    taus: Sequence[float], floor: float) -> list[Slabs]:
    """One oscillator's coupling factor in the interaction picture, per slab,
    for each step length in ``taus``.

    A slab is one contiguous run of grid points where lam max|V| exceeds
    ``floor``; the coupling is zeroed everywhere else, so every step length
    has the same slabs.  On a slab the factor is
    U'(R) = D^(-1/2) exp(-i tau (diag(E) + lam V(R)) / hbar) D^(-1/2) with
    D = exp(-i tau E / hbar), stored as u[n, n', j] for the slab's j-th
    point.  Off the slabs U' is the identity, because D is carried by the
    kinetic factor.
    """
    n_lvl = energies.size
    values = table.values[:n_lvl, :n_lvl]
    # padded with False so that every run has a rising and a falling edge
    on = np.zeros(values.shape[2] + 2, dtype=bool)
    on[1:-1] = params.lam * np.abs(values).max(axis=(0, 1)) > floor
    edges = np.flatnonzero(on[1:] != on[:-1]).reshape(-1, 2)
    d_half_inv = [np.exp(0.5j * tau * energies / params.hbar) for tau in taus]
    out: list[Slabs] = [[] for _ in taus]
    for lo, hi in edges:
        h = params.lam * values[:, :, lo:hi].transpose(2, 0, 1) + np.diag(energies)
        evals, evecs = np.linalg.eigh(h)
        for tau, d, slabs in zip(taus, d_half_inv, out):
            u = np.einsum("xij,xj,xkj->ikx", evecs, np.exp(-1j * evals * tau / params.hbar),
                          evecs)
            u *= d[:, None, None] * d[None, :, None]
            slabs.append((slice(lo, hi), np.ascontiguousarray(u)))
    return out


def _halving_point(slabs: Slabs, n_points: int) -> int:
    """The point index below which lies half of the slab points in ``slabs``."""
    weight = np.zeros(n_points, dtype=np.int64)
    for span, _ in slabs:
        weight[span] += 1
    return int(np.searchsorted(np.cumsum(weight), weight.sum() / 2.0))


def _clip(slabs: Slabs, lo: int, hi: int) -> Slabs:
    """The parts of ``slabs`` on the points [lo, hi)."""
    out = []
    for span, u in slabs:
        a, b = max(span.start, lo), min(span.stop, hi)
        if a < b:
            out.append((slice(a, b), u[:, :, a - span.start:b - span.start]))
    return out


def _kinetic_rows(f: np.ndarray, kinetic: np.ndarray, energy: np.ndarray) -> None:
    """f = energy * ifft(kinetic * fft(f)) along the last axis, in place:
    ``kinetic`` is the bare free factor per point, ``energy`` the channel
    energy phase per row, applied as the transform is written back."""
    spectrum = np.fft.fft(f, axis=-1)
    spectrum *= kinetic
    np.multiply(np.fft.ifft(spectrum, axis=-1), energy[:, None], out=f)


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


def evolve(state: ChannelState, params: ModelParams, config: PropagatorConfig,
           t_final: float, form_factors: tuple[FormFactorTable, FormFactorTable],
           snapshot_times: Sequence[float] = (),
           on_snapshot: Callable[[ChannelState], None] | None = None) -> ChannelState:
    """Propagate the channel state to t_final in composed fourth-order steps.

    Each step of h = ``config.dt`` (shortened so that whole steps reach
    t_final) is the Strang steps S(W1 h) S(W0 h) S(W1 h), whose adjacent
    kinetic halves merge.  Unitary to rounding: the kinetic factor is an
    exact spectral phase and each oscillator's coupling factor an exact
    Hermitian exponential, for the negative W0 too.  The state's health is
    checked every ``HEALTH_STRIDE`` steps, at every snapshot and at
    t_final, and the run stops at the first failed check: TruncationError
    when the top oscillator shell holds more norm than
    ``config.top_shell_threshold``, NormDriftError when the total norm
    drifts beyond ``NORM_TOLERANCE`` or an amplitude is not finite.
    The in-run checks read the state just after the kinetic factor that
    joins two steps, whose per-channel norms are those at the step boundary
    (the kinetic factor is a unitary phase on each channel), so they cost
    no extra transforms.

    ``form_factors`` are both oscillators' tables on the state's grid, at
    truncation ``config.n_max`` or above (only the leading block is read).
    ``snapshot_times`` are snapped to the nearest step boundary and passed
    to ``on_snapshot`` as state copies (final state included only if listed).
    """
    if not t_final > state.t:
        raise ValueError(f"t_final={t_final} must exceed state.t={state.t}")
    if state.n_max != config.n_max:
        raise ValueError(f"state truncation {state.n_max} != config n_max {config.n_max}")
    grid = state.grid
    horizon = t_final - state.t
    n_steps = max(1, int(math.ceil(horizon / config.dt - 1e-12)))
    h = horizon / n_steps

    ff1, ff2 = form_factors
    if ff1.grid != grid or ff2.grid != grid or ff1.n_max < config.n_max or ff2.n_max < config.n_max:
        raise GridError("form-factor tables do not match the propagation grid/truncation")

    e1 = OscillatorBasis.for_oscillator(params, 1, config.n_max).energies
    e2 = OscillatorBasis.for_oscillator(params, 2, config.n_max).energies
    # each oscillator may spend half of the run's error budget, and a step's
    # stages zero the sub-floor coupling for (2 W1 - W0) h in all
    floor = 0.5 * COUPLING_ERROR_BUDGET * params.hbar / (max(horizon, h) * (2.0 * W1 - W0))
    slabs1 = _coupling_slabs(params, ff1, e1, (W1 * h, W0 * h), floor)
    slabs2 = _coupling_slabs(params, ff2, e2, (W1 * h, W0 * h), floor)

    # the channel energy phases D^(1/2) ride on the kinetic factors: a bare
    # free factor per point, then an energy phase per row
    energies = (e1[:, None] + e2[None, :]).reshape(-1)

    def kinetic(tau: float) -> tuple[np.ndarray, np.ndarray]:
        return kinetic_phase(grid, params, tau), np.exp(-1j * tau / params.hbar * energies)

    edge = kinetic(0.5 * W1 * h)          # before a step's first stage, after its last
    inner = kinetic(0.5 * (W1 + W0) * h)  # between two stages of a step
    seam = kinetic(W1 * h)                # between two steps

    snap_steps: dict[int, float] = {}
    for ts in snapshot_times:
        s = int(round((ts - state.t) / h))
        if not 1 <= s <= n_steps:
            raise ValueError(f"snapshot time {ts} outside ({state.t}, {t_final}]")
        snap_steps[s] = state.t + s * h

    n_lvl = config.n_max + 1
    f = state.amplitudes.reshape(n_lvl * n_lvl, grid.n_points).copy()
    f3 = f.reshape(n_lvl, n_lvl, grid.n_points)
    norm0 = math.sqrt(float(np.sum(np.abs(f) ** 2)) * grid.dx)

    # the calling thread takes rows [0, r) of each kinetic factor and points
    # [0, cut) of each coupling stage; the worker takes the rest.  Both
    # stage lengths have the same slabs, so one cut halves both.
    r = f.shape[0] // 2
    cut = _halving_point(slabs1[0] + slabs2[0], grid.n_points)
    outer, middle = (((f3, _clip(s1, 0, cut), _clip(s2, 0, cut)),
                      (f3, _clip(s1, cut, grid.n_points), _clip(s2, cut, grid.n_points)))
                     for s1, s2 in zip(slabs1, slabs2))
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="evolve-half")

    def halves(work: Callable[..., None], args: tuple, worker_args: tuple) -> None:
        # one synchronous hand-off: the worker's half runs beside this one
        future = pool.submit(work, *worker_args)
        work(*args)
        try:
            future.result()
        finally:
            # a worker failure would otherwise keep this frame, and through
            # it the run's arrays, in a cycle with the error's traceback
            del future

    def kin(factor: tuple[np.ndarray, np.ndarray]) -> None:
        free, energy = factor
        halves(_kinetic_rows, (f[:r], free, energy[:r]), (f[r:], free, energy[r:]))

    def emit(step: int) -> None:
        if on_snapshot is not None and step in snap_steps:
            snap = ChannelState(snap_steps[step], grid, f3.copy())
            _health_check(snap, config, norm0)
            on_snapshot(snap)

    with pool:
        # K(W1 h/2) [C1 K' C0 K' C1 K(W1 h)]^{n-1} C1 K' C0 K' C1 K(W1 h/2),
        # with C1, C0 the coupling stages and K' = K((W1 + W0) h/2); a
        # snapshot splits the seam so the emitted state sits on a step
        # boundary
        kin(edge)
        for step in range(1, n_steps + 1):
            halves(_couple_points, *outer)
            kin(inner)
            halves(_couple_points, *middle)
            kin(inner)
            halves(_couple_points, *outer)
            if step == n_steps:
                kin(edge)
            elif step in snap_steps:
                kin(edge)
                emit(step)
                kin(edge)
            else:
                kin(seam)
            if step % HEALTH_STRIDE == 0 and step < n_steps:
                _health_check(ChannelState(state.t + step * h, grid, f3), config, norm0)

    out = ChannelState(t_final, grid, f3)
    _health_check(out, config, norm0)
    emit(n_steps)
    return out


def _health_check(state: ChannelState, config: PropagatorConfig, norm0: float) -> None:
    # written as "not ok" so that a NaN, which compares False, fails
    norm = state.norm()
    drift = abs(norm - norm0)
    if not drift <= NORM_TOLERANCE:
        what = ("non-finite amplitudes" if not math.isfinite(norm)
                else f"norm drift {drift:.3e} exceeds {NORM_TOLERANCE:.1e}")
        raise _at_breach(NormDriftError(f"{what} at t={state.t:.6g}"),
                         state.t, norm, state.n_max)
    top = state.top_shell_norm()
    if not top <= config.top_shell_threshold:
        raise _at_breach(TruncationError(
            f"top-shell norm {top:.3e} exceeds {config.top_shell_threshold:.1e} "
            f"at n_max={state.n_max}, t={state.t:.6g}"), state.t, top, state.n_max)


def evolve_with_escalation(params: ModelParams, grid: SpatialGrid, config: PropagatorConfig,
                           t_final: float,
                           form_factors: tuple[FormFactorTable, FormFactorTable],
                           snapshot_times: Sequence[float] = (),
                           on_snapshot: Callable[[ChannelState], None] | None = None,
                           on_escalation: Callable[[TruncationError], None] | None = None,
                           ) -> tuple[ChannelState, PropagatorConfig]:
    """Run from the product initial state, raising n_max by 2 until the
    top-shell check passes.  Returns the final state and the config used.

    ``form_factors`` serve every attempt whose n_max they cover; each
    attempt beyond builds its own pair, in the given tables' potential
    shape.  Each failed attempt's TruncationError is passed to
    ``on_escalation`` before the next attempt starts.
    """
    cfg = config
    while True:
        state = initialize_channels(params, grid, cfg.n_max)
        tables = form_factors
        if min(t.n_max for t in form_factors) < cfg.n_max:
            tables = form_factor_pair(params, grid, cfg.n_max, form_factors[0].shape)
        try:
            final = evolve(state, params, cfg, t_final, tables,
                           snapshot_times=snapshot_times, on_snapshot=on_snapshot)
            return final, cfg
        except TruncationError as err:
            if cfg.n_max + 2 > N_MAX_CAP:
                raise
            if on_escalation is not None:
                on_escalation(err)
            cfg = replace(cfg, n_max=cfg.n_max + 2)


# ---------------------------------------------------------------------------
# exports


def probability_summary(state: ChannelState) -> dict:
    """JSON-ready probability summary {t, probabilities: {"n1,n2": P}}."""
    probs = channel_probabilities(state)
    return {"t": state.t,
            "probabilities": {f"{n1},{n2}": p for (n1, n2), p in sorted(probs.items())}}

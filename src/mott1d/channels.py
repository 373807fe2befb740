"""Coupled-channel propagation of the full three-body state.

Projecting the total wave function onto the product basis of oscillator
eigenstates turns the three-coordinate Schrödinger equation into coupled 1D
channel equations for the amplitudes f_{n1 n2}(R, t):

    i hbar df/dt = [ -hbar^2/2M d^2/dR^2 + E_{n1} + E_{n2} ] f_{n1 n2}
                   + lam * sum_k V1_{n1 k}(R) f_{k n2}
                   + lam * sum_k V2_{n2 k}(R) f_{n1 k}

with the form factors V_i_{n n'}(R) = <phi_n | V((R - r)/delta) | phi_n'>.
The propagator is a Strang split.  At each point the channel matrix is
H1(R) (x) I + I (x) H2(R) with H_i = diag(E_i) + lam V_i(R); the two terms
commute, so its exponential is exactly U1(R) (x) U2(R), one
(n_max+1)-dimensional exponential per oscillator.  Each is split as
U_i = D_i^(1/2) U_i' D_i^(1/2) with D_i = exp(-i dt E_i / hbar); the
diagonal energy phases D^(1/2) commute with the free step and ride on the
exact spectral kinetic factor of every channel.  U_i' is eigendecomposed
once per run on the oscillator's slabs, the contiguous runs of points where
its coupling exceeds an error-budget floor, and is the identity elsewhere,
so points far from both oscillators cost nothing beyond the free step.

Each step runs on two threads.  ``evolve`` opens one single-worker executor
per call and submits to it half of each part of a Strang step: the upper
half of the channel rows in every kinetic step, and the grid points from one
cut on in every coupling step, the cut chosen once per call to halve the
slab points of both oscillators.  The calling thread does the other half
and then waits for the worker's, so a step has two synchronous hand-offs.
Each row's transforms and each point's U1' and U2' are the same operations
in the same order as on one thread, so every amplitude is bit-identical to
a one-thread run.  The health checks, snapshots and typed errors stay on the
calling thread; a failure in the worker's half is re-raised there, and the
executor is shut down before ``evolve`` returns or raises.
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
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    hermite_functions,
    kinetic_phase,
    make_spherical_wave_1d,
)


class TruncationError(RuntimeError):
    """Norm reached the top oscillator shell: n_max too small for this run.

    Raised by the propagator with ``t`` (model time of the breach),
    ``norm`` (the top-shell norm there) and ``n_max`` set.
    """


class NormDriftError(RuntimeError):
    """Total norm drifted beyond tolerance, or became non-finite, during
    propagation.

    Raised by the propagator with ``t`` (model time of the breach),
    ``norm`` (the total norm there) and ``n_max`` set.
    """


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


def potential_profile(x: np.ndarray | float, shape: str = "gaussian") -> np.ndarray | float:
    """Dimensionless interaction profile V(x); unit height, O(1) range."""
    try:
        fn = POTENTIAL_SHAPES[shape]
    except KeyError:
        raise ValueError(f"unknown potential shape {shape!r}; known: {sorted(POTENTIAL_SHAPES)}")
    out = fn(np.atleast_1d(x))
    return float(out[0]) if np.isscalar(x) else out


# ---------------------------------------------------------------------------
# form factors


@dataclass(frozen=True)
class FormFactorTable:
    """V_{n n'}(R) for one oscillator, on every grid point.

    ``values[n, n', j]`` is the matrix element of the bare (unit-strength)
    potential between levels n and n' at grid point j; multiply by lam for
    the physical coupling.  Exactly symmetric in (n, n').
    """

    oscillator_index: int
    center: float
    n_max: int
    grid: SpatialGrid
    values: np.ndarray = field(repr=False)
    shape: str = "gaussian"
    quad_nodes: int = 0
    converged_delta: float = math.nan


def build_form_factors(params: ModelParams, basis: OscillatorBasis, grid: SpatialGrid,
                       shape: str = "gaussian", tol: float = 1e-10,
                       start_nodes: int = 16, max_nodes: int = 256) -> FormFactorTable:
    """Quadrature of the potential matrix elements.

    In the scaled oscillator coordinate xi = (r - a)/l the element is the
    integral of h_n(xi) h_n'(xi) V((R - a - l*xi)/delta) dxi.  The Gaussian
    profile is integrated with Gauss–Hermite nodes in xi (weights corrected
    for the Gaussian already inside the Hermite functions).  The bump
    vanishes outside |u| < 1, u = (R - a - l*xi)/delta, where Gauss–Hermite
    nodes land only sparsely; it is integrated with Gauss–Legendre nodes in
    u over that support, dxi = (delta/l) du.  The node count doubles until
    the table changes by less than ``tol`` in max norm.
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
    n_nodes = start_nodes
    prev = table_with(n_nodes)
    while True:
        n_nodes *= 2
        if n_nodes > max_nodes:
            raise QuadratureError(
                f"form-factor quadrature not converged at {max_nodes} nodes")
        cur = table_with(n_nodes)
        delta = float(np.max(np.abs(cur - prev)))
        if delta < tol:
            return FormFactorTable(
                oscillator_index=1 if basis.a == params.a1 else 2,
                center=a, n_max=n_max, grid=grid, values=cur, shape=shape,
                quad_nodes=n_nodes, converged_delta=delta)
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

    def copy(self) -> "ChannelState":
        return ChannelState(self.t, self.grid, self.amplitudes.copy())


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

# evolve checks the state's health every HEALTH_STRIDE steps, counted in
# steps so that where a failing run stops does not depend on the machine
HEALTH_STRIDE = 16
# the largest total-norm drift a healthy run may show
NORM_TOLERANCE = 1e-8
# zeroing couplings below the floor costs at most this much amplitude over
# the whole run
COUPLING_ERROR_BUDGET = 1e-14


@dataclass(frozen=True)
class PropagatorConfig:
    """Numerical knobs of the split-step channel propagator."""

    dt: float = 0.1
    n_max: int = 4
    top_shell_threshold: float = 1e-6
    potential_shape: str = "gaussian"

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max!r}")


def _coupling_slabs(params: ModelParams, table: FormFactorTable, energies: np.ndarray,
                    dt: float, floor: float) -> list[tuple[slice, np.ndarray]]:
    """One oscillator's coupling factor in the interaction picture, per slab.

    A slab is one contiguous run of grid points where lam max|V| exceeds
    ``floor``; the coupling is zeroed everywhere else.  On a slab the factor
    is U'(R) = D^(-1/2) exp(-i dt (diag(E) + lam V(R)) / hbar) D^(-1/2) with
    D = exp(-i dt E / hbar), stored as u[n, n', j] for the slab's j-th point.
    Off the slabs U' is the identity, because D is carried by the kinetic
    factor.
    """
    n_lvl = energies.size
    values = table.values[:n_lvl, :n_lvl]
    # padded with False so that every run has a rising and a falling edge
    on = np.zeros(values.shape[2] + 2, dtype=bool)
    on[1:-1] = params.lam * np.abs(values).max(axis=(0, 1)) > floor
    edges = np.flatnonzero(on[1:] != on[:-1]).reshape(-1, 2)
    d_half_inv = np.exp(0.5j * dt * energies / params.hbar)
    slabs = []
    for lo, hi in edges:
        h = params.lam * values[:, :, lo:hi].transpose(2, 0, 1) + np.diag(energies)
        evals, evecs = np.linalg.eigh(h)
        u = np.einsum("xij,xj,xkj->ikx", evecs, np.exp(-1j * evals * dt / params.hbar), evecs)
        u *= d_half_inv[:, None, None] * d_half_inv[None, :, None]
        slabs.append((slice(lo, hi), np.ascontiguousarray(u)))
    return slabs


def _halving_point(slabs: list[tuple[slice, np.ndarray]], n_points: int) -> int:
    """The point index below which lies half of the slab points in ``slabs``."""
    weight = np.zeros(n_points, dtype=np.int64)
    for span, _ in slabs:
        weight[span] += 1
    return int(np.searchsorted(np.cumsum(weight), weight.sum() / 2.0))


def _clip(slabs: list[tuple[slice, np.ndarray]], lo: int, hi: int) -> list[tuple[slice, np.ndarray]]:
    """The parts of ``slabs`` on the points [lo, hi)."""
    out = []
    for span, u in slabs:
        a, b = max(span.start, lo), min(span.stop, hi)
        if a < b:
            out.append((slice(a, b), u[:, :, a - span.start:b - span.start]))
    return out


def _kinetic_rows(f: np.ndarray, phase: np.ndarray) -> None:
    """f = ifft(phase * fft(f)) along the last axis, in place."""
    spectrum = np.fft.fft(f, axis=-1)
    spectrum *= phase
    f[...] = np.fft.ifft(spectrum, axis=-1)


def _couple_points(f3: np.ndarray, slabs1: list[tuple[slice, np.ndarray]],
                   slabs2: list[tuple[slice, np.ndarray]]) -> None:
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
           t_final: float,
           form_factors: tuple[FormFactorTable, FormFactorTable] | None = None,
           snapshot_times: Sequence[float] = (),
           on_snapshot: Callable[[ChannelState], None] | None = None) -> ChannelState:
    """Propagate the channel state to t_final with Strang splitting.

    Unitary to rounding: the kinetic factor is an exact spectral phase and
    each oscillator's coupling factor an exact Hermitian exponential.  The
    state's health is checked every ``HEALTH_STRIDE`` steps, at every
    snapshot and at t_final, and the run stops at the first failed check:
    TruncationError when the top oscillator shell holds more norm than
    ``config.top_shell_threshold``, NormDriftError when the total norm
    drifts beyond ``NORM_TOLERANCE`` or an amplitude is not finite.
    The in-run checks read the state just after a kinetic step, whose
    per-channel norms are those at the step boundary (the kinetic factor is
    a unitary phase on each channel), so they cost no extra transforms.

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
    dt = horizon / n_steps

    if form_factors is None:
        form_factors = form_factor_pair(params, grid, config.n_max, config.potential_shape)
    ff1, ff2 = form_factors
    if ff1.grid != grid or ff2.grid != grid or ff1.n_max < config.n_max or ff2.n_max < config.n_max:
        raise GridError("form-factor tables do not match the propagation grid/truncation")

    e1 = OscillatorBasis.for_oscillator(params, 1, config.n_max).energies
    e2 = OscillatorBasis.for_oscillator(params, 2, config.n_max).energies
    # each oscillator may spend half of the run's error budget
    floor = 0.5 * COUPLING_ERROR_BUDGET * params.hbar / max(horizon, dt)
    slabs1 = _coupling_slabs(params, ff1, e1, dt, floor)
    slabs2 = _coupling_slabs(params, ff2, e2, dt, floor)

    # the channel energy phases D^(1/2) ride on each kinetic half step
    energies = (e1[:, None] + e2[None, :]).reshape(-1)
    kin_half = kinetic_phase(grid, params, dt / 2.0, energies)
    kin_full = kin_half * kin_half

    snap_steps: dict[int, float] = {}
    for ts in snapshot_times:
        s = int(round((ts - state.t) / dt))
        if not 1 <= s <= n_steps:
            raise ValueError(f"snapshot time {ts} outside ({state.t}, {t_final}]")
        snap_steps[s] = state.t + s * dt

    n_lvl = config.n_max + 1
    f = state.amplitudes.reshape(n_lvl * n_lvl, grid.n_points).copy()
    f3 = f.reshape(n_lvl, n_lvl, grid.n_points)
    norm0 = math.sqrt(float(np.sum(np.abs(f) ** 2)) * grid.dx)

    # the calling thread takes rows [0, r) of each kinetic step and points
    # [0, cut) of each coupling step; the worker takes the rest
    r = f.shape[0] // 2
    cut = _halving_point(slabs1 + slabs2, grid.n_points)
    mine = (f3, _clip(slabs1, 0, cut), _clip(slabs2, 0, cut))
    theirs = (f3, _clip(slabs1, cut, grid.n_points), _clip(slabs2, cut, grid.n_points))
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

    def kin(phase: np.ndarray) -> None:
        halves(_kinetic_rows, (f[:r], phase[:r]), (f[r:], phase[r:]))

    def emit(step: int) -> None:
        if on_snapshot is not None and step in snap_steps:
            snap = ChannelState(snap_steps[step], grid, f3.copy())
            _health_check(snap, config, norm0)
            on_snapshot(snap)

    with pool:
        # Strang chain K(dt/2) [C K(dt)]^{n-1} C K(dt/2); a snapshot splits
        # the merged full kinetic step so the emitted state sits on a step
        # boundary
        kin(kin_half)
        for step in range(1, n_steps + 1):
            halves(_couple_points, mine, theirs)
            if step == n_steps:
                kin(kin_half)
            elif step in snap_steps:
                kin(kin_half)
                emit(step)
                kin(kin_half)
            else:
                kin(kin_full)
            if step % HEALTH_STRIDE == 0 and step < n_steps:
                _health_check(ChannelState(state.t + step * dt, grid, f3), config, norm0)

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
        raise _at_breach(NormDriftError(f"{what} at t={state.t:.6g}"), state, norm)
    top = state.top_shell_norm()
    if not top <= config.top_shell_threshold:
        raise _at_breach(TruncationError(
            f"top-shell norm {top:.3e} exceeds {config.top_shell_threshold:.1e} "
            f"at n_max={state.n_max}, t={state.t:.6g}"), state, top)


def _at_breach(err: RuntimeError, state: ChannelState, norm: float) -> RuntimeError:
    # attached here, not in the raising frame: a local name for the error
    # there would make a cycle through its traceback that keeps the failed
    # run's arrays alive until the garbage collector runs
    err.t, err.norm, err.n_max = state.t, norm, state.n_max
    return err


def evolve_with_escalation(params: ModelParams, grid: SpatialGrid, config: PropagatorConfig,
                           t_final: float, snapshot_times: Sequence[float] = (),
                           on_snapshot: Callable[[ChannelState], None] | None = None,
                           n_max_cap: int = 10,
                           form_factors: tuple[FormFactorTable, FormFactorTable] | None = None,
                           on_escalation: Callable[[TruncationError], None] | None = None,
                           ) -> tuple[ChannelState, PropagatorConfig]:
    """Run from the product initial state, raising n_max by 2 until the
    top-shell check passes.  Returns the final state and the config used.

    ``form_factors`` are used by every attempt whose n_max they cover;
    ``evolve`` builds its own tables for the attempts beyond.  Each failed
    attempt's TruncationError is passed to ``on_escalation`` before the next
    attempt starts.
    """
    cfg = config
    while True:
        state = initialize_channels(params, grid, cfg.n_max)
        covered = form_factors is not None and min(t.n_max for t in form_factors) >= cfg.n_max
        try:
            final = evolve(state, params, cfg, t_final,
                           form_factors=form_factors if covered else None,
                           snapshot_times=snapshot_times, on_snapshot=on_snapshot)
            return final, cfg
        except TruncationError as err:
            if cfg.n_max + 2 > n_max_cap:
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

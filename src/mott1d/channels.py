"""Coupled-channel propagation of the full three-body state.

Projecting the total wave function onto the product basis of oscillator
eigenstates turns the three-coordinate Schrödinger equation into coupled 1D
channel equations for the amplitudes f_{n1 n2}(R, t):

    i hbar df/dt = [ -hbar^2/2M d^2/dR^2 + E_{n1} + E_{n2} ] f_{n1 n2}
                   + lam * sum_k V1_{n1 k}(R) f_{k n2}
                   + lam * sum_k V2_{n2 k}(R) f_{n1 k}

with the form factors V_i_{n n'}(R) = <phi_n | V((R - r)/delta) | phi_n'>.
The propagator is a Strang split: exact spectral free step per channel,
then per-grid-point exponential of the (n_max+1)^2-dimensional Hermitian
channel matrix (channel energies + coupling).  That matrix is
time-independent, so its exponential is eigendecomposed once per run and
cached; points where the coupling magnitude is below a floor (far from both
oscillators) cost only diagonal energy phases.
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
    hermite_functions,
    kinetic_phase,
    make_spherical_wave_1d,
)


class TruncationError(RuntimeError):
    """Norm reached the top oscillator shell: n_max too small for this run."""


class NormDriftError(RuntimeError):
    """Total norm drifted beyond tolerance during propagation."""


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
    gh_nodes: int = 0
    converged_delta: float = math.nan

    def max_coupling(self) -> np.ndarray:
        """max_{n n'} |V_{n n'}(R)| per grid point."""
        return np.abs(self.values).max(axis=(0, 1))


def build_form_factors(params: ModelParams, basis: OscillatorBasis, grid: SpatialGrid,
                       shape: str = "gaussian", tol: float = 1e-10,
                       start_nodes: int = 16, max_nodes: int = 256) -> FormFactorTable:
    """Gauss–Hermite quadrature of the potential matrix elements.

    In the scaled oscillator coordinate xi = (r - a)/l the element is
    integral of h_n(xi) h_n'(xi) V((R - a - l*xi)/delta) dxi, evaluated with
    Gauss–Hermite nodes (weights corrected for the Gaussian already inside
    the Hermite functions).  The node count doubles until the table changes
    by less than ``tol`` in max norm.
    """
    profile = POTENTIAL_SHAPES.get(shape)
    if profile is None:
        raise ValueError(f"unknown potential shape {shape!r}; known: {sorted(POTENTIAL_SHAPES)}")
    ell = basis.length
    a = basis.a
    n_max = basis.n_max
    x = grid.points

    def table_with(n_nodes: int) -> np.ndarray:
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

    n_nodes = start_nodes
    prev = table_with(n_nodes)
    while True:
        n_nodes *= 2
        if n_nodes > max_nodes:
            raise QuadratureError(
                f"form-factor quadrature not converged at {max_nodes} Gauss–Hermite nodes")
        cur = table_with(n_nodes)
        delta = float(np.max(np.abs(cur - prev)))
        if delta < tol:
            return FormFactorTable(
                oscillator_index=1 if basis.a == params.a1 else 2,
                center=a, n_max=n_max, grid=grid, values=cur, shape=shape,
                gh_nodes=n_nodes, converged_delta=delta)
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


@dataclass(frozen=True)
class PropagatorConfig:
    """Numerical knobs of the split-step channel propagator."""

    dt: float = 0.1
    scheme: str = "strang-spectral"
    n_max: int = 4
    top_shell_threshold: float = 1e-6
    norm_tolerance: float = 1e-8
    # zeroing couplings below the floor costs at most coupling_error_budget
    # in amplitude over the whole run
    coupling_error_budget: float = 1e-14
    potential_shape: str = "gaussian"
    matmul_chunk: int = 2048

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max!r}")
        if self.scheme != "strang-spectral":
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _coupling_propagators(params: ModelParams, config: PropagatorConfig,
                          ff1: FormFactorTable, ff2: FormFactorTable,
                          energies: np.ndarray, dt: float, horizon: float,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point coupling exponentials on the active zone.

    Returns (active_indices, U_active, inactive_phase) where U_active[j] is
    exp(-i dt (E + lam W(R_j)) / hbar) and inactive_phase are the diagonal
    energy phases used everywhere else.
    """
    n_ch = energies.size
    n_lvl = int(round(math.sqrt(n_ch)))
    hbar = params.hbar
    coupling_mag = params.lam * (ff1.max_coupling() + ff2.max_coupling())
    floor = config.coupling_error_budget * hbar / max(horizon, dt)
    active = np.flatnonzero(coupling_mag > floor)

    phase_inactive = np.exp(-1j * energies * dt / hbar)
    if active.size == 0:
        return active, np.empty((0, n_ch, n_ch), dtype=np.complex128), phase_inactive

    eye = np.eye(n_lvl)
    v1 = np.ascontiguousarray(ff1.values[:, :, active].transpose(2, 0, 1))
    v2 = np.ascontiguousarray(ff2.values[:, :, active].transpose(2, 0, 1))
    # W = V1 (x) I + I (x) V2 in the (n1, n2) product ordering
    w = (np.einsum("xab,cd->xacbd", v1, eye) + np.einsum("xcd,ab->xacbd", v2, eye))
    w = params.lam * w.reshape(active.size, n_ch, n_ch)
    w += np.diag(energies)[None, :, :]
    evals, evecs = np.linalg.eigh(w)
    u = np.einsum("xij,xj,xkj->xik", evecs, np.exp(-1j * evals * dt / hbar), evecs)
    return active, np.ascontiguousarray(u), phase_inactive


def evolve(state: ChannelState, params: ModelParams, config: PropagatorConfig,
           t_final: float,
           form_factors: tuple[FormFactorTable, FormFactorTable] | None = None,
           snapshot_times: Sequence[float] = (),
           on_snapshot: Callable[[ChannelState], None] | None = None) -> ChannelState:
    """Propagate the channel state to t_final with Strang splitting.

    Unitary to rounding: the kinetic factor is an exact spectral phase and
    the coupling factor is an exact Hermitian exponential.  Raises
    TruncationError when the top oscillator shell accumulates more norm than
    ``config.top_shell_threshold`` and NormDriftError when the total norm
    drifts beyond ``config.norm_tolerance``.

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

    basis1 = OscillatorBasis.for_oscillator(params, 1, config.n_max)
    basis2 = OscillatorBasis.for_oscillator(params, 2, config.n_max)
    energies = (basis1.energies[:, None] + basis2.energies[None, :]).reshape(-1)

    active, u_active, phase_inactive = _coupling_propagators(
        params, config, ff1, ff2, energies, dt, horizon)
    inactive = np.ones(grid.n_points, dtype=bool)
    inactive[active] = False

    kin_half = kinetic_phase(grid, params, dt / 2.0)
    kin_full = kin_half * kin_half

    snap_steps: dict[int, float] = {}
    for ts in snapshot_times:
        s = int(round((ts - state.t) / dt))
        if not 1 <= s <= n_steps:
            raise ValueError(f"snapshot time {ts} outside ({state.t}, {t_final}]")
        snap_steps[s] = state.t + s * dt

    n_ch = energies.size
    f = state.amplitudes.reshape(n_ch, grid.n_points).copy()
    norm0 = math.sqrt(float(np.sum(np.abs(f) ** 2)) * grid.dx)
    chunk = config.matmul_chunk

    def apply_coupling(f: np.ndarray) -> None:
        f[:, inactive] *= phase_inactive[:, None]
        if active.size:
            fa = np.ascontiguousarray(f[:, active].T)
            for lo in range(0, active.size, chunk):
                hi = min(lo + chunk, active.size)
                fa[lo:hi] = np.matmul(u_active[lo:hi], fa[lo:hi, :, None])[:, :, 0]
            f[:, active] = fa.T

    def emit(f_now: np.ndarray, step: int) -> None:
        if on_snapshot is not None and step in snap_steps:
            snap = ChannelState(snap_steps[step], grid,
                                f_now.reshape(config.n_max + 1, config.n_max + 1, -1).copy())
            _health_check(snap, config, norm0)
            on_snapshot(snap)

    def kin(f: np.ndarray, phase: np.ndarray) -> np.ndarray:
        return np.fft.ifft(np.fft.fft(f, axis=-1) * phase, axis=-1)

    # Strang chain K(dt/2) [C K(dt)]^{n-1} C K(dt/2); a snapshot splits the
    # merged full kinetic step so the emitted state sits on a step boundary
    f = kin(f, kin_half)
    for step in range(1, n_steps + 1):
        apply_coupling(f)
        if step == n_steps:
            f = kin(f, kin_half)
        elif step in snap_steps:
            f = kin(f, kin_half)
            emit(f, step)
            f = kin(f, kin_half)
        else:
            f = kin(f, kin_full)

    out = ChannelState(t_final, grid, f.reshape(config.n_max + 1, config.n_max + 1, -1))
    _health_check(out, config, norm0)
    emit(f, n_steps)
    return out


def _health_check(state: ChannelState, config: PropagatorConfig, norm0: float) -> None:
    drift = abs(state.norm() - norm0)
    if drift > config.norm_tolerance:
        raise NormDriftError(f"norm drift {drift:.3e} exceeds {config.norm_tolerance:.1e}")
    top = state.top_shell_norm()
    if top > config.top_shell_threshold:
        raise TruncationError(
            f"top-shell norm {top:.3e} exceeds {config.top_shell_threshold:.1e} "
            f"at n_max={state.n_max}")


def evolve_with_escalation(params: ModelParams, grid: SpatialGrid, config: PropagatorConfig,
                           t_final: float, snapshot_times: Sequence[float] = (),
                           on_snapshot: Callable[[ChannelState], None] | None = None,
                           n_max_cap: int = 10) -> tuple[ChannelState, PropagatorConfig]:
    """Run from the product initial state, raising n_max by 2 until the
    top-shell check passes.  Returns the final state and the config used."""
    cfg = config
    while True:
        state = initialize_channels(params, grid, cfg.n_max)
        try:
            final = evolve(state, params, cfg, t_final,
                           snapshot_times=snapshot_times, on_snapshot=on_snapshot)
            return final, cfg
        except TruncationError:
            if cfg.n_max + 2 > n_max_cap:
                raise
            cfg = replace(cfg, n_max=cfg.n_max + 2)


# ---------------------------------------------------------------------------
# exports


def snapshot_to_csv(state: ChannelState, path) -> None:
    """Channel snapshot as CSV rows (x, n1, n2, Re f, Im f), nonzero channels only."""
    amp = state.amplitudes
    x = state.grid.points
    dx = state.grid.dx
    with open(path, "w", newline="") as fh:
        fh.write("x,n1,n2,re_f,im_f\n")
        for n1 in range(state.n_max + 1):
            for n2 in range(state.n_max + 1):
                if float(np.sum(np.abs(amp[n1, n2]) ** 2)) * dx == 0.0:
                    continue
                for xj, v in zip(x, amp[n1, n2]):
                    fh.write(f"{xj:.17g},{n1},{n2},{v.real:.17g},{v.imag:.17g}\n")


def probability_summary(state: ChannelState) -> dict:
    """JSON-ready probability summary {t, probabilities: {"n1,n2": P}}."""
    probs = channel_probabilities(state)
    return {"t": state.t,
            "probabilities": {f"{n1},{n2}": p for (n1, n2), p in sorted(probs.items())}}

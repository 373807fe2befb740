"""Interaction-picture Dyson engine: first- and second-order excitation amplitudes.

The truncated Dyson series for the joint-excitation amplitudes is the exact
solution of a triangular linear system: the freely evolving packet psi feeds
single-excitation amplitudes b_i[n] through one form-factor kick, and those
feed the joint amplitudes c[(n1, n2)] through the kick of the other
oscillator,

    i hbar d/dt psi      = (K + E00) psi
    i hbar d/dt b1[n]    = (K + En0) b1[n] + lam V1_{n 0}(R) psi
    i hbar d/dt c[n1,n2] = (K + En1n2) c   + lam V2_{n2 0}(R) b1[n1]
                                           + lam V1_{n1 0}(R) b2[n2]

(K the kinetic operator, E the channel energies).  The propagator splits
this as Strang: exact spectral step for K + E per entry, and the exact
exponential of the strictly triangular kick matrix, which terminates at its
quadratic term; dropping that term (a naive nested midpoint rule) would cost
an O(dt) error in the double time integral.  Amplitudes are exactly linear
(b) and quadratic (c) in lam, so the lam^2 / lam^4 probability laws are
structural, independent of the step size.  Only psi and b take that chain
in x-space: c feeds no other row, so its kick source S_j at
tau_j = (j - 1/2) dt is summed in k-space, A += exp(+i w tau_j) FFT(S_j)
with w = hbar k^2/2M + E/hbar, and c = ifft(exp(-i w T) A): 34 transforms
per step at n_max = 4 instead of 50.

The two interaction orderings (oscillator 1 first vs oscillator 2 first)
share their channel energies, so by default one joint block carries their
sum.  On request (``split_orderings``, used by the ordering diagnostic of
``second_order_joint_amplitude``) a leading ordering axis of length 2 keeps
them apart, and the simultaneous-kick quadratic term is split evenly between
them.  The kick touches only the index slabs where the bare form factors
exceed ``KICK_FLOOR`` of their maximum, so the slabs are independent of lam.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .channels import FormFactorTable, form_factor_pair
from .core import (
    ComplexField,
    ModelParams,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    kinetic_phase,
    make_spherical_wave_1d,
    suggest_grid,
)

# Kick entries whose bare form factor is below this fraction of its maximum
# are dropped: the oracle's coupling error budget, relative to the tables
# rather than to lam so the lam^2 / lam^4 laws stay exact.
KICK_FLOOR = 1e-14


def free_propagate(psi: ComplexField, dt: float, params: ModelParams) -> ComplexField:
    """Exact spectral free-particle propagation by dt (negative dt allowed)."""
    values = np.fft.ifft(np.fft.fft(psi.values) * kinetic_phase(psi.grid, params, dt))
    return ComplexField(psi.grid, values)


def default_duhamel_step(params: ModelParams) -> float:
    """Step resolving both the oscillator phase and the transit through the
    potential range: min(0.02/omega, 0.02 delta/v0)."""
    return min(0.02 / params.omega, 0.02 * params.delta / params.v0)


@dataclass(frozen=True)
class DysonOrder:
    """Perturbative order tag; order 2 carries the interaction ordering."""

    order: int
    ordering: str = "sum"  # "1->2", "2->1", or "sum" of both

    def __post_init__(self) -> None:
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order!r}")
        if self.ordering not in ("sum", "1->2", "2->1"):
            raise ValueError(f"unknown ordering {self.ordering!r}")


@dataclass(frozen=True)
class PerturbativeAmplitude:
    """One target channel's perturbative amplitude and probability."""

    target: tuple[int, int]
    t: float
    order: DysonOrder
    amplitude: ComplexField = field(repr=False)
    probability: float
    ordering_probabilities: dict[str, float] | None
    quadrature_step: float
    converged: bool

    def __post_init__(self) -> None:
        norm_sq = self.amplitude.norm() ** 2
        if abs(self.probability - norm_sq) > 1e-12 * max(norm_sq, 1e-300):
            raise ValueError("probability inconsistent with the amplitude field norm")

    def as_report(self) -> dict:
        """JSON-ready amplitude report."""
        out = {"order": self.order.order, "n1": self.target[0], "n2": self.target[1],
               "t": self.t, "P": self.probability,
               "quadrature_step": self.quadrature_step, "converged": self.converged}
        if self.ordering_probabilities is not None:
            out["ordering_probabilities"] = dict(self.ordering_probabilities)
        return out


@dataclass
class DysonResult:
    """Raw stacked amplitudes of one engine run (all targets at once)."""

    params: ModelParams
    grid: SpatialGrid
    t: float
    n_max: int
    dt: float
    psi_free: np.ndarray = field(repr=False)
    b1: np.ndarray = field(repr=False)  # (n_max+1, n) rows 1.. used
    b2: np.ndarray = field(repr=False)
    # (orderings, n_max+1, n_max+1, n) rows/cols 1.. used; one ordering entry
    # (their sum) by default, [1->2, 2->1] with split_orderings
    joint: np.ndarray = field(repr=False)
    # relative changes over the last step halving, filled in by
    # converged_dyson_run: over every channel, and over the outcome sums
    # (single-left, single-right, joint) which the weak top-shell channels
    # cannot dominate
    halving_rel_change: float = math.nan
    halving_obs_change: float = math.nan

    def history_sums(self) -> dict[str, float]:
        probs = self.probabilities()
        return {
            "right": sum(v for (n1, n2), v in probs.items() if n1 >= 1 and n2 == 0),
            "left": sum(v for (n1, n2), v in probs.items() if n1 == 0 and n2 >= 1),
            "both": sum(v for (n1, n2), v in probs.items() if n1 >= 1 and n2 >= 1),
        }

    def _norm_sq(self, values: np.ndarray) -> float:
        return float(np.sum(np.abs(values) ** 2)) * self.grid.dx

    def first_order_probability(self, target: tuple[int, int]) -> float:
        n1, n2 = target
        if n1 >= 1 and n2 == 0:
            return self._norm_sq(self.b1[n1])
        if n2 >= 1 and n1 == 0:
            return self._norm_sq(self.b2[n2])
        raise ValueError(f"first-order target must be (n,0) or (0,n) with n>=1, got {target}")

    def joint_amplitude(self, n1: int, n2: int) -> np.ndarray:
        """Joint amplitude of channel (n1, n2), both orderings summed."""
        return self.joint[:, n1, n2].sum(axis=0)

    def joint_probability(self, target: tuple[int, int]) -> float:
        n1, n2 = target
        if n1 < 1 or n2 < 1:
            raise ValueError(f"joint target needs n1, n2 >= 1, got {target}")
        return self._norm_sq(self.joint_amplitude(n1, n2))

    def probabilities(self) -> dict[tuple[int, int], float]:
        """Every excited channel's probability at this order of the series."""
        out: dict[tuple[int, int], float] = {}
        for n in range(1, self.n_max + 1):
            out[(n, 0)] = self._norm_sq(self.b1[n])
            out[(0, n)] = self._norm_sq(self.b2[n])
        for n1 in range(1, self.n_max + 1):
            for n2 in range(1, self.n_max + 1):
                out[(n1, n2)] = self._norm_sq(self.joint_amplitude(n1, n2))
        return out


def _kick_slab(g: np.ndarray) -> slice:
    """Smallest index range holding every point where some row of the bare
    form-factor table g exceeds KICK_FLOOR of its maximum magnitude."""
    mag = np.abs(g).max(axis=0)
    idx = np.flatnonzero(mag > KICK_FLOOR * mag.max())
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)


def dyson_run(params: ModelParams, t_final: float, form_factors: tuple[FormFactorTable, FormFactorTable] | None = None,
              grid: SpatialGrid | None = None, n_max: int = 4,
              dt: float | None = None, split_orderings: bool = False) -> DysonResult:
    """One kick–propagate pass of the whole amplitude stack up to t_final.

    ``split_orderings`` keeps the 1->2 and 2->1 joint amplitudes apart
    (a leading ordering axis of length 2 instead of 1).
    """
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    if grid is None:
        grid = suggest_grid(params, t_final)
    if form_factors is None:
        form_factors = form_factor_pair(params, grid, n_max)
    ff1, ff2 = form_factors
    if ff1.n_max < n_max or ff2.n_max < n_max:
        raise ValueError("form-factor tables truncated below requested n_max")
    if dt is None:
        dt = default_duhamel_step(params)
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    dt = t_final / n_steps

    n = n_max
    n_ord = 2 if split_orderings else 1
    g1 = ff1.values[1:n + 1, 0, :]  # V1_{n 0}(R) for n = 1..n_max
    g2 = ff2.values[1:n + 1, 0, :]
    e1 = OscillatorBasis.for_oscillator(params, 1, n).energies
    e2 = OscillatorBasis.for_oscillator(params, 2, n).energies

    # x-space rows: [psi, b1[1..n], b2[1..n]]; the joint rows live in k-space
    e_rows = np.concatenate(([e1[0] + e2[0]], e1[1:] + e2[0], e1[0] + e2[1:]))
    kin_half = kinetic_phase(grid, params, dt / 2.0, e_rows)
    kin_full = kin_half * kin_half

    # the kick only touches the slabs where the bare form factors matter;
    # joint entries need both, the simultaneous (quadratic) term the overlap
    s1, s2 = _kick_slab(g1), _kick_slab(g2)
    s12 = slice(max(s1.start, s2.start), min(s1.stop, s2.stop))  # empty if disjoint
    span = slice(min(s1.start, s2.start), max(s1.stop, s2.stop))
    kappa = -1j * params.lam * dt / params.hbar
    k1 = kappa * g1[:, s1]
    k2 = kappa * g2[:, s2]
    k12 = (kappa * kappa / n_ord) * g1[:, None, s12] * g2[None, :, s12]

    st = np.zeros((len(e_rows), grid.n_points), dtype=np.complex128)
    st[0] = make_spherical_wave_1d(grid, params.sigma, params.P0, params.hbar).values
    src = np.zeros((n_ord, n, n, grid.n_points), dtype=np.complex128)
    acc = np.zeros_like(src)

    def kick(st: np.ndarray, tau: float, phase: np.ndarray) -> None:
        psi, b1, b2 = st[0], st[1:1 + n], st[1 + n:]
        # the joint source from the pre-kick b (psi is never kicked), with
        # exp(+i E tau / hbar) folded into the slab factors; 1->2 lands in
        # ordering entry 0, 2->1 in the last one (the same one when summed)
        u1, u2 = (np.exp(1j * tau / params.hbar * e[1:, None]) for e in (e1, e2))
        src[..., span] = 0.0
        src[0, :, :, s2] += (u1 * b1[:, s2])[:, None, :] * (u2 * k2)[None, :, :]
        src[-1, :, :, s1] += (u1 * k1)[:, None, :] * (u2 * b2[:, s1])[None, :, :]
        src[:, :, :, s12] += u1[:, None] * u2[None] * k12 * psi[s12]
        f = np.fft.fft(src, axis=-1)
        acc[...] += np.multiply(f, phase, out=f)
        b1[:, s1] += k1 * psi[s1]
        b2[:, s2] += k2 * psi[s2]

    def propagate(st: np.ndarray, phase: np.ndarray) -> np.ndarray:
        f = np.fft.fft(st, axis=-1)
        f *= phase
        return np.fft.ifft(f, axis=-1)

    # exp(+i omega_k tau_j) at the kick times tau_j = (j - 1/2) dt
    phase, advance = kinetic_phase(grid, params, -dt / 2.0), kinetic_phase(grid, params, -dt)
    st = propagate(st, kin_half)
    for step in range(1, n_steps + 1):
        kick(st, (step - 0.5) * dt, phase)
        st = propagate(st, kin_half if step == n_steps else kin_full)
        phase *= advance

    b1, b2 = np.zeros((2, n + 1, grid.n_points), dtype=np.complex128)
    b1[1:], b2[1:] = st[1:1 + n], st[1 + n:]
    e_joint = (e1[1:, None] + e2[None, 1:]).ravel()
    acc *= kinetic_phase(grid, params, t_final, e_joint).reshape(n, n, -1)
    joint = np.zeros((n_ord, n + 1, n + 1, grid.n_points), dtype=np.complex128)
    joint[:, 1:, 1:] = np.fft.ifft(acc, axis=-1)
    return DysonResult(params=params, grid=grid, t=t_final, n_max=n_max, dt=dt,
                       psi_free=st[0], b1=b1, b2=b2, joint=joint)


def converged_dyson_run(params: ModelParams, t_final: float,
                        form_factors: tuple[FormFactorTable, FormFactorTable] | None = None,
                        grid: SpatialGrid | None = None, n_max: int = 4,
                        dt: float | None = None, rtol: float = 1e-3,
                        max_halvings: int = 6, noise_floor: float = 1e-30,
                        split_orderings: bool = False,
                        on_pass: Callable[[DysonResult], None] | None = None
                        ) -> tuple[DysonResult, bool]:
    """Halve the Duhamel step until every reported probability is stable.

    Returns (result, converged).  Raises QuadratureError when the halving
    budget runs out before the relative change drops below ``rtol``.  Each
    pass's result goes to ``on_pass`` once its changes are set (NaN on the
    first pass).  Probabilities below ``noise_floor`` are left out of the
    metric: at amplitude ~1e-15 of the unit-norm packet they are rounding,
    and their relative changes carry no information.
    """
    if grid is None:
        grid = suggest_grid(params, t_final)
    if form_factors is None:
        form_factors = form_factor_pair(params, grid, n_max)
    step = dt if dt is not None else default_duhamel_step(params)
    prev = dyson_run(params, t_final, form_factors, grid, n_max, step, split_orderings)
    if on_pass is not None:
        on_pass(prev)
    if params.lam == 0.0:
        prev.halving_rel_change = 0.0
        prev.halving_obs_change = 0.0
        return prev, True
    for _ in range(max_halvings):
        step /= 2.0
        cur = dyson_run(params, t_final, form_factors, grid, n_max, step, split_orderings)
        change = _max_rel_change(prev.probabilities(), cur.probabilities(), noise_floor)
        cur.halving_rel_change = change
        cur.halving_obs_change = _max_rel_change(prev.history_sums(), cur.history_sums(),
                                                 noise_floor)
        if on_pass is not None:
            on_pass(cur)
        if change <= rtol:
            return cur, True
        prev = cur
    raise QuadratureError(
        f"Duhamel quadrature not converged to rtol={rtol} after {max_halvings} halvings")


def _max_rel_change(a: Mapping, b: Mapping, floor: float) -> float:
    worst = 0.0
    for key, pb in b.items():
        pa = a[key]
        ref = max(abs(pa), abs(pb))
        if ref > floor:
            worst = max(worst, abs(pa - pb) / ref)
    return worst


def first_order_amplitude(target: tuple[int, int], t: float, params: ModelParams,
                          form_factors: tuple[FormFactorTable, FormFactorTable] | None = None,
                          grid: SpatialGrid | None = None, dt: float | None = None,
                          rtol: float = 1e-3) -> PerturbativeAmplitude:
    """Leading-order amplitude for exciting exactly one oscillator to level n.

    Target must be (n, 0) or (0, n) with n >= 1; the probability scales
    exactly as lam^2.
    """
    n1, n2 = target
    if not ((n1 >= 1 and n2 == 0) or (n2 >= 1 and n1 == 0)):
        raise ValueError(f"target must be (n,0) or (0,n) with n>=1, got {target}")
    n_max = max(n1, n2)
    run, converged = converged_dyson_run(params, t, form_factors, grid, n_max, dt, rtol)
    values = run.b1[n1] if n1 >= 1 else run.b2[n2]
    amp = ComplexField(run.grid, values)
    return PerturbativeAmplitude(
        target=target, t=t, order=DysonOrder(1), amplitude=amp,
        probability=run.first_order_probability(target),
        ordering_probabilities=None, quadrature_step=run.dt, converged=converged)


def second_order_joint_amplitude(target: tuple[int, int], t: float, params: ModelParams,
                                 form_factors: tuple[FormFactorTable, FormFactorTable] | None = None,
                                 grid: SpatialGrid | None = None, dt: float | None = None,
                                 rtol: float = 1e-3) -> PerturbativeAmplitude:
    """Leading-order joint-excitation amplitude, both interaction orderings.

    Warns when t <= tau2: the farther oscillator has not yet been reached by
    a classical transit, outside the regime the scaling statements address.
    The probability scales exactly as lam^4.
    """
    n1, n2 = target
    if n1 < 1 or n2 < 1:
        raise ValueError(f"joint target needs n1, n2 >= 1, got {target}")
    if t <= params.tau2:
        warnings.warn(f"t={t} <= tau2={params.tau2}: joint excitation still forming",
                      stacklevel=2)
    n_max = max(n1, n2)
    run, converged = converged_dyson_run(params, t, form_factors, grid, n_max, dt, rtol,
                                         split_orderings=True)
    p12, p21 = (run._norm_sq(c) for c in run.joint[:, n1, n2])
    amp = ComplexField(run.grid, run.joint_amplitude(n1, n2))
    return PerturbativeAmplitude(
        target=target, t=t, order=DysonOrder(2, "sum"), amplitude=amp,
        probability=run.joint_probability(target),
        ordering_probabilities={"1->2": p12, "2->1": p21},
        quadrature_step=run.dt, converged=converged)


@dataclass(frozen=True)
class HistoryProbabilities:
    """The four exclusive outcomes at time t.

    "right" is oscillator 1 (center a1 > 0 by scenario convention), "left"
    oscillator 2; in the same-side geometry oscillator 2 physically sits on
    the right as well, the labels follow the opposite-side reading.
    p_none is the norm deficit, so the four sum to one exactly.
    """

    t: float
    p_none: float
    p_right_only: float
    p_left_only: float
    p_both: float
    single_map: dict[tuple[int, int], float]
    joint_map: dict[tuple[int, int], float]
    quadrature_step: float
    converged: bool

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_none, self.p_right_only, self.p_left_only, self.p_both)


def histories_from_run(run: DysonResult, converged: bool = True) -> HistoryProbabilities:
    """Collapse one engine run into the four-outcome summary."""
    probs = run.probabilities()
    sums = run.history_sums()
    return HistoryProbabilities(
        t=run.t, p_none=1.0 - sums["right"] - sums["left"] - sums["both"],
        p_right_only=sums["right"], p_left_only=sums["left"], p_both=sums["both"],
        single_map={k: v for k, v in probs.items() if 0 in k},
        joint_map={k: v for k, v in probs.items() if 0 not in k},
        quadrature_step=run.dt, converged=converged)


def history_probabilities(t: float, params: ModelParams,
                          form_factors: tuple[FormFactorTable, FormFactorTable] | None = None,
                          n_max: int = 4, grid: SpatialGrid | None = None,
                          dt: float | None = None, rtol: float = 1e-3) -> HistoryProbabilities:
    """Outcome probabilities: none / right only / left only / both excited."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t!r}")
    run, converged = converged_dyson_run(params, t, form_factors, grid, n_max, dt, rtol)
    return histories_from_run(run, converged)

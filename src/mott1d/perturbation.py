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

The two halves of a step are independent kernels, so they run on two
threads.  The calling thread keeps the x-space chain (kick and propagate of
psi and b) and submits each step's source, cut to the kick span, to one
single-worker executor per call; the worker owns the phase exp(+i w tau_j)
and adds the transformed sources into A in step order, so every sum is
taken in the same order as on one thread.  The calling thread waits only
when three sources are in flight, and reads A after every one has been
added.

The two interaction orderings (oscillator 1 first vs oscillator 2 first)
share their channel energies, so one joint block carries both orderings'
sum.  The kick touches only the index slabs where the bare form factors
exceed ``KICK_FLOOR`` of their maximum, so the slabs are independent of lam.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .channels import FormFactorTable
from .core import (
    ModelParams,
    NormDriftError,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    _at_breach,
    history_sums,
    kinetic_phase,
    make_spherical_wave_1d,
)

# Kick entries whose bare form factor is below this fraction of its maximum
# are dropped: the oracle's coupling error budget, relative to the tables
# rather than to lam so the lam^2 / lam^4 laws stay exact.
KICK_FLOOR = 1e-14

# Probabilities below this are left out of the step-halving metric: at
# amplitude ~1e-15 of the unit-norm packet they are rounding, and their
# relative changes carry no information.
NOISE_FLOOR = 1e-30


def default_duhamel_step(params: ModelParams) -> float:
    """Step resolving both the oscillator phase and the transit through the
    potential range: min(0.02/omega, 0.02 delta/v0)."""
    return min(0.02 / params.omega, 0.02 * params.delta / params.v0)


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
    # (n_max+1, n_max+1, n) rows/cols 1.. used; both orderings summed
    joint: np.ndarray = field(repr=False)
    # relative changes over the last step halving, filled in by
    # converged_dyson_run: over every channel, and over the outcome sums
    # (single-left, single-right, joint) which the weak top-shell channels
    # cannot dominate
    halving_rel_change: float = math.nan
    halving_obs_change: float = math.nan

    def _norm_sq(self, values: np.ndarray) -> float:
        return float(np.sum(np.abs(values) ** 2)) * self.grid.dx

    def probabilities(self) -> dict[tuple[int, int], float]:
        """Every excited channel's probability at this order of the series."""
        out: dict[tuple[int, int], float] = {}
        for n in range(1, self.n_max + 1):
            out[(n, 0)] = self._norm_sq(self.b1[n])
            out[(0, n)] = self._norm_sq(self.b2[n])
        for n1 in range(1, self.n_max + 1):
            for n2 in range(1, self.n_max + 1):
                out[(n1, n2)] = self._norm_sq(self.joint[n1, n2])
        return out


def _kick_slab(g: np.ndarray) -> slice:
    """Smallest index range holding every point where some row of the bare
    form-factor table g exceeds KICK_FLOOR of its maximum magnitude.

    A non-finite table raises ValueError: every comparison with its NaN
    maximum would be False and leave the slab, and so every kick, empty.
    """
    mag = np.abs(g).max(axis=0)
    peak = mag.max()
    if not math.isfinite(peak):
        raise ValueError(f"form-factor table is not finite (max |V| = {peak})")
    idx = np.flatnonzero(mag > KICK_FLOOR * peak)
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)


def _add_spectrum(acc: np.ndarray, values: np.ndarray, phase: np.ndarray) -> None:
    """acc += phase * FFT(values) along the last axis."""
    f = np.fft.fft(values, axis=-1)
    acc += np.multiply(f, phase, out=f)


def dyson_run(params: ModelParams, t_final: float,
              form_factors: tuple[FormFactorTable, FormFactorTable], grid: SpatialGrid,
              n_max: int = 4, dt: float | None = None) -> DysonResult:
    """One kick–propagate pass of the whole amplitude stack up to t_final."""
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    ff1, ff2 = form_factors
    if ff1.n_max < n_max or ff2.n_max < n_max:
        raise ValueError("form-factor tables truncated below requested n_max")
    if dt is None:
        dt = default_duhamel_step(params)
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    dt = t_final / n_steps

    n = n_max
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
    k12 = kappa * kappa * g1[:, None, s12] * g2[None, :, s12]

    st = np.zeros((len(e_rows), grid.n_points), dtype=np.complex128)
    st[0] = make_spherical_wave_1d(grid, params.sigma, params.P0, params.hbar).values
    acc = np.zeros((n, n, grid.n_points), dtype=np.complex128)
    # the slabs relative to the span, which is all a source covers
    r1, r2, r12 = (slice(s.start - span.start, s.stop - span.start) for s in (s1, s2, s12))

    def kick(st: np.ndarray, tau: float) -> np.ndarray:
        """Kick psi's slabs into b in place; return the joint source on the span."""
        psi, b1, b2 = st[0], st[1:1 + n], st[1 + n:]
        # the joint source from the pre-kick b (psi is never kicked), with
        # exp(+i E tau / hbar) folded into the slab factors: 1->2, 2->1, and
        # the simultaneous term
        u1, u2 = (np.exp(1j * tau / params.hbar * e[1:, None]) for e in (e1, e2))
        src = np.zeros((n, n, span.stop - span.start), dtype=np.complex128)
        src[:, :, r2] += (u1 * b1[:, s2])[:, None, :] * (u2 * k2)[None, :, :]
        src[:, :, r1] += (u1 * k1)[:, None, :] * (u2 * b2[:, s1])[None, :, :]
        src[:, :, r12] += u1[:, None] * u2[None] * k12 * psi[s12]
        b1[:, s1] += k1 * psi[s1]
        b2[:, s2] += k2 * psi[s2]
        return src

    def propagate(st: np.ndarray, phase: np.ndarray) -> np.ndarray:
        f = np.fft.fft(st, axis=-1)
        f *= phase
        return np.fft.ifft(f, axis=-1)

    # exp(+i omega_k tau_j) at the kick times tau_j = (j - 1/2) dt; from
    # here on only the worker touches phase, padded and acc
    phase, advance = kinetic_phase(grid, params, -dt / 2.0), kinetic_phase(grid, params, -dt)
    padded = np.zeros_like(acc)  # zero off the span for the whole run

    def accumulate(src: np.ndarray) -> None:
        padded[..., span] = src
        _add_spectrum(acc, padded, phase)
        np.multiply(phase, advance, out=phase)

    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="dyson-joint") as pool:
        # one source being added and two waiting, at most
        in_flight: deque[Future] = deque()
        try:
            st = propagate(st, kin_half)
            for step in range(1, n_steps + 1):
                if len(in_flight) == 3:
                    in_flight.popleft().result()
                in_flight.append(pool.submit(accumulate, kick(st, (step - 0.5) * dt)))
                st = propagate(st, kin_half if step == n_steps else kin_full)
            while in_flight:
                in_flight.popleft().result()
        finally:
            # after a failure, the sources not yet started are not added:
            # leaving the executor would otherwise wait for each of them
            for future in in_flight:
                future.cancel()

    b1, b2 = np.zeros((2, n + 1, grid.n_points), dtype=np.complex128)
    b1[1:], b2[1:] = st[1:1 + n], st[1 + n:]
    e_joint = (e1[1:, None] + e2[None, 1:]).ravel()
    acc *= kinetic_phase(grid, params, t_final, e_joint).reshape(n, n, -1)
    joint = np.zeros((n + 1, n + 1, grid.n_points), dtype=np.complex128)
    joint[1:, 1:] = np.fft.ifft(acc, axis=-1)
    return DysonResult(params=params, grid=grid, t=t_final, n_max=n_max, dt=dt,
                       psi_free=st[0], b1=b1, b2=b2, joint=joint)


def converged_dyson_run(params: ModelParams, t_final: float,
                        form_factors: tuple[FormFactorTable, FormFactorTable],
                        grid: SpatialGrid, n_max: int = 4,
                        dt: float | None = None, rtol: float = 1e-3,
                        max_halvings: int = 6,
                        on_pass: Callable[[DysonResult], None] | None = None
                        ) -> DysonResult:
    """Halve the Duhamel step until every reported probability is stable.

    Returns the first pass whose probabilities changed by at most ``rtol``
    from the previous pass's (the only pass when lam is 0); raises
    QuadratureError when the halving budget runs out before that, and
    NormDriftError at the first pass with a non-finite probability.  Each
    pass's result goes to ``on_pass`` once its changes are set (NaN on the
    first pass).  Probabilities below ``NOISE_FLOOR`` are left out of the
    metric.
    """
    step = dt if dt is not None else default_duhamel_step(params)
    run = dyson_run(params, t_final, form_factors, grid, n_max, step)
    if on_pass is not None:
        on_pass(run)
    probs = run.probabilities()
    if not all(math.isfinite(p) for p in probs.values()):
        raise _non_finite(run)
    if params.lam == 0.0:
        run.halving_rel_change = 0.0
        run.halving_obs_change = 0.0
        return run
    sums = history_sums(probs)
    for _ in range(max_halvings):
        step /= 2.0
        del run  # the next pass needs only this one's probabilities, not its fields
        run = dyson_run(params, t_final, form_factors, grid, n_max, step)
        cur_probs = run.probabilities()
        cur_sums = history_sums(cur_probs)
        run.halving_rel_change = _max_rel_change(probs, cur_probs)
        run.halving_obs_change = _max_rel_change(sums, cur_sums)
        if not math.isfinite(run.halving_rel_change):
            raise _non_finite(run)
        if on_pass is not None:
            on_pass(run)
        if run.halving_rel_change <= rtol:
            return run
        probs, sums = cur_probs, cur_sums
    raise QuadratureError(
        f"Duhamel quadrature not converged to rtol={rtol} after {max_halvings} halvings")


def _max_rel_change(a: Mapping, b: Mapping) -> float:
    """Largest relative change between the entries of a and b above
    NOISE_FLOOR; inf when an entry of either is not finite, which a
    comparison with the floor would skip."""
    worst = 0.0
    for key, pb in b.items():
        pa = a[key]
        if not (math.isfinite(pa) and math.isfinite(pb)):
            return math.inf
        ref = max(abs(pa), abs(pb))
        if ref > NOISE_FLOOR:
            worst = max(worst, abs(pa - pb) / ref)
    return worst


def _non_finite(run: DysonResult) -> NormDriftError:
    norm = math.sqrt(run._norm_sq(run.psi_free) + sum(run.probabilities().values()))
    err = NormDriftError(f"non-finite amplitudes at t={run.t:.6g} (dt={run.dt:.6g})")
    return _at_breach(err, run.t, norm, run.n_max)

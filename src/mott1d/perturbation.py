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
per step at n_max = 4 instead of 50.  A pass reaches each requested time
exactly: between two of them it takes the fewest equal steps no longer than
dt, with a closing half step on each, and reads c there from a copy of A.

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
A pass returns psi, b and c as the oracle's ``ChannelState``, one
(n_max+1, n_max+1, N) channel stack: psi at (0, 0), b1[n] at (n, 0), b2[n]
at (0, n) and c at (n1, n2).
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Mapping, Sequence

import numpy as np

from .channels import ChannelState, FormFactorTable, channel_probabilities
from .core import (
    ModelParams,
    OscillatorBasis,
    QuadratureError,
    SpatialGrid,
    check_norm,
    history_sums,
    kinetic_phase,
    l2_norm,
    make_spherical_wave_1d,
    time_segments,
)

# Kick entries whose bare form factor is below this fraction of its maximum
# are dropped: the oracle's coupling error budget, relative to the tables
# rather than to lam so the lam^2 / lam^4 laws stay exact.
KICK_FLOOR = 1e-14

# Probabilities below this are left out of the step-halving metric: at
# amplitude ~1e-15 of the unit-norm packet they are rounding, and their
# relative changes carry no information.
NOISE_FLOOR = 1e-30

# Step halvings converged_dyson_run makes before it gives up.
MAX_HALVINGS = 6

# dyson_run checks psi's norm and that psi and b are finite every
# HEALTH_STRIDE steps, counted in steps so that where a failing run stops
# does not depend on the machine
HEALTH_STRIDE = 10


def default_duhamel_step(params: ModelParams) -> float:
    """Step resolving both the oscillator phase and the transit through the
    potential range: min(0.02/omega, 0.02 delta/v0)."""
    return min(0.02 / params.omega, 0.02 * params.delta / params.v0)


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


def _propagate(st: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """ifft(phase * FFT(st)) along the last axis: the free step of each row."""
    f = np.fft.fft(st, axis=-1)
    f *= phase
    return np.fft.ifft(f, axis=-1)


def dyson_run(params: ModelParams, t_final: float,
              form_factors: tuple[FormFactorTable, FormFactorTable], grid: SpatialGrid,
              n_max: int, dt: float, snapshot_times: Sequence[float] = ()
              ) -> tuple[ChannelState, dict[float, ChannelState]]:
    """One kick–propagate pass of the whole amplitude stack up to t_final.

    From 0 to each requested time in turn it takes the fewest equal steps no
    longer than ``dt`` (``core.time_segments``, the oracle's time grid too),
    so it lands exactly on each.  Returns the final state
    and the snapshots keyed by the requested ``snapshot_times``; one at
    t_final is the final state itself.  Raises NormDriftError when psi's
    norm drifts or psi or b is not finite, checked every ``HEALTH_STRIDE``
    steps, or when a state at a requested time is not finite.
    """
    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final!r}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    ff1, ff2 = form_factors
    if ff1.n_max < n_max or ff2.n_max < n_max:
        raise ValueError("form-factor tables truncated below requested n_max")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    segments = time_segments(0.0, t_final, snapshot_times, dt)

    n = n_max
    g1 = ff1.values[1:n + 1, 0, :]  # V1_{n 0}(R) for n = 1..n_max
    g2 = ff2.values[1:n + 1, 0, :]
    e1 = OscillatorBasis.for_oscillator(params, 1, n).energies
    e2 = OscillatorBasis.for_oscillator(params, 2, n).energies

    # x-space rows: [psi, b1[1..n], b2[1..n]]; the joint rows live in k-space
    e_rows = np.concatenate(([e1[0] + e2[0]], e1[1:] + e2[0], e1[0] + e2[1:]))
    e_joint = (e1[1:, None] + e2[None, 1:]).ravel()

    # the kick only touches the slabs where the bare form factors matter;
    # joint entries need both, the simultaneous (quadratic) term the overlap
    s1, s2 = _kick_slab(g1), _kick_slab(g2)
    s12 = slice(max(s1.start, s2.start), min(s1.stop, s2.stop))  # empty if disjoint
    span = slice(min(s1.start, s2.start), max(s1.stop, s2.stop))

    st = np.zeros((len(e_rows), grid.n_points), dtype=np.complex128)
    st[0] = make_spherical_wave_1d(grid, params.sigma, params.P0, params.hbar).values
    norm0 = l2_norm(st[0], grid.dx)
    acc = np.zeros((n, n, grid.n_points), dtype=np.complex128)
    # the slabs relative to the span, which is all a source covers
    r1, r2, r12 = (slice(s.start - span.start, s.stop - span.start) for s in (s1, s2, s12))

    def kick(st: np.ndarray, tau: float, k1: np.ndarray, k2: np.ndarray,
             k12: np.ndarray) -> np.ndarray:
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

    # exp(+i omega_k tau_j) at the kick times tau_j; from here on only the
    # worker touches phase, padded and acc
    phase = np.empty(grid.n_points, dtype=np.complex128)
    padded = np.zeros_like(acc)  # zero off the span for the whole run

    def accumulate(src: np.ndarray, advance: np.ndarray, restart: float | None) -> None:
        # a segment's first source restarts the phase at its kick time
        if restart is not None:
            phase[...] = kinetic_phase(grid, params, -restart)
        padded[..., span] = src
        _add_spectrum(acc, padded, phase)
        np.multiply(phase, advance, out=phase)

    def stack(t: float, joint: np.ndarray) -> ChannelState:
        """The checked channel stack at t, c formed from the accumulator ``joint``."""
        joint *= kinetic_phase(grid, params, t, e_joint).reshape(n, n, -1)
        # allocated after the phase's temporaries are gone, so they never coexist
        amplitudes = np.empty((n + 1, n + 1, grid.n_points), dtype=np.complex128)
        amplitudes[0, 0], amplitudes[1:, 0], amplitudes[0, 1:] = st[0], st[1:1 + n], st[1 + n:]
        amplitudes[1:, 1:] = np.fft.ifft(joint, axis=-1)
        check_norm(l2_norm(st[0], grid.dx), l2_norm(amplitudes, grid.dx), norm0, t, n)
        return ChannelState(t, grid, amplitudes)

    at_time: dict[float, ChannelState] = {}
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="dyson-joint") as pool:
        # one source being added and two waiting, at most
        in_flight: deque[Future] = deque()
        try:
            for start, end, n_steps in segments:
                h = (end - start) / n_steps
                kappa = -1j * params.lam * h / params.hbar
                k1 = kappa * g1[:, s1]
                k2 = kappa * g2[:, s2]
                k12 = kappa * kappa * g1[:, None, s12] * g2[None, :, s12]
                kin_half = kinetic_phase(grid, params, h / 2.0, e_rows)
                kin_full = kin_half * kin_half
                advance = kinetic_phase(grid, params, -h)
                st = _propagate(st, kin_half)
                for step in range(1, n_steps + 1):
                    if len(in_flight) == 3:
                        in_flight.popleft().result()
                    tau = start + (step - 0.5) * h
                    in_flight.append(pool.submit(accumulate, kick(st, tau, k1, k2, k12),
                                                 advance, tau if step == 1 else None))
                    st = _propagate(st, kin_half if step == n_steps else kin_full)
                    if step % HEALTH_STRIDE == 0 and step < n_steps:
                        check_norm(l2_norm(st[0], grid.dx), l2_norm(st, grid.dx), norm0,
                                   start + step * h, n)
                while in_flight:
                    in_flight.popleft().result()
                # c from a copy of the accumulator, except at the end
                at_time[end] = stack(end, acc if end == t_final else acc.copy())
        finally:
            # after a failure, the sources not yet started are not added:
            # leaving the executor would otherwise wait for each of them
            for future in in_flight:
                future.cancel()
    return at_time[t_final], {t: at_time[t] for t in snapshot_times}


def converged_dyson_run(params: ModelParams, t_final: float,
                        form_factors: tuple[FormFactorTable, FormFactorTable],
                        grid: SpatialGrid, n_max: int = 4, dt: float | None = None,
                        rtol: float = 1e-3, snapshot_times: Sequence[float] = ()
                        ) -> tuple[ChannelState, dict[float, ChannelState],
                                   list[dict[str, float | None]]]:
    """Halve the Duhamel step until every probability is stable at every time.

    Each pass is one ``dyson_run`` to t_final with snapshots at
    ``snapshot_times``.  Returns the final state and snapshots of the first
    pass whose probabilities changed by at most ``rtol`` from the previous
    pass's at every time (the only pass when lam is 0), and ``halving``:
    one {t, dt, rel_change, obs_change} entry per pass and time, ordered by
    time, then pass, with dt the step that reached t and the changes over
    every channel and over the outcome sums, which the weak top-shell
    channels cannot dominate (None at first).  Raises QuadratureError when
    ``MAX_HALVINGS`` halvings do not get there.  Probabilities below
    ``NOISE_FLOOR`` are left out of the metric.
    """
    step = dt if dt is not None else default_duhamel_step(params)
    halving: list[dict[str, float | None]] = []
    probs = None
    for _ in range(MAX_HALVINGS + 1):
        final, snapshots = dyson_run(params, t_final, form_factors, grid, n_max, step,
                                     snapshot_times)
        cur = {t: channel_probabilities(s) for t, s in {**snapshots, t_final: final}.items()}
        worst = 0.0
        for start, t, n_steps in time_segments(0.0, t_final, snapshot_times, step):
            rel = obs = None
            if probs is not None:
                rel = _max_rel_change(probs[t], cur[t])
                obs = _max_rel_change(history_sums(probs[t]), history_sums(cur[t]))
                worst = max(worst, rel)
            halving.append({"t": t, "dt": (t - start) / n_steps,
                            "rel_change": rel, "obs_change": obs})
        done = params.lam == 0.0 if probs is None else worst <= rtol
        if done:
            return final, snapshots, sorted(halving, key=lambda h: h["t"])
        probs = cur
        step /= 2.0
        # the next pass needs only this one's probabilities, not its fields
        del final, snapshots
    raise QuadratureError(
        f"Duhamel quadrature not converged to rtol={rtol} after {MAX_HALVINGS} halvings")


def _max_rel_change(a: Mapping, b: Mapping) -> float:
    """Largest relative change between the entries of a and b above
    NOISE_FLOOR; dyson_run returns only finite amplitudes."""
    worst = 0.0
    for key, pb in b.items():
        pa = a[key]
        ref = max(abs(pa), abs(pb))
        if ref > NOISE_FLOOR:
            worst = max(worst, abs(pa - pb) / ref)
    return worst

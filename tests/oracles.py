"""Independent oracles used by the tests.

Most are derived in closed form, separately from the code under test: free
Gaussian evolution from the exact k-space integral, the two-Gaussian
convolution for the ground-state form factor, the overlap normalization of
the two-packet superposition, and high-order finite-difference momentum
moments.  ``mirror`` (reflection about the origin of a symmetric grid) and
``free_propagate`` (the free step through ``core.kinetic_phase``) are test
tools.  ``reference_dyson_stack`` is the plain 41-row (at n_max = 4)
Dyson kernel with a per-pair Python kick loop and both interaction
orderings carried separately, kept as the differential reference for the
production engine.  ``reference_channel_evolve`` is the coupled-channel
split step with one (n_max+1)^2-dimensional coupling exponential per grid
point and one unmerged Strang step per stage, the differential reference
for the per-oscillator oracle.
"""

from __future__ import annotations

import math

import numpy as np

from mott1d.core import ComplexField, ModelParams, kinetic_phase


def mirror(values: np.ndarray) -> np.ndarray:
    """values at -x for each point x of a symmetric grid (exact).

    Index 0 maps to itself (x_min is identified with x_max by periodicity);
    index j maps to n - j.
    """
    out = np.empty_like(values)
    out[..., 0] = values[..., 0]
    out[..., 1:] = values[..., :0:-1]
    return out


def free_propagate(psi: ComplexField, dt: float, params: ModelParams) -> ComplexField:
    """Exact spectral free-particle propagation by dt (negative dt allowed),
    through the engines' shared kinetic phase."""
    values = np.fft.ifft(np.fft.fft(psi.values) * kinetic_phase(psi.grid, params, dt))
    return ComplexField(psi.grid, values)


def free_gaussian(x: np.ndarray, t: float, sigma: float, k0: float,
                  hbar: float = 1.0, M: float = 1.0) -> np.ndarray:
    """Exact free evolution of the unit-norm packet
    (pi sigma^2)^(-1/4) exp(-x^2/2sigma^2 + i k0 x).

    Completing the square in k-space gives a complex width
    alpha(t) = sigma^2 + i hbar t / M:
    psi(x,t) = (sigma^2/pi)^(1/4) alpha^(-1/2)
               exp(i k0 (x - v0 t / 2) - (x - v0 t)^2 / (2 alpha)).
    """
    alpha = sigma ** 2 + 1j * hbar * t / M
    v0 = hbar * k0 / M
    pref = (sigma ** 2 / np.pi) ** 0.25 / np.sqrt(alpha)
    return pref * np.exp(1j * k0 * (x - 0.5 * v0 * t) - (x - v0 * t) ** 2 / (2.0 * alpha))


def free_two_packet(x: np.ndarray, t: float, sigma: float, P0: float,
                    hbar: float = 1.0, M: float = 1.0) -> np.ndarray:
    """Freely evolved psi+ + psi-, normalized from its t=0 values on x."""
    k0 = P0 / hbar
    psi0 = free_gaussian(x, 0.0, sigma, k0, hbar, M) + free_gaussian(x, 0.0, sigma, -k0, hbar, M)
    dx = x[1] - x[0]
    norm = np.sqrt(np.sum(np.abs(psi0) ** 2) * dx)
    psi_t = free_gaussian(x, t, sigma, k0, hbar, M) + free_gaussian(x, t, sigma, -k0, hbar, M)
    return psi_t / norm


def spread_law(sigma: float, t: float, hbar: float = 1.0, M: float = 1.0) -> float:
    return sigma * np.sqrt(1.0 + (hbar * t / (M * sigma ** 2)) ** 2)


def spherical_wave_norm_sq(sigma: float, P0: float, hbar: float = 1.0) -> float:
    """Exact L2 norm squared of (1/sqrt(sigma)) e^{-R^2/2sigma^2} 2 cos(P0 R/hbar).

    integral e^{-R^2/sigma^2} dR = sigma sqrt(pi) and the cosine cross term
    contributes the Gaussian-damped overlap factor e^{-(P0 sigma/hbar)^2}.
    """
    return 2.0 * np.sqrt(np.pi) * (1.0 + np.exp(-((P0 * sigma / hbar) ** 2)))


def gaussian_form_factor_00(r: np.ndarray, a: float, delta: float, ell: float) -> np.ndarray:
    """Closed form of <phi_0| exp(-((R-r)/delta)^2/2) |phi_0>.

    Two-Gaussian integral: (1 + ell^2/(2 delta^2))^(-1/2)
    exp(-(R-a)^2 / (2 delta^2 + ell^2)).
    """
    pref = (1.0 + ell ** 2 / (2.0 * delta ** 2)) ** -0.5
    return pref * np.exp(-((r - a) ** 2) / (2.0 * delta ** 2 + ell ** 2))


def fd_momentum_moments(values: np.ndarray, dx: float, hbar: float = 1.0
                        ) -> tuple[float, float]:
    """(mean p, delta p) from 6th-order periodic finite differences.

    <p> = hbar Im integral conj(psi) psi' dx, <p^2> = hbar^2 integral |psi'|^2 dx.
    """
    d = (45.0 * (np.roll(values, -1) - np.roll(values, 1))
         - 9.0 * (np.roll(values, -2) - np.roll(values, 2))
         + (np.roll(values, -3) - np.roll(values, 3))) / (60.0 * dx)
    mean_p = hbar * float(np.sum(np.imag(np.conj(values) * d)) * dx)
    p2 = hbar ** 2 * float(np.sum(np.abs(d) ** 2) * dx)
    return mean_p, float(np.sqrt(max(p2 - mean_p ** 2, 0.0)))


def reference_dyson_stack(psi0: np.ndarray, g1: np.ndarray, g2: np.ndarray,
                          energies: np.ndarray, dx: float, t_final: float, dt: float,
                          lam: float, hbar: float = 1.0, M: float = 1.0) -> dict:
    """Strang kick–propagate pass of the triangular Dyson system, entry by entry.

    g1[n], g2[n] are the bare form factors V_{n 0}(R) (rows 1.. used),
    energies[n] the oscillator levels (equal for both oscillators).  Every
    (n1, n2) pair carries its 1->2 and 2->1 ordering separately, each with
    half of the simultaneous-kick quadratic term.  Returns the final psi and
    the dicts b1[n], b2[n], c12[(n1, n2)], c21[(n1, n2)].
    """
    n_max = g1.shape[0] - 1
    n_points = psi0.size
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    dt = t_final / n_steps
    pairs = [(i, j) for i in range(1, n_max + 1) for j in range(1, n_max + 1)]
    # rows: psi, b1[1..], b2[1..], c12[pairs], c21[pairs]
    rows = ([("psi", 0, 0)] + [("b1", n, 0) for n in range(1, n_max + 1)]
            + [("b2", 0, n) for n in range(1, n_max + 1)]
            + [("c12", i, j) for i, j in pairs] + [("c21", i, j) for i, j in pairs])
    row = {(kind, i, j): r for r, (kind, i, j) in enumerate(rows)}
    e_row = np.array([energies[i] + energies[j] for _, i, j in rows])
    k = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)
    kin_half = np.exp(-1j * (hbar * k[None, :] ** 2 / (2.0 * M)
                             + e_row[:, None] / hbar) * (dt / 2.0))
    kin_full = kin_half * kin_half
    kappa = -1j * lam * dt / hbar

    st = np.zeros((len(rows), n_points), dtype=np.complex128)
    st[0] = psi0

    def kick(st: np.ndarray) -> None:
        psi = st[0].copy()
        b1_pre = {n: st[row["b1", n, 0]].copy() for n in range(1, n_max + 1)}
        b2_pre = {n: st[row["b2", 0, n]].copy() for n in range(1, n_max + 1)}
        for n in range(1, n_max + 1):
            st[row["b1", n, 0]] += kappa * g1[n] * psi
            st[row["b2", 0, n]] += kappa * g2[n] * psi
        for i, j in pairs:
            diag = 0.5 * kappa * kappa * g1[i] * g2[j] * psi
            st[row["c12", i, j]] += kappa * g2[j] * b1_pre[i] + diag
            st[row["c21", i, j]] += kappa * g1[i] * b2_pre[j] + diag

    st = np.fft.ifft(np.fft.fft(st, axis=-1) * kin_half, axis=-1)
    for step in range(1, n_steps + 1):
        kick(st)
        phase = kin_half if step == n_steps else kin_full
        st = np.fft.ifft(np.fft.fft(st, axis=-1) * phase, axis=-1)
    out: dict = {"psi": st[0], "b1": {}, "b2": {}, "c12": {}, "c21": {}}
    for (kind, i, j), r in row.items():
        if kind == "b1":
            out["b1"][i] = st[r]
        elif kind == "b2":
            out["b2"][j] = st[r]
        elif kind != "psi":
            out[kind][(i, j)] = st[r]
    return out


# Yoshida's triple jump, written out here rather than read from the engine:
# the Strang steps S(w1 h) S(w0 h) S(w1 h) make one fourth-order step of h
TRIPLE_JUMP = (1.0 / (2.0 - 2.0 ** (1.0 / 3.0)),
               1.0 - 2.0 / (2.0 - 2.0 ** (1.0 / 3.0)),
               1.0 / (2.0 - 2.0 ** (1.0 / 3.0)))


def reference_channel_evolve(amplitudes: np.ndarray, v1: np.ndarray, v2: np.ndarray,
                             e1: np.ndarray, e2: np.ndarray, dx: float, t_final: float,
                             dt: float, lam: float, hbar: float = 1.0, M: float = 1.0,
                             error_budget: float = 1e-14,
                             snapshot_times: tuple[float, ...] = (),
                             weights: tuple[float, ...] = TRIPLE_JUMP) -> dict:
    """Composed split step of the coupled-channel equations from t = 0, one
    grid point at a time.

    Each step of dt is one plain Strang step of w dt per entry of
    ``weights``, in order, with no kinetic halves merged.  At every point
    where lam (max|V1| + max|V2|) exceeds the error-budget floor, the
    coupling factor is the exponential of the full (n_max+1)^2-dimensional
    channel matrix diag(E1 (+) E2) + lam (V1 (x) I + I (x) V2), built from
    its eigendecomposition; elsewhere it is the diagonal channel-energy
    phase.  The floor spreads the budget over the sum of |w| dt of every
    step.  The kinetic factor carries no energies.  Returns
    {"final": amplitudes, "snapshots": {t: amplitudes}}, with snapshot times
    snapped to step boundaries.
    """
    n_lvl, _, n_points = amplitudes.shape
    n_ch = n_lvl * n_lvl
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    dt = t_final / n_steps
    snap_steps = {int(round(ts / dt)) for ts in snapshot_times}

    energies = (e1[:, None] + e2[None, :]).reshape(-1)
    mag = lam * (np.abs(v1[:n_lvl, :n_lvl]).max(axis=(0, 1))
                 + np.abs(v2[:n_lvl, :n_lvl]).max(axis=(0, 1)))
    floor = error_budget * hbar / (max(t_final, dt) * sum(abs(w) for w in weights))
    active = np.flatnonzero(mag > floor)
    inactive = np.ones(n_points, dtype=bool)
    inactive[active] = False
    eye = np.eye(n_lvl)
    evals = np.empty((active.size, n_ch))
    evecs = np.empty((active.size, n_ch, n_ch))
    for slot, j in enumerate(active):
        w = lam * (np.kron(v1[:n_lvl, :n_lvl, j], eye) + np.kron(eye, v2[:n_lvl, :n_lvl, j]))
        evals[slot], evecs[slot] = np.linalg.eigh(w + np.diag(energies))
    k = 2.0 * np.pi * np.fft.fftfreq(n_points, d=dx)

    def strang_factors(tau: float) -> tuple:
        """(kinetic half step, inactive-point phase, per-point coupling) for tau."""
        u = np.einsum("xij,xj,xkj->xik", evecs, np.exp(-1j * evals * tau / hbar), evecs)
        return (np.exp(-1j * hbar * k ** 2 / (2.0 * M) * (tau / 2.0)),
                np.exp(-1j * energies * tau / hbar)[:, None], u)

    factors = {w: strang_factors(w * dt) for w in set(weights)}

    def strang(f: np.ndarray, w: float) -> np.ndarray:
        kin_half, phase_inactive, u = factors[w]
        f = np.fft.ifft(np.fft.fft(f, axis=-1) * kin_half, axis=-1)
        f[:, inactive] *= phase_inactive
        f[:, active] = np.einsum("xij,xj->ix", u, f[:, active].T)
        return np.fft.ifft(np.fft.fft(f, axis=-1) * kin_half, axis=-1)

    f = amplitudes.reshape(n_ch, n_points).astype(np.complex128)
    snapshots = {}
    for step in range(1, n_steps + 1):
        for w in weights:
            f = strang(f, w)
        if step in snap_steps:
            snapshots[step * dt] = f.reshape(n_lvl, n_lvl, n_points).copy()
    return {"final": f.reshape(n_lvl, n_lvl, n_points), "snapshots": snapshots}

"""Typed errors, grids, the initial two-packet state, oscillator eigenbasis
and the outcome-history sums.

Model conventions used throughout the package:

* 1D position grid for the test particle coordinate R, uniform with a
  power-of-two point count so FFTs are cheap and mirror symmetry about the
  origin is exact (``x_j = x_min + j*dx`` with ``x_min = -x_max``).
* momentum p = hbar*k with k the standard DFT wavenumbers
  ``2*pi*fftfreq(n, dx)`` (spacing 2*pi/L).
* harmonic oscillator eigenfunctions are evaluated with the normalized
  three-term recurrence on Hermite *functions* (Gaussian weight included),
  which is stable far beyond the truncation levels used here; raw Hermite
  polynomials times an exponential overflow near n ~ 300.
* natural units hbar = M = v0 = 1 are convenient but not assumed: every
  formula carries hbar and the masses explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np


class GridError(ValueError):
    """Grid too narrow, or mismatched grids."""


class QuadratureError(RuntimeError):
    """A quadrature rule failed to converge within its node/step budget."""


class TruncationError(RuntimeError):
    """Norm reached the top oscillator shell: n_max too small for this run.

    Raised by the propagator with ``t`` (model time of the breach),
    ``norm`` (the top-shell norm there) and ``n_max`` set.
    """


class NormDriftError(RuntimeError):
    """Total norm drifted beyond tolerance, or became non-finite, during
    propagation.

    Raised by either engine with ``t`` (model time of the breach),
    ``norm`` (the total norm there) and ``n_max`` set.
    """


# the largest norm drift a healthy run may show, in either engine
NORM_TOLERANCE = 1e-8


def _at_breach(err: RuntimeError, t: float, norm: float, n_max: int) -> RuntimeError:
    # the breach's t, norm and n_max are attached here, not in the raising
    # frame: a local name for the error there would make a cycle through its
    # traceback that keeps the failed run's arrays alive until the garbage
    # collector runs
    err.t, err.norm, err.n_max = t, norm, n_max
    return err


def check_norm(held: float, total: float, norm0: float, t: float, n_max: int) -> None:
    """Raise NormDriftError unless the norm ``held`` stays within
    NORM_TOLERANCE of norm0 and ``total``, the norm of every amplitude, is
    finite; written as "not ok" so that a NaN, which compares False, fails.
    Both engines call it with norms they already hold."""
    drift = abs(held - norm0)
    if not (drift <= NORM_TOLERANCE and math.isfinite(total)):
        what = ("non-finite amplitudes" if not math.isfinite(total)
                else f"norm drift {drift:.3e} exceeds {NORM_TOLERANCE:.1e}")
        raise _at_breach(NormDriftError(f"{what} at t={t:.6g}"), t, total, n_max)


def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not (value > 0) or not math.isfinite(value):
            raise ValueError(f"{name} must be strictly positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the Hamiltonian and the initial state.

    A test particle of mass ``M`` moves along R in a symmetric two-packet
    superposition (width ``sigma``, momenta ±``P0``) and couples with
    strength ``lam`` and range ``delta`` to two harmonic oscillators
    (mass ``m``, angular frequency ``omega``) centered at ``a1 > 0`` and
    ``a2 != 0``.  The geometry a2 < 0 < a1 puts the oscillators on opposite
    sides of the origin; 0 < a1 < a2 puts them on the same side.
    """

    M: float
    m: float
    omega: float
    lam: float
    delta: float
    sigma: float
    P0: float
    a1: float
    a2: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _require_positive(M=self.M, m=self.m, omega=self.omega, delta=self.delta,
                          sigma=self.sigma, P0=self.P0, hbar=self.hbar)
        # lam = 0 is the decoupled diagnostic case and must stay constructible
        if not (self.lam >= 0) or not math.isfinite(self.lam):
            raise ValueError(f"lam must be >= 0 and finite, got {self.lam!r}")
        # a1 > 0 is a scenario-level convention (see experiments.ScenarioSpec);
        # the mirrored setup (-a1, -a2) must stay constructible for parity runs
        if self.a1 == 0 or self.a2 == 0:
            raise ValueError("oscillator centers must be nonzero")
        if self.a2 == self.a1:
            raise ValueError("a1 and a2 must differ")

    @property
    def v0(self) -> float:
        """Packet group velocity P0/M."""
        return self.P0 / self.M

    @property
    def tau1(self) -> float:
        """Classical transit time from the origin to a1."""
        return abs(self.a1) / self.v0

    @property
    def tau2(self) -> float:
        """Classical transit time from the origin to a2."""
        return abs(self.a2) / self.v0


def dimensionless_group(params: ModelParams, epsilon: float) -> dict[str, float]:
    """The coupling ratio lambda0, the declared epsilon, and the eight
    small-parameter ratios (four per oscillator)."""
    if not (epsilon > 0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    v0 = params.v0
    e_kin = params.M * v0 ** 2
    return {
        "lambda0": params.lam / e_kin,
        "epsilon": epsilon,
        "m_over_M": params.m / params.M,
        "hbar_omega_over_M_v0_sq": params.hbar * params.omega / e_kin,
        "sigma_over_a1": params.sigma / abs(params.a1),
        "sigma_over_a2": params.sigma / abs(params.a2),
        "delta_over_a1": params.delta / abs(params.a1),
        "delta_over_a2": params.delta / abs(params.a2),
        "v0_over_omega_a1": v0 / (params.omega * abs(params.a1)),
        "v0_over_omega_a2": v0 / (params.omega * abs(params.a2)),
    }


# ---------------------------------------------------------------------------
# grid and fields


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic R-grid, n_points a power of two, x_max excluded."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 2, got {n}")

    @classmethod
    def symmetric(cls, x_max: float, n_points: int) -> "SpatialGrid":
        return cls(-x_max, x_max, n_points)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


def l2_norm(values: np.ndarray, dx: float) -> float:
    """sqrt(sum |values|^2 dx) over every entry of ``values``."""
    # not np.vdot: a BLAS call would wake BLAS threads that then spin beside
    # PT's worker, the one thread an engine starts besides the caller
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * dx)


@dataclass(frozen=True)
class ComplexField:
    """A complex amplitude per grid point; values are frozen on construction."""

    grid: SpatialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.n_points,):
            raise GridError(
                f"values shape {values.shape} does not match grid ({self.grid.n_points},)")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        return l2_norm(self.values, self.grid.dx)

    def normalized(self) -> "ComplexField":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero field")
        return ComplexField(self.grid, self.values / n)


# a packet's envelope at the grid edge may reach this fraction of its peak
BOUNDARY_TOL = 1e-12
# suggest_grid pads the farthest reach of the packet by this many spread widths
PAD_SIGMAS = 8.0


def _check_boundary(grid: SpatialGrid, envelope: np.ndarray) -> None:
    peak = float(np.max(envelope))
    edge = max(float(envelope[0]), float(envelope[-1]))
    if edge > BOUNDARY_TOL * peak:
        raise GridError(f"grid too narrow: boundary amplitude {edge:.3e} exceeds "
                        f"{BOUNDARY_TOL:.1e} of peak {peak:.3e}")


def free_spread(sigma: float, t: float, hbar: float, M: float) -> float:
    """Width sigma(t) of a freely evolving Gaussian packet."""
    return sigma * math.sqrt(1.0 + (hbar * t / (M * sigma ** 2)) ** 2)


def kinetic_phase(grid: SpatialGrid | np.ndarray, params: ModelParams, dt: float,
                  energies: np.ndarray | None = None) -> np.ndarray:
    """Exact spectral free step exp(-i (hbar k^2/2M + E/hbar) dt) on the grid's
    wavenumbers, or on the wavenumbers k given in place of a grid; one row
    per entry of ``energies`` when given, else the bare kinetic factor
    (E = 0)."""
    k = grid.wavenumbers if isinstance(grid, SpatialGrid) else grid
    omega = params.hbar * k ** 2 / (2.0 * params.M)
    if energies is not None:
        omega = omega[None, :] + np.asarray(energies)[:, None] / params.hbar
    return np.exp(-1j * omega * dt)


def time_segments(t0: float, t_final: float, times: Sequence[float],
                  dt: float) -> list[tuple[float, float, int]]:
    """(start, end, steps) from t0 to each requested time in turn, t_final
    last: the fewest equal steps no longer than dt that reach the segment's
    end exactly.  Both engines step on these segments."""
    ends = sorted({*times, t_final})
    if not t0 < ends[0] or ends[-1] != t_final:
        raise ValueError(f"snapshot times must lie in ({t0}, {t_final}], got {times!r}")
    return [(a, b, max(1, int(math.ceil((b - a) / dt - 1e-12))))
            for a, b in zip([t0, *ends[:-1]], ends)]


def suggest_grid(params: ModelParams, t_max: float, n_points: int | None = None) -> SpatialGrid:
    """Symmetric grid wide enough that nothing reaches the boundary by t_max.

    Half-width rule: farthest oscillator + ballistic distance v0*t_max +
    PAD_SIGMAS spread widths.  The default point count keeps dx at least
    4x finer than the shortest wavelength carried by the state.
    """
    spread = free_spread(params.sigma, t_max, params.hbar, params.M)
    x_max = max(abs(params.a1), abs(params.a2)) + params.v0 * t_max + PAD_SIGMAS * spread
    x_max = float(math.ceil(x_max))
    if n_points is None:
        k_need = params.P0 / params.hbar + 8.0 / params.sigma
        dx_target = math.pi / (4.0 * k_need)
        n_points = 1 << max(8, math.ceil(math.log2(2.0 * x_max / dx_target)))
    return SpatialGrid.symmetric(x_max, n_points)


# ---------------------------------------------------------------------------
# packets


def make_spherical_wave_1d(grid: SpatialGrid, sigma: float, P0: float,
                           hbar: float = 1.0) -> ComplexField:
    """The 1D stand-in for an isotropically emitted wave: psi+ + psi-.

    Equal-weight superposition of two Gaussian packets with opposite momenta,
    i.e. a cosine-modulated Gaussian, normalized numerically on the grid (the
    normalization constant depends on the psi+/psi- overlap).
    """
    _require_positive(sigma=sigma, hbar=hbar)
    x = grid.points
    envelope = np.exp(-x ** 2 / (2.0 * sigma ** 2)) / math.sqrt(sigma)
    _check_boundary(grid, envelope)
    psi = envelope * 2.0 * np.cos(P0 * x / hbar)
    return ComplexField(grid, psi).normalized()


# ---------------------------------------------------------------------------
# oscillator eigenbasis


def hermite_functions(xi: np.ndarray, n_max: int) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_n_max at dimensionless xi.

    Stable recurrence with the Gaussian weight carried along:
    h_{n+1} = sqrt(2/(n+1)) xi h_n - sqrt(n/(n+1)) h_{n-1}.
    Rows are unit-normalized w.r.t. integration over xi.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    xi = np.asarray(xi, dtype=float)
    h = np.zeros((n_max + 1,) + xi.shape)
    h[0] = np.pi ** -0.25 * np.exp(-xi ** 2 / 2.0)
    if n_max >= 1:
        h[1] = math.sqrt(2.0) * xi * h[0]
    for n in range(1, n_max):
        h[n + 1] = math.sqrt(2.0 / (n + 1)) * xi * h[n] - math.sqrt(n / (n + 1)) * h[n - 1]
    return h


@dataclass(frozen=True)
class OscillatorBasis:
    """Truncated eigenbasis of a harmonic oscillator centered at ``a``."""

    a: float
    m: float
    omega: float
    hbar: float
    n_max: int

    def __post_init__(self) -> None:
        _require_positive(m=self.m, omega=self.omega, hbar=self.hbar)
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")

    @classmethod
    def for_oscillator(cls, params: ModelParams, index: int, n_max: int) -> "OscillatorBasis":
        if index not in (1, 2):
            raise ValueError(f"oscillator index must be 1 or 2, got {index!r}")
        a = params.a1 if index == 1 else params.a2
        return cls(a=a, m=params.m, omega=params.omega, hbar=params.hbar, n_max=n_max)

    @property
    def length(self) -> float:
        """Oscillator length sqrt(hbar / m omega)."""
        return math.sqrt(self.hbar / (self.m * self.omega))

    @property
    def energies(self) -> np.ndarray:
        return self.hbar * self.omega * (np.arange(self.n_max + 1) + 0.5)


# ---------------------------------------------------------------------------
# outcome histories


def history_sums(pmap: Mapping[tuple[int, int], float]) -> dict[str, float]:
    """Group a channel probability map (n1, n2) -> P into the excited
    outcomes: "right" (only oscillator 1), "left" (only oscillator 2) and
    "both".  Each sum runs over ``pmap`` in its own order."""
    sums = {"right": 0.0, "left": 0.0, "both": 0.0}
    for (n1, n2), p in pmap.items():
        if n1 >= 1 and n2 == 0:
            sums["right"] += p
        elif n1 == 0 and n2 >= 1:
            sums["left"] += p
        elif n1 >= 1 and n2 >= 1:
            sums["both"] += p
    return sums


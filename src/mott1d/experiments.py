"""Scenario harness: regime checks, case comparison, sweeps, localization.

A scenario is one geometry (oscillators on opposite sides of the origin, or
both on the same side) evaluated by one or both engines: the second-order
Dyson engine ("pt") and the coupled-channel propagator ("oracle").  The
harness also owns the dimensionless-regime verdict, the lambda-scaling fits
and the conditional-localization summary, and loads the frozen numeric
thresholds used by the acceptance suite (see scripts/freeze_thresholds.py
for how they were produced).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import channels as ch
from . import perturbation as pt
from .core import (
    ComplexField,
    ModelParams,
    SpatialGrid,
    born_probability,
    dimensionless_group,
    history_sums,
    suggest_grid,
    time_segments,
)

OPPOSITE = "opposite"
COLLINEAR = "collinear"
ENGINES = ("pt", "oracle", "both")


def default_params(case: str = COLLINEAR, epsilon: float = 0.1,
                   lambda0: float = 1e-3) -> ModelParams:
    """Self-consistent natural-unit parameter family for a given epsilon.

    With hbar = M = v0 = 1 the small-parameter assumptions force
    omega = m = epsilon, sigma = delta = 1/epsilon and a1 = 1/epsilon^2;
    the farther oscillator sits at a2 = ±2 a1 depending on the geometry.
    """
    if case not in (OPPOSITE, COLLINEAR):
        raise ValueError(f"case must be {OPPOSITE!r} or {COLLINEAR!r}, got {case!r}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    a1 = epsilon ** -2
    a2 = 2.0 * a1 if case == COLLINEAR else -2.0 * a1
    return ModelParams(M=1.0, m=epsilon, omega=epsilon, lam=lambda0,
                       delta=1.0 / epsilon, sigma=1.0 / epsilon,
                       P0=1.0, a1=a1, a2=a2, hbar=1.0)


# ---------------------------------------------------------------------------
# regime check


# Verdict bounds, as multiples of epsilon except the epsilon bounds
# themselves: a value up to the first of a pair is "ok", one beyond the
# second a violation
RATIO_VALID, RATIO_INVALID = 2.0, 5.0       # every small ratio
LAMBDA_VALID, LAMBDA_INVALID = 0.1, 0.5     # lambda0
EPSILON_VALID, EPSILON_INVALID = 0.2, 0.5   # epsilon itself


@dataclass(frozen=True)
class RegimeReport:
    group: dict[str, float]  # core.dimensionless_group
    checks: dict[str, dict]
    verdict: str  # "valid" | "marginal" | "invalid"

    def as_dict(self) -> dict:
        return {"verdict": self.verdict,
                "epsilon": self.group["epsilon"],
                "group": self.group,
                "checks": self.checks}


def _grade(value: float, ok_bound: float, bad_bound: float) -> str:
    if value <= ok_bound:
        return "ok"
    if value <= bad_bound:
        return "marginal"
    return "violation"


def check_regime(params: ModelParams, epsilon: float) -> RegimeReport:
    """Grade every dimensionless ratio against the declared epsilon.

    Valid only when the coupling satisfies lambda0 << eps and every small
    ratio is O(eps); an out-of-regime parameter set is a verdict here, never
    an error (exploring it is allowed, just flagged).
    """
    group = dimensionless_group(params, epsilon)
    checks: dict[str, dict] = {}

    def record(name: str, value: float, ok: float, bad: float) -> None:
        checks[name] = {"value": value, "ok_below": ok, "invalid_above": bad,
                        "verdict": _grade(value, ok, bad)}

    record("epsilon", epsilon, EPSILON_VALID, EPSILON_INVALID)
    record("lambda0", group["lambda0"], LAMBDA_VALID * epsilon, LAMBDA_INVALID * epsilon)
    for name, value in group.items():
        if name not in ("lambda0", "epsilon"):
            record(name, value, RATIO_VALID * epsilon, RATIO_INVALID * epsilon)

    verdicts = [c["verdict"] for c in checks.values()]
    if any(v == "violation" for v in verdicts):
        overall = "invalid"
    elif all(v == "ok" for v in verdicts):
        overall = "valid"
    else:
        overall = "marginal"
    return RegimeReport(group=group, checks=checks, verdict=overall)


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class NumericSettings:
    """Engine knobs; None means derive from the parameters."""

    n_points: int | None = None
    x_max: float | None = None
    n_max: int = 4
    dt_oracle: float = 0.5
    dt_duhamel: float | None = None
    pt_rtol: float = 1e-3
    top_shell_threshold: float = 1e-6
    potential_shape: str = "gaussian"

    def __post_init__(self) -> None:
        known = sorted(ch.POTENTIAL_SHAPES)
        if self.potential_shape not in known:
            raise ValueError(f"potential_shape {self.potential_shape!r} unknown; known: {known}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One geometry + parameter set + evaluation request."""

    case: str
    params: ModelParams
    epsilon: float = 0.1
    engine: str = "both"
    targets: tuple[tuple[int, int], ...] = ((1, 1),)
    times: tuple[float, ...] | None = None  # default: (1.5 * tau2,)
    numerics: NumericSettings = field(default_factory=NumericSettings)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        a1, a2 = self.params.a1, self.params.a2
        if self.case == OPPOSITE:
            if not (a2 < 0 < a1):
                raise ValueError(f"case {OPPOSITE!r} needs a2 < 0 < a1, got a1={a1}, a2={a2}")
        elif self.case == COLLINEAR:
            if not (0 < a1 < a2):
                raise ValueError(f"case {COLLINEAR!r} needs 0 < a1 < a2, got a1={a1}, a2={a2}")
        else:
            raise ValueError(f"case must be {OPPOSITE!r} or {COLLINEAR!r}, got {self.case!r}")
        if not self.targets:
            raise ValueError("targets must not be empty")
        if self.times is not None and not self.times:
            raise ValueError("times must not be empty; None means (1.5 * tau2,)")
        for tgt in self.targets:
            n1, n2 = tgt
            if n1 < 0 or n2 < 0 or (n1 == 0 and n2 == 0):
                raise ValueError(f"target {tgt} must name an excited channel")
        if self.numerics.x_max is not None and self.numerics.n_points is None:
            raise ValueError("numerics.x_max needs numerics.n_points: "
                             "alone it would be replaced by the suggested grid")

    @property
    def eval_times(self) -> tuple[float, ...]:
        return (1.5 * self.params.tau2,) if self.times is None else self.times

    def grid(self) -> SpatialGrid:
        num = self.numerics
        t_max = max(self.eval_times)
        if num.x_max is not None:
            return SpatialGrid.symmetric(num.x_max, num.n_points)
        return suggest_grid(self.params, t_max, n_points=num.n_points)


@dataclass
class EngineRun:
    engine: str
    probabilities: dict[float, dict[tuple[int, int], float]]
    histories: dict[float, tuple[float, float, float, float]]
    convergence: dict[str, float | int | bool | str | list]
    wall_time: float


@dataclass
class ExcitationReport:
    """Everything one scenario evaluation produced."""

    spec: ScenarioSpec
    regime: RegimeReport
    engines: dict[str, EngineRun]
    wall_time: float
    oracle_states: dict[float, ch.ChannelState] = field(default_factory=dict, repr=False)
    pt_fields: dict[tuple[int, int], ComplexField] = field(default_factory=dict, repr=False)

    def probability(self, engine: str, target: tuple[int, int], t: float | None = None) -> float:
        run = self.engines[engine]
        t = t if t is not None else max(run.probabilities)
        return run.probabilities[t][target]

    def to_dict(self) -> dict:
        """Deterministic JSON payload (wall times excluded on purpose)."""
        p = self.spec.params
        out = {
            "scenario": {
                "case": self.spec.case,
                "engine": self.spec.engine,
                "epsilon": self.spec.epsilon,
                "targets": [list(t) for t in self.spec.targets],
                "times": list(self.spec.eval_times),
                "params": {"M": p.M, "m": p.m, "omega": p.omega, "lambda": p.lam,
                           "delta": p.delta, "sigma": p.sigma, "P0": p.P0,
                           "a1": p.a1, "a2": p.a2, "hbar": p.hbar},
            },
            "regime": self.regime.as_dict(),
            "engines": {},
        }
        for name, run in self.engines.items():
            out["engines"][name] = {
                "probabilities": {
                    f"{t:.17g}": {f"{n1},{n2}": v for (n1, n2), v in sorted(pmap.items())}
                    for t, pmap in run.probabilities.items()},
                "histories": {
                    f"{t:.17g}": {"none": h[0], "right_only": h[1],
                                  "left_only": h[2], "both": h[3]}
                    for t, h in run.histories.items()},
                "convergence": dict(run.convergence),
            }
        return out


Tables = tuple[ch.FormFactorTable, ch.FormFactorTable]


def _engine_run(engine: str, states: dict[float, ch.ChannelState],
                convergence: dict, wall: float) -> EngineRun:
    """Probabilities and outcome histories at each requested time.  PT's
    (0, 0) row is the undepleted free packet, so PT reports no (0, 0) entry
    and its "none" outcome is 1 minus the others."""
    probabilities: dict[float, dict[tuple[int, int], float]] = {}
    histories: dict[float, tuple[float, float, float, float]] = {}
    for want, state in states.items():
        pmap = ch.channel_probabilities(state)
        sums = history_sums(pmap)
        if engine == "pt":
            del pmap[(0, 0)]
            none = 1.0 - sums["right"] - sums["left"] - sums["both"]
        else:
            none = pmap[(0, 0)]
        probabilities[want] = pmap
        histories[want] = (none, sums["right"], sums["left"], sums["both"])
    return EngineRun(engine=engine, probabilities=probabilities, histories=histories,
                     convergence=convergence, wall_time=wall)


def _run_oracle(spec: ScenarioSpec, grid: SpatialGrid,
                form_factors: Tables) -> tuple[EngineRun, dict[float, ch.ChannelState]]:
    num = spec.numerics
    t_max = max(spec.eval_times)
    config = ch.PropagatorConfig(dt=num.dt_oracle, n_max=num.n_max,
                                 top_shell_threshold=num.top_shell_threshold)
    t0 = time.perf_counter()
    final, states, escalations = ch.evolve_with_escalation(
        spec.params, grid, config, t_max, form_factors, snapshot_times=spec.eval_times)
    wall = time.perf_counter() - t0
    # the step evolve took to each requested time, on the same time grid
    segments = [{"t": end, "dt": (end - start) / steps, "steps": steps}
                for start, end, steps in time_segments(0.0, t_max, spec.eval_times, config.dt)]
    convergence = {
        "dt": config.dt,
        "segments": segments,
        "n_max": final.n_max,
        "escalations": escalations,
        "top_shell_norm": final.top_shell_norm(),
        "norm_drift": abs(final.norm() - 1.0),
    }
    return _engine_run("oracle", states, convergence, wall), states


def _run_pt(spec: ScenarioSpec, grid: SpatialGrid,
            form_factors: Tables) -> tuple[EngineRun, dict[tuple[int, int], ComplexField]]:
    num = spec.numerics
    t0 = time.perf_counter()
    final, states, halving = pt.converged_dyson_run(
        spec.params, max(spec.eval_times), form_factors, grid, num.n_max, num.dt_duhamel,
        num.pt_rtol, snapshot_times=spec.eval_times)
    wall = time.perf_counter() - t0
    # the accepted pass's entry for each time (the last); a lone pass at
    # lam = 0 has no change: it counts as 0.0
    accepted = {h["t"]: h for h in halving}.values()
    convergence = {"dt": halving[-1]["dt"], "n_max": num.n_max,
                   # an unconverged run raises QuadratureError
                   "converged": True,
                   "halving_rel_change": max(h["rel_change"] or 0.0 for h in accepted),
                   "halving_rel_change_observables": max(h["obs_change"] or 0.0
                                                         for h in accepted),
                   "halving": halving}
    fields = {(n1, n2): final.channel_field(n1, n2)
              for n1 in range(num.n_max + 1) for n2 in range(num.n_max + 1)}
    return _engine_run("pt", states, convergence, wall), fields


def run_scenario(spec: ScenarioSpec, keep_oracle_states: bool = False) -> ExcitationReport:
    """Evaluate a scenario with the requested engine(s).

    One pair of form-factor tables serves both engines.  Out-of-regime
    parameters run anyway; the attached RegimeReport carries the flag.
    Engine failures propagate unchanged, with the scenario context added as
    an exception note.
    """
    regime = check_regime(spec.params, spec.epsilon)
    grid = spec.grid()
    engines: dict[str, EngineRun] = {}
    oracle_states: dict[float, ch.ChannelState] = {}
    pt_fields: dict[tuple[int, int], ComplexField] = {}
    t0 = time.perf_counter()
    try:
        ff = ch.form_factor_pair(spec.params, grid, spec.numerics.n_max,
                                 spec.numerics.potential_shape)
        if spec.engine in ("pt", "both"):
            engines["pt"], pt_fields = _run_pt(spec, grid, ff)
        if spec.engine in ("oracle", "both"):
            engines["oracle"], states = _run_oracle(spec, grid, ff)
            if keep_oracle_states:
                oracle_states = states
    except Exception as exc:
        # what add_note (Python 3.11+) does, spelled out for 3.10
        note = f"[scenario case={spec.case}, engine={spec.engine}]"
        exc.__notes__ = [*getattr(exc, "__notes__", ()), note]
        raise
    wall = time.perf_counter() - t0
    return ExcitationReport(spec=spec, regime=regime, engines=engines,
                            wall_time=wall, oracle_states=oracle_states,
                            pt_fields=pt_fields)


# ---------------------------------------------------------------------------
# scaling sweeps


@dataclass(frozen=True)
class ScalingFit:
    """Log-log power-law fit of a probability against the swept parameter."""

    parameter: str
    engine: str
    target: tuple[int, int]
    values: tuple[float, ...]
    probabilities: tuple[float, ...]
    slope: float
    slope_halfwidth: float
    residual_max: float

    def as_dict(self) -> dict:
        return {"parameter": self.parameter, "engine": self.engine,
                "target": list(self.target),
                "values": list(self.values), "probabilities": list(self.probabilities),
                "slope": self.slope, "slope_halfwidth": self.slope_halfwidth,
                "residual_max": self.residual_max}


def _fit_loglog(xs: Sequence[float], ps: Sequence[float], parameter: str,
                engine: str, target: tuple[int, int]) -> ScalingFit:
    lx = np.log10(np.asarray(xs))
    lp = np.log10(np.asarray(ps))
    coeffs, cov = np.polyfit(lx, lp, 1, cov=True)
    fitted = np.polyval(coeffs, lx)
    return ScalingFit(parameter=parameter, engine=engine, target=target,
                      values=tuple(float(x) for x in xs),
                      probabilities=tuple(float(p) for p in ps),
                      slope=float(coeffs[0]),
                      slope_halfwidth=2.0 * float(np.sqrt(cov[0, 0])),
                      residual_max=float(np.max(np.abs(lp - fitted))))


def sweep_lambda(spec: ScenarioSpec, lambda_values: Sequence[float],
                 target: tuple[int, int] | None = None) -> ScalingFit:
    """Sweep the coupling and fit log10 P(target) vs log10 lambda.

    Needs at least 4 values spanning at least one decade, all inside the
    validity regime.  Each value is solved as ``run_scenario`` solves it, on
    one grid and one pair of form-factor tables (they do not depend on the
    coupling), so the oracle raises n_max for a value that overfills the top
    shell.
    """
    values = sorted(float(v) for v in lambda_values)
    if len(values) < 4:
        raise ValueError(f"need >= 4 sweep values, got {len(values)}")
    if values[0] <= 0:
        raise ValueError("sweep values must be positive")
    if values[-1] / values[0] < 10.0 * (1.0 - 1e-12):
        raise ValueError("sweep must span at least one decade")
    target = target or spec.targets[0]
    if min(target) < 0 or target == (0, 0) or max(target) > spec.numerics.n_max:
        raise ValueError(f"sweep target {target} must name an excited channel "
                         f"within n_max={spec.numerics.n_max}")
    engine = "oracle" if spec.engine == "oracle" else "pt"
    for lam in values:
        rep = check_regime(replace(spec.params, lam=lam), spec.epsilon)
        if rep.verdict == "invalid":
            raise ValueError(f"sweep value lambda={lam} is outside the regime")

    grid = spec.grid()
    t_eval = max(spec.eval_times)
    ff = ch.form_factor_pair(spec.params, grid, spec.numerics.n_max,
                             spec.numerics.potential_shape)
    solve = _run_pt if engine == "pt" else _run_oracle
    probs: list[float] = []
    for lam in values:
        point = replace(spec, params=replace(spec.params, lam=lam), times=(t_eval,))
        run, _ = solve(point, grid, ff)
        p = run.probabilities[t_eval][target]
        if not p > 0.0:
            raise RuntimeError(
                f"non-positive probability {p!r} at lambda={lam}: numerical floor reached")
        probs.append(p)
    return _fit_loglog(values, probs, "lambda", engine, target)


# ---------------------------------------------------------------------------
# localization


@dataclass(frozen=True)
class LocalizationEntry:
    channel: tuple[int, int]
    t: float
    channel_probability: float
    side: str  # "right" (x > 0) or "left" (x < 0)
    mass_same_side: float | None
    defined: bool


@dataclass(frozen=True)
class LocalizationReport:
    t: float
    entries: tuple[LocalizationEntry, ...]

    def entry(self, channel: tuple[int, int]) -> LocalizationEntry:
        for e in self.entries:
            if e.channel == channel:
                return e
        raise KeyError(channel)


# a channel at or below this probability has no conditional state
LOCALIZATION_NORM_FLOOR = 1e-200


def localization_from_state(state: ch.ChannelState, params: ModelParams) -> LocalizationReport:
    """Conditional position statistics of every singly-excited channel.

    For each channel (n, 0) / (0, n) with n >= 1 the conditional state
    f / ||f|| is formed (when the channel carries norm above the floor) and
    the Born mass on the excited oscillator's side of the origin reported.
    """
    entries: list[LocalizationEntry] = []
    grid = state.grid
    pmap = ch.channel_probabilities(state)
    for n in range(1, state.n_max + 1):
        for channel, center in (((n, 0), params.a1), ((0, n), params.a2)):
            p_ch = pmap[channel]
            side = "right" if center > 0 else "left"
            if p_ch <= LOCALIZATION_NORM_FLOOR:
                entries.append(LocalizationEntry(channel=channel, t=state.t,
                                                 channel_probability=p_ch, side=side,
                                                 mass_same_side=None, defined=False))
                continue
            conditional = state.channel_field(*channel).normalized()
            interval = (0.0, grid.x_max) if center > 0 else (grid.x_min, 0.0)
            mass = born_probability(conditional, [interval])
            entries.append(LocalizationEntry(channel=channel, t=state.t,
                                             channel_probability=p_ch, side=side,
                                             mass_same_side=mass, defined=True))
    return LocalizationReport(t=state.t, entries=tuple(entries))


# ---------------------------------------------------------------------------
# acceptance defaults

ACCEPTANCE_EPSILON = 0.1
ACCEPTANCE_LAMBDA0 = 1e-3


def acceptance_numerics() -> NumericSettings:
    """The pinned acceptance-run settings: 2^14 grid points, n_max = 4."""
    return NumericSettings(n_points=2 ** 14, n_max=4, dt_oracle=0.5, dt_duhamel=0.2)


def acceptance_scenario(case: str, engine: str = "both") -> ScenarioSpec:
    """Default acceptance scenario: evaluation at 1.5 tau1 and 1.5 tau2."""
    params = default_params(case, epsilon=ACCEPTANCE_EPSILON, lambda0=ACCEPTANCE_LAMBDA0)
    return ScenarioSpec(case=case, params=params, epsilon=ACCEPTANCE_EPSILON,
                        engine=engine, targets=((1, 1),),
                        times=(1.5 * params.tau1, 1.5 * params.tau2),
                        numerics=acceptance_numerics())


# ---------------------------------------------------------------------------
# frozen thresholds


def fixtures_dir() -> Path:
    override = os.environ.get("MOTT_FIXTURES")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "fixtures"


def load_thresholds(path: Path | None = None) -> dict[str, dict]:
    """Frozen acceptance thresholds {name: {value, oracle_run_id, date}}."""
    p = path or (fixtures_dir() / "thresholds.json")
    if not p.exists():
        raise FileNotFoundError(
            f"threshold fixture {p} not found; run scripts/freeze_thresholds.py "
            f"or point MOTT_FIXTURES at a directory containing thresholds.json")
    entries = json.loads(p.read_text())
    return {e["threshold_name"]: e for e in entries}


def threshold_value(name: str, path: Path | None = None) -> float:
    entry = load_thresholds(path).get(name)
    if entry is None:
        raise KeyError(f"threshold {name!r} missing from fixture file")
    return entry["value"]

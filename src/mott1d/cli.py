"""Command-line entry point: regime / run / sweep.

The only module with side effects.  A run directory receives deterministic
result files (JSON report, CSV tables, field dumps) and, written last and
atomically, a manifest with the config snapshot, timestamps, convergence
flags and the list of produced files.  Result files are byte-identical
across reruns of the same config; wall-clock data lives only in the
manifest.

The config file is the one place a run is set: the command line names only
the config and the output directory, so the manifest's copy of the config
reproduces the run.

Exit codes: 0 ok/valid regime, 1 marginal regime, 2 invalid regime,
64 config or usage error, 70 internal numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from . import __version__
from . import channels as ch
from . import experiments as ex
from .core import GridError, ModelParams

EXIT_OK = 0
EXIT_MARGINAL = 1
EXIT_INVALID = 2
EXIT_CONFIG = 64
EXIT_NUMERIC = 70


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are rejected by name)

_SCENARIO_KEYS = {"case", "epsilon", "lambda0", "params", "engine", "targets", "times"}
_PARAMS_KEYS = {"M", "m", "omega", "lambda", "delta", "sigma", "P0", "a1", "a2", "hbar"}
_NUMERICS_KEYS = {f.name for f in fields(ex.NumericSettings)}
_SWEEP_KEYS = {"lambda0_values", "target"}
_OUTPUT_KEYS = {"formats", "density_channels", "channel_snapshot"}
_TOP_KEYS = {"scenario", "numerics", "sweep", "output"}


def _reject_unknown(section: dict, allowed: set[str], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where}.{key!r}")


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration.

    ``from_dict`` checks the config's own rules (known keys, types, the
    sweep section); every value is checked by the object that owns it, and
    any rejection is raised as ``ConfigError``.
    """

    spec: ex.ScenarioSpec
    sweep_values: tuple[float, ...] | None
    sweep_target: tuple[int, int] | None
    formats: tuple[str, ...]
    density_channels: tuple[tuple[int, int], ...]
    channel_snapshot: bool

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _reject_unknown(raw, _TOP_KEYS, "config")
        scenario = raw.get("scenario")
        if not isinstance(scenario, dict):
            raise ConfigError("config.scenario section is required")
        _reject_unknown(scenario, _SCENARIO_KEYS, "scenario")

        case = scenario.get("case")
        epsilon = _as_number(scenario.get("epsilon", 0.1), "scenario.epsilon")

        if "params" in scenario:
            psec = scenario["params"]
            if not isinstance(psec, dict):
                raise ConfigError("scenario.params must be an object")
            _reject_unknown(psec, _PARAMS_KEYS, "scenario.params")
            missing = _PARAMS_KEYS - {"hbar"} - set(psec)
            if missing:
                raise ConfigError(f"scenario.params missing keys: {sorted(missing)}")
            kwargs = {("lam" if k == "lambda" else k): _as_number(v, f"scenario.params.{k}")
                      for k, v in psec.items()}
            try:
                params = ModelParams(**kwargs)
            except ValueError as err:
                raise ConfigError(f"scenario.params invalid: {err}") from err
        else:
            lambda0 = _as_number(scenario.get("lambda0", 1e-3), "scenario.lambda0")
            try:
                params = ex.default_params(case, epsilon=epsilon, lambda0=lambda0)
            except ValueError as err:
                raise ConfigError(f"scenario invalid: {err}") from err

        engine = scenario.get("engine", "both")
        targets = _as_list(scenario.get("targets", [[1, 1]]), "scenario.targets", _as_channel)
        times = (_as_list(scenario["times"], "scenario.times", _as_number)
                 if "times" in scenario else None)

        numerics = raw.get("numerics", {})
        if not isinstance(numerics, dict):
            raise ConfigError("config.numerics must be an object")
        _reject_unknown(numerics, _NUMERICS_KEYS, "numerics")
        num_kwargs: dict[str, Any] = {}
        for key, value in numerics.items():
            if key in ("n_points", "n_max"):
                value = _as_int(value, f"numerics.{key}")
            elif key != "potential_shape":
                value = _as_number(value, f"numerics.{key}")
            num_kwargs[key] = value

        try:
            spec = ex.ScenarioSpec(case=case, params=params, epsilon=epsilon,
                                   engine=engine, targets=targets, times=times,
                                   numerics=ex.NumericSettings(**num_kwargs))
        except ValueError as err:
            raise ConfigError(str(err)) from err

        sweep_values: tuple[float, ...] | None = None
        sweep_target: tuple[int, int] | None = None
        if "sweep" in raw:
            ssec = raw["sweep"]
            if not isinstance(ssec, dict):
                raise ConfigError("config.sweep must be an object")
            _reject_unknown(ssec, _SWEEP_KEYS, "sweep")
            if "lambda0_values" not in ssec:
                raise ConfigError("sweep.lambda0_values is required")
            scale = params.M * params.v0 ** 2
            sweep_values = tuple(scale * v for v in _as_list(
                ssec["lambda0_values"], "sweep.lambda0_values", _as_number))
            if len(sweep_values) < 4:
                raise ConfigError(f"sweep needs >= 4 values, got {len(sweep_values)}")
            if "target" in ssec:
                sweep_target = _as_channel(ssec["target"], "sweep.target")

        output = raw.get("output", {})
        if not isinstance(output, dict):
            raise ConfigError("config.output must be an object")
        _reject_unknown(output, _OUTPUT_KEYS, "output")
        formats = _as_list(output.get("formats", ["json", "csv"]), "output.formats", _as_format)
        density_channels = _as_list(output.get("density_channels", [[0, 0], [1, 0]]),
                                    "output.density_channels", _as_channel)
        if len(set(density_channels)) < len(density_channels):
            raise ConfigError("output.density_channels must not repeat a channel, got "
                              f"{[list(c) for c in density_channels]}")
        n_max = spec.numerics.n_max
        for where, channels in (("scenario.targets", targets),
                                ("output.density_channels", density_channels)):
            for channel in channels:
                if max(channel) > n_max:
                    raise ConfigError(f"{where} entry {list(channel)} lies above "
                                      f"numerics.n_max={n_max}")
        snapshot = output.get("channel_snapshot", False)
        if not isinstance(snapshot, bool):
            raise ConfigError(f"output.channel_snapshot must be true or false, got {snapshot!r}")
        if snapshot and spec.engine == "pt":
            raise ConfigError("output.channel_snapshot needs the oracle's channel stack: "
                              "set scenario.engine to 'oracle' or 'both'")

        return cls(spec=spec, sweep_values=sweep_values, sweep_target=sweep_target,
                   formats=formats, density_channels=density_channels,
                   channel_snapshot=snapshot)


def _as_number(value: Any, where: str) -> float:
    # json reads NaN, Infinity and 1e400 as floats that are not finite, and
    # an integer too long for a float overflows one
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_format(value: Any, where: str) -> str:
    if value not in ("json", "csv"):
        raise ConfigError(f"{where} entry {value!r} must be 'json' or 'csv'")
    return value


def _as_list(value: Any, where: str, entry: Callable[[Any, str], Any]) -> tuple:
    """The entries of a list-valued key, each checked by ``entry``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return tuple(entry(v, where) for v in value)


def _as_channel(value: Any, where: str) -> tuple[int, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in value)):
        raise ConfigError(f"{where} entries must be [n1, n2] pairs of non-negative "
                          f"integers, got {value!r}")
    return (value[0], value[1])


def read_config(path: str | Path) -> dict:
    """The config file's JSON object, unchecked: ``RunConfig.from_dict``
    parses it."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} not found")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {p} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _run_id(raw_config: dict) -> str:
    canonical = json.dumps(raw_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((canonical + __version__).encode()).hexdigest()[:16]


class _Manifest:
    """Collects run metadata; written atomically, last, at most once."""

    def __init__(self, out_dir: Path, command: str, raw_config: dict) -> None:
        self.out_dir = out_dir
        self.data: dict[str, Any] = {
            "schema": 1,
            "command": command,
            "run_id": _run_id(raw_config),
            "package_version": __version__,
            "config": raw_config,
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "status": "running",
            "outputs": [],
            "convergence": {},
            "wall_time_s": None,
        }
        self._t0 = time.perf_counter()

    def add_output(self, name: str) -> None:
        self.data["outputs"].append(name)

    def finish(self, status: str, error: str | None = None) -> None:
        self.data["status"] = status
        if error is not None:
            self.data["error"] = error
        self.data["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.data["wall_time_s"] = time.perf_counter() - self._t0
        tmp = self.out_dir / "manifest.json.tmp"
        _write_json(tmp, self.data)
        os.replace(tmp, self.out_dir / "manifest.json")


def _prepare_out_dir(out: str | Path) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write-probe"
    probe.write_text("")
    probe.unlink()
    return out_dir


# ---------------------------------------------------------------------------
# commands


def cmd_regime(config: RunConfig, out: str | None) -> int:
    report = ex.check_regime(config.spec.params, config.spec.epsilon)
    payload = report.as_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if out is not None:
        out_dir = _prepare_out_dir(out)
        _write_json(out_dir / "regime.json", payload)
    return {"valid": EXIT_OK, "marginal": EXIT_MARGINAL, "invalid": EXIT_INVALID}[report.verdict]


def _dump_fields(config: RunConfig, report: ex.ExcitationReport, manifest: _Manifest) -> None:
    t_last = max(report.spec.eval_times)
    # the parser keeps every channel within numerics.n_max, which both
    # engines' final stacks hold
    for n1, n2 in config.density_channels:
        if report.oracle_states:
            channel_field = report.oracle_states[t_last].channel_field(n1, n2)
        else:
            channel_field = report.pt_fields[(n1, n2)]
        name = f"field_{n1}_{n2}.csv"
        x = channel_field.grid.points
        v = channel_field.values
        _write_csv(manifest.out_dir / name, ["x", "re", "im"],
                   [(float(xj), float(vj.real), float(vj.imag)) for xj, vj in zip(x, v)])
        manifest.add_output(name)


def cmd_run(config: RunConfig, manifest: _Manifest) -> int:
    out_dir = manifest.out_dir
    report = ex.run_scenario(config.spec, keep_oracle_states=True)
    if "json" in config.formats:
        _write_json(out_dir / "report.json", report.to_dict())
        manifest.add_output("report.json")
    if "csv" in config.formats:
        for engine, run in sorted(report.engines.items()):
            rows = []
            for t, pmap in sorted(run.probabilities.items()):
                for (n1, n2), p in sorted(pmap.items()):
                    rows.append((float(t), n1, n2, float(p)))
            name = f"probabilities_{engine}.csv"
            _write_csv(out_dir / name, ["t", "n1", "n2", "p"], rows)
            manifest.add_output(name)
            hrows = [(float(t), *map(float, h)) for t, h in sorted(run.histories.items())]
            name = f"histories_{engine}.csv"
            _write_csv(out_dir / name, ["t", "p_none", "p_right_only", "p_left_only", "p_both"],
                       hrows)
            manifest.add_output(name)
        _dump_fields(config, report, manifest)
        if config.channel_snapshot and report.oracle_states:
            state = report.oracle_states[max(report.spec.eval_times)]
            probs = ch.channel_probabilities(state)
            # channels that hold no norm are left out
            rows = ((xj, n1, n2, v.real, v.imag)
                    for (n1, n2), p in probs.items() if p != 0.0
                    for xj, v in zip(state.grid.points, state.amplitudes[n1, n2]))
            _write_csv(out_dir / "snapshot.csv", ["x", "n1", "n2", "re_f", "im_f"], rows)
            manifest.add_output("snapshot.csv")

    manifest.data["convergence"] = {
        name: dict(run.convergence) for name, run in sorted(report.engines.items())}
    manifest.finish("ok")
    print(f"run complete: {out_dir}")
    return EXIT_OK


def cmd_sweep(config: RunConfig, manifest: _Manifest) -> int:
    if config.sweep_values is None:
        raise ConfigError("config.sweep section is required for the sweep command")
    out_dir = manifest.out_dir
    fit = ex.sweep_lambda(config.spec, config.sweep_values, target=config.sweep_target)
    scale = config.spec.params.M * config.spec.params.v0 ** 2
    if "csv" in config.formats:
        rows = [(lam, lam / scale, p, fit.engine)
                for lam, p in zip(fit.values, fit.probabilities)]
        _write_csv(out_dir / "sweep.csv",
                   ["lambda", "lambda0", f"p_{fit.target[0]}_{fit.target[1]}", "engine"], rows)
        manifest.add_output("sweep.csv")
    if "json" in config.formats:
        _write_json(out_dir / "fit.json", fit.as_dict())
        manifest.add_output("fit.json")
    manifest.data["convergence"] = {"slope": fit.slope, "residual_max": fit.residual_max}
    manifest.finish("ok")
    print(f"sweep complete: {out_dir} (slope {fit.slope:.6f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mott1d",
        description="1D cloud-chamber model: joint-excitation probabilities, "
                    "scaling sweeps and regime checks.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    regime = sub.add_parser("regime", help="Grade the dimensionless assumptions.")
    regime.add_argument("--config", required=True, metavar="JSON")
    regime.add_argument("--out", default=None, metavar="DIR")

    run = sub.add_parser("run", help="Evaluate one scenario and persist results.")
    run.add_argument("--config", required=True, metavar="JSON")
    run.add_argument("--out", default="mott-run", metavar="DIR")

    sweep = sub.add_parser("sweep", help="Coupling sweep with a log-log fit.")
    sweep.add_argument("--config", required=True, metavar="JSON")
    sweep.add_argument("--out", default="mott-sweep", metavar="DIR")
    return parser


# GridError is a ValueError but signals a numeric failure (grid too narrow);
# any other ValueError is a bad config value.  Every typed engine failure is
# a RuntimeError.
_NUMERIC_ERRORS = (GridError, RuntimeError)


def _failed(manifest: _Manifest | None, err: Exception) -> int:
    """Report a failure, in the manifest of a run or sweep; the exit code is
    the same for every command."""
    message = " ".join([str(err), *getattr(err, "__notes__", ())])
    if manifest is not None:
        manifest.finish("failed", error=message)
    numeric = isinstance(err, _NUMERIC_ERRORS)
    print(f"{'numeric' if numeric else 'config'} error: {message}", file=sys.stderr)
    return EXIT_NUMERIC if numeric else EXIT_CONFIG


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:
        # argparse exits 2 on a usage error, the invalid-regime code; --help
        # and --version exit 0
        if exit_.code == 2:
            return EXIT_CONFIG
        raise
    manifest = None
    try:
        raw = read_config(args.config)
        # from here on a run or sweep records a bad value or a numeric
        # failure in its manifest
        if args.command != "regime":
            manifest = _Manifest(_prepare_out_dir(args.out), args.command, raw)
        config = RunConfig.from_dict(raw)
        if manifest is None:
            return cmd_regime(config, args.out)
        return (cmd_run if args.command == "run" else cmd_sweep)(config, manifest)
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (*_NUMERIC_ERRORS, ValueError) as err:
        return _failed(manifest, err)


if __name__ == "__main__":
    sys.exit(main())

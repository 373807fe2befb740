#!/usr/bin/env python3
"""mott1d benchmark: three solve workloads, timed from the outside.

Run from the root of a mott1d checkout:

    python3 perfbench/run.py --workload oracle_cases --seed 1 --seconds 20 --trace 0

Workloads (all at epsilon = 0.2, t = 1.5 tau2, 8192 grid points):

* ``oracle_cases``  -- ``experiments.run_scenario`` with the oracle engine on
  both geometries, snapshots at 1.5 tau1 and 1.5 tau2, then
  ``experiments.localization_from_state`` at 1.5 tau1.
* ``pt_collinear``  -- ``run_scenario`` with the PT (Dyson) engine, collinear
  geometry, dt_duhamel = 0.2 and pt_rtol = 1e-3: three step-halving passes.
* ``escalate_cli``  -- ``cli.main(["run", ...])`` in-process, oracle engine,
  lambda0 ~ 0.05 from n_max = 1, so n_max escalates 1 -> 3 -> 5; json and csv
  outputs with three density channels.

The seed varies lambda0 only inside a range that keeps every workload's step
counts and escalation path unchanged.  A run repeats the workload's solve
while the median solve so far still fits in ``--seconds`` (at least
``min_solves`` times), checks every solve's outputs, and prints one JSON
object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` records spans around the public functions of ``channels``,
``perturbation``, ``experiments`` and ``cli`` (by replacing the module
attributes for the length of the run; no package file is changed) and
reports the per-layer metrics.  The tracing overhead is the traced run's
``trace.solve_s`` against the untraced run's ``solve_s``;
``perfbench/report.py`` puts the two side by side.

Result records, span dumps and the escalate_cli run directories go to
``.perfbench_out/`` in the checkout.  ``perfbench/layer_map.json`` says which
end-to-end metric each per-layer metric should move, and on which workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

EPSILON = 0.2
# 4x the resolved minimum suggest_grid picks at epsilon = 0.2 (2048): the
# oversampling the acceptance grid has at epsilon = 0.1, so per-step array
# shapes scale like acceptance runs.  "tiny" is the smoke-check size.
GRID_POINTS = {"full": 8192, "tiny": 2048}
SETUP_SAMPLES = 11         # setup_s is the median of this many set-ups
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Output-check tolerances, as the acceptance suite asserts them.
NORM_TOL = 1e-8                 # criterion 6: oracle norm drift
CASE_RATIO_MAX = 1e-3           # criterion 1: P11 opposite / collinear
LOCALIZATION_MIN_MASS = 0.99    # criterion 5: channel (1,0) same-side mass


def history_tol(lambda0: float) -> float:
    """Criterion 4: the four histories sum to 1 within 10 lambda0^2."""
    return 10.0 * lambda0 ** 2


def pt_tol(lambda0: float) -> float:
    """Criterion 3: PT P11 within 5 lambda0 (relative) of the oracle."""
    return 5.0 * lambda0


def seeded_lambda0(workload: str, seed: int, base: float, rel_range: tuple[float, float]) -> float:
    lo, hi = rel_range
    return base * (lo + (hi - lo) * random.Random(f"{workload}:{seed}").random())


# ---------------------------------------------------------------------------
# workloads: __init__ is set-up, solve() is timed, check() is not


def _history_errors(histories: dict, lambda0: float) -> list[str]:
    errors = []
    for t, h in histories.items():
        dev = abs(sum(h) - 1.0)
        if dev > history_tol(lambda0):
            errors.append(f"histories at t={t} sum to 1 - {dev:.3e}")
    return errors


def _oracle_state_errors(states: dict, threshold: float, where: str) -> list[str]:
    errors = []
    for t, state in states.items():
        drift = abs(state.norm() - 1.0)
        if drift > NORM_TOL:
            errors.append(f"{where}: norm drift {drift:.3e} at t={t}")
        top = state.top_shell_norm()
        if top > threshold:
            errors.append(f"{where}: top-shell norm {top:.3e} at t={t}")
    return errors


class OracleCases:
    name = "oracle_cases"
    min_solves = 1
    expected_n_max = 4

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        import mott1d.experiments as ex
        self.ex = ex
        self.lambda0 = seeded_lambda0(self.name, seed, 1e-3, (1.0, 1.5))
        numerics = ex.NumericSettings(n_points=GRID_POINTS[size], n_max=self.expected_n_max)
        self.specs = {}
        for case in (ex.COLLINEAR, ex.OPPOSITE):
            p = ex.default_params(case, EPSILON, self.lambda0)
            self.specs[case] = ex.ScenarioSpec(
                case=case, params=p, epsilon=EPSILON, engine="oracle", targets=((1, 1),),
                times=(1.5 * p.tau1, 1.5 * p.tau2), numerics=numerics)

    def solve(self):
        out = {}
        for case, spec in self.specs.items():
            report = self.ex.run_scenario(spec, keep_oracle_states=True)
            state = report.oracle_states[min(spec.eval_times)]
            out[case] = (report, self.ex.localization_from_state(state, spec.params))
        return out

    def check(self, out) -> tuple[list[str], dict]:
        errors = []
        p11 = {}
        for case, (report, loc) in out.items():
            spec = self.specs[case]
            run = report.engines["oracle"]
            errors += _oracle_state_errors(report.oracle_states,
                                           spec.numerics.top_shell_threshold, case)
            errors += _history_errors(run.histories, self.lambda0)
            if run.convergence["n_max"] != self.expected_n_max:
                errors.append(f"{case}: escalated to n_max={run.convergence['n_max']}")
            entry = loc.entry((1, 0))
            if not (entry.defined and entry.mass_same_side >= LOCALIZATION_MIN_MASS):
                errors.append(f"{case}: channel (1,0) same-side mass {entry.mass_same_side}")
            p11[case] = run.probabilities[max(spec.eval_times)][(1, 1)]
        ratio = p11[self.ex.OPPOSITE] / p11[self.ex.COLLINEAR]
        if not ratio < CASE_RATIO_MAX:
            errors.append(f"P11 opposite/collinear = {ratio:.3e}")
        return errors, {}


class PtCollinear:
    name = "pt_collinear"
    min_solves = 1
    # three passes at dt = 0.2, 0.1, 0.05 (375, 750, 1500 steps); the step
    # count is lambda-independent because PT amplitudes are linear in lambda
    expected_final_dt = 0.05

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        import mott1d.experiments as ex
        self.ex = ex
        self.lambda0 = seeded_lambda0(self.name, seed, 1e-3, (1.0, 1.5))
        p = ex.default_params(ex.COLLINEAR, EPSILON, self.lambda0)
        self.spec = ex.ScenarioSpec(
            case=ex.COLLINEAR, params=p, epsilon=EPSILON, engine="pt", targets=((1, 1),),
            numerics=ex.NumericSettings(n_points=GRID_POINTS[size], n_max=4,
                                        dt_duhamel=0.2, pt_rtol=1e-3))
        ref = json.loads((HERE / "oracle_reference.json").read_text())
        self.p11_expected = ref["p11"] * (self.lambda0 / ref["lambda0"]) ** 4

    def solve(self):
        return self.ex.run_scenario(self.spec)

    def check(self, report) -> tuple[list[str], dict]:
        run = report.engines["pt"]
        errors = _history_errors(run.histories, self.lambda0)
        p11 = run.probabilities[max(self.spec.eval_times)][(1, 1)]
        rel = abs(p11 - self.p11_expected) / self.p11_expected
        if rel > pt_tol(self.lambda0):
            errors.append(f"P11 {p11:.6e} vs oracle reference {self.p11_expected:.6e} "
                          f"(relative {rel:.3e})")
        if not run.convergence["converged"]:
            errors.append("PT quadrature not converged")
        if abs(run.convergence["dt"] - self.expected_final_dt) > 1e-12:
            errors.append(f"final Duhamel step {run.convergence['dt']}")
        drift = abs(report.pt_fields[(0, 0)].norm() - 1.0)
        if drift > NORM_TOL:
            errors.append(f"free-packet norm drift {drift:.3e}")
        return errors, {}


class EscalateCli:
    name = "escalate_cli"
    # the output check compares result files across solves
    min_solves = 2
    expected_n_max = 5

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        from mott1d import cli, experiments
        self.cli = cli
        self.top_shell_threshold = experiments.NumericSettings().top_shell_threshold
        self.lambda0 = seeded_lambda0(self.name, seed, 0.05, (0.9, 1.1))
        self.work_dir = work_dir
        config = {
            "scenario": {"case": "collinear", "epsilon": EPSILON, "lambda0": self.lambda0,
                         "engine": "oracle"},
            "numerics": {"n_points": GRID_POINTS[size], "n_max": 1},
            "output": {"formats": ["json", "csv"],
                       "density_channels": [[0, 0], [1, 0], [1, 1]]},
        }
        self.config_path = work_dir / "escalate_cli.json"
        self.config_path.write_text(json.dumps(config))
        self.solves = 0
        self.first_digests: dict[str, str] | None = None

    def solve(self):
        out_dir = self.work_dir / f"run-{self.solves}"
        self.solves += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["run", "--config", str(self.config_path),
                                  "--out", str(out_dir)])
        return code, out_dir

    def check(self, result) -> tuple[list[str], dict]:
        code, out_dir = result
        try:
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        counts = {"cli.bytes_written": sum(map(len, files.values())),
                  "cli.files_written": len(files)}
        if code != 0:
            return [f"exit code {code}"], counts
        errors = []
        report = json.loads(files["report.json"])["engines"]["oracle"]
        conv = report["convergence"]
        if conv["n_max"] != self.expected_n_max:
            errors.append(f"escalated to n_max={conv['n_max']}")
        if conv["norm_drift"] > NORM_TOL:
            errors.append(f"norm drift {conv['norm_drift']:.3e}")
        if conv["top_shell_norm"] > self.top_shell_threshold:
            errors.append(f"top-shell norm {conv['top_shell_norm']:.3e}")
        errors += _history_errors({t: tuple(h.values()) for t, h in report["histories"].items()},
                                  self.lambda0)
        # the manifest holds wall-clock data; every other file is deterministic
        digests = {name: hashlib.sha256(data).hexdigest()
                   for name, data in files.items() if name != "manifest.json"}
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            errors.append("result files differ from the first solve's")
        return errors, counts


WORKLOADS = {w.name: w for w in (OracleCases, PtCollinear, EscalateCli)}


# ---------------------------------------------------------------------------
# tracing


def _evolve_counts(args: dict) -> dict:
    state, config = args["state"], args["config"]
    steps = max(1, int(math.ceil((args["t_final"] - state.t) / config.dt - 1e-12)))
    return {"steps": steps, "rows": (config.n_max + 1) ** 2, "n_points": state.grid.n_points}


def _dyson_counts(args: dict) -> dict:
    # converged_dyson_run always passes the grid and the step explicitly
    steps = max(1, int(math.ceil(args["t_final"] / args["dt"] - 1e-12)))
    n_max = args["n_max"]
    return {"steps": steps, "rows": 1 + 2 * n_max + 2 * n_max ** 2,
            "n_points": args["grid"].n_points, "dt": args["t_final"] / steps}


class Tracer:
    """Spans around the packages' public functions, kept in memory.

    A span records name, start, end, parent, success and the counts computed
    from the call's arguments; ``solve`` tags which solve of the run it belongs to.
    """

    def __init__(self) -> None:
        import mott1d.channels as ch
        import mott1d.cli as cli
        import mott1d.experiments as ex
        import mott1d.perturbation as pt
        self.targets = [
            (ch, "build_form_factors", None),
            (ch, "evolve", _evolve_counts),
            (pt, "dyson_run", _dyson_counts),
            (ex, "run_scenario", None),
            (ex, "localization_from_state", None),
            (cli, "main", None),
        ]
        self.spans: list[dict] = []
        self.solve = -1
        self._stack: list[int] = []

    def _wrap(self, module, attr: str, counts):
        original = getattr(module, attr)
        signature = inspect.signature(original)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            span = {"name": name, "solve": self.solve,
                    "parent": self._stack[-1] if self._stack else None, "ok": False}
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(counts(bound.arguments))
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                span["ok"] = True
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                # the tracer's own time inside this call, outside the callee
                span["bookkeeping"] = (time.perf_counter() - enter) - (span["end"] - span["start"])

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = [(m, a, getattr(m, a)) for m, a, _ in self.targets]
        try:
            for module, attr, counts in self.targets:
                setattr(module, attr, self._wrap(module, attr, counts))
            yield
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def layer_metrics(self, solve: int) -> dict[str, float]:
        """Per-layer metrics of one solve; self times in seconds."""
        self_s = self.self_times()
        spans = [(s, t) for s, t in zip(self.spans, self_s) if s["solve"] == solve]

        def of(name):
            return [(s, t) for s, t in spans if s["name"] == name]

        evolve, dyson = of("channels.evolve"), of("perturbation.dyson_run")
        ff = of("channels.build_form_factors")
        evolve_total = sum(s["end"] - s["start"] for s, _ in evolve)
        evolve_failed = sum(s["end"] - s["start"] for s, _ in evolve if not s["ok"])
        done = [(s, t) for s, t in evolve if s["ok"]]
        done_steps = sum(s["steps"] for s, _ in done)
        pt_steps = sum(s["steps"] for s, _ in dyson)

        def fft_mb(calls):
            # forward + inverse transform of the whole complex128 stack
            moved = sum(2 * s["rows"] * s["n_points"] * 16 * s["steps"] for s, _ in calls)
            return moved / max(1, sum(s["steps"] for s, _ in calls)) / 1e6

        return {
            "channels.evolve_s": sum(t for _, t in evolve),
            "channels.evolve_calls": len(evolve),
            "channels.steps": sum(s["steps"] for s, _ in evolve),
            "channels.rows": max((s["rows"] for s, _ in evolve), default=0),
            "channels.step_ms": 1e3 * sum(t for _, t in done) / done_steps if done_steps else 0.0,
            "channels.fft_mb_per_step": fft_mb(evolve),
            "channels.failed_calls": sum(1 for s, _ in evolve if not s["ok"]),
            "channels.wasted_frac": evolve_failed / evolve_total if evolve_total else 0.0,
            "channels.form_factors_s": sum(t for _, t in ff),
            "channels.form_factor_calls": len(ff),
            "perturbation.dyson_run_s": sum(t for _, t in dyson),
            "perturbation.passes": len(dyson),
            "perturbation.steps": pt_steps,
            "perturbation.rows": max((s["rows"] for s, _ in dyson), default=0),
            "perturbation.step_ms": 1e3 * sum(t for _, t in dyson) / pt_steps if pt_steps else 0.0,
            "perturbation.fft_mb_per_step": fft_mb(dyson),
            "perturbation.final_dt": dyson[-1][0]["dt"] if dyson else 0.0,
            "perturbation.halving_waste_frac":
                (pt_steps - dyson[-1][0]["steps"]) / pt_steps if pt_steps else 0.0,
            "experiments.self_s": sum(t for _, t in of("experiments.run_scenario")),
            "experiments.localization_s": sum(t for _, t in of("experiments.localization_from_state")),
            "cli.self_s": sum(t for _, t in of("cli.main")),
            "trace.bookkeeping_s": sum(s["bookkeeping"] for s, _ in spans),
        }


# ---------------------------------------------------------------------------
# environment


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    uname = os.uname()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": uname.machine,
        "kernel": f"{uname.sysname} {uname.release}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "fft": "numpy.fft (pocketfft)",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# run loop


def child_setups(args, count: int) -> list[float]:
    """Set-up times of fresh interpreters, each measured from before
    ``import mott1d`` to the inputs being ready."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(GRID_POINTS), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mott1d" / "__init__.py").is_file():
        print(f"error: no mott1d sources under {SRC}; run from a mott1d checkout",
              file=sys.stderr)
        return 2
    cap_threads()
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir: Path) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    tracer = Tracer() if args.trace else None
    setup_main = time.perf_counter() - t0
    if args.setup_only:
        print(repr(setup_main))
        return 0

    solve_s: list[float] = []
    layers: list[dict] = []
    iteration_s: list[float] = []
    failures: list[str] = []
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        while True:
            i = len(iteration_s)
            if tracer:
                tracer.solve = i
            out = None  # drop the last solve's outputs before this solve's peak memory
            it0 = time.perf_counter()
            c0 = time.process_time()
            try:
                out = workload.solve()
                elapsed = time.perf_counter() - it0
                cpu = time.process_time() - c0
                errors, counts = workload.check(out)
            except Exception as exc:  # a failed solve is counted, not fatal
                errors, counts = [f"{type(exc).__name__}: {exc}"], {}
            if errors:
                failures.append(f"solve {i}: " + "; ".join(errors))
            else:
                solve_s.append(elapsed)
                if tracer:
                    layers.append({"cli.bytes_written": 0, "cli.files_written": 0,
                                   **tracer.layer_metrics(i), **counts,
                                   "process.cpu_s": cpu, "trace.solve_s": elapsed})
            iteration_s.append(time.perf_counter() - it0)
            run_s = time.perf_counter() - start
            if (len(iteration_s) >= workload.min_solves
                    and run_s + statistics.median(iteration_s) > args.seconds):
                break
    rss = peak_rss_mb()
    setups = [setup_main] + child_setups(args, SETUP_SAMPLES - 1)

    attempted = len(iteration_s)
    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "lambda0": workload.lambda0, "trace": args.trace,
        "grid_points": GRID_POINTS[args.size],
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "solve_s_samples": solve_s, "setup_s_samples": setups,
        "run_s": time.perf_counter() - start,
        "environment": environment(),
    }
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        if solve_s:
            metrics["solve_s"] = (statistics.median(solve_s), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (rss, "MB")
    elif layers:
        for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            # counts stay whole numbers: take a sample, not the mean of the middle two
            median = statistics.median_low if unit in ("count", "B") else statistics.median
            metrics[name] = (median(layer[name] for layer in layers), unit)
        result["layers_per_solve"] = layers
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if tracer:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.spans) + "\n")
    print_summary(result, metrics)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result["metrics"]}))
    return 0


def print_summary(result: dict, metrics: dict) -> None:
    env = result["environment"]
    print(f"{result['workload']} seed={result['seed']} lambda0={result['lambda0']:.6g} "
          f"grid={result['grid_points']} trace={result['trace']} solves={result['attempted']} "
          f"failed={result['failed']} (failed_frac {result['failed_frac']:.3g})")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} threads={env['threads']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())

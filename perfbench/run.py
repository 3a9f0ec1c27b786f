"""maxdecouple benchmark: drive the real CLI on seeded inputs and report
end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/maxdecouple`).  The
steps of one run:

1. Set-up, untimed: write the workload's input files, made from the seed,
   under `.perfbench_work/`.
2. `setup_s`: import `maxdecouple.cli` in fresh interpreters and take the
   median of the import times at reference speed.
3. Start `worker.py` in a fresh interpreter.  It runs passes of the
   workload's CLI calls for S seconds in a closed loop and checks every
   output.  With --trace 1 half the passes run traced.
4. Print one JSON line: correct, attempted, failed and the metrics.  A
   timing is in seconds at reference speed (see `speed`): the sum over a
   pass's calls of each call's median over the run's passes (see
   `settled`); per-layer self times and counts are medians over the traced
   passes.  The raw per-pass data, with the pass count, and the run's
   context (machine, library versions, input sizes) go to
   `.perfbench_work/runs/`.

A call fails when it raises, exits nonzero or prints a wrong output.  The
one exception is the known layer-cake slack defect on the small
continuous joints (see `workloads.is_slack_defect`); it is counted apart,
as `continuous.slack_defects`, so that it stays visible until it is fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))  # `workloads` builds inputs with the package

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

VERBS = ("report", "sample", "search_exact", "search_full")

SELF_TIMES = (
    "dist.JointBernoulli",
    "dist.JointBernoulli.from_json_dict",
    "dist.marginals",
    "dist.second_moments",
    "dist.eta_matrix",
    "dist.moments_of_z",
    "dist.prob_hit",
    "dist.sample",
    "bounds.full_report",
    "bounds.main_lower_check",
    "bounds.eta_lower_check",
    "bounds.pinelis_upper_check",
    "cli.main",
    "continuous.NonnegJoint",
    "continuous.expected_max",
    "continuous.expected_max_independent",
    "continuous.pairwise_orthant_ok",
    "optimize.conjecture_sweep",
    "optimize.min_ratio",
    "optimize.build_exchangeable_lp",
    "optimize.build_full_lp",
    "simplex.solve_exact",
    "highs.linprog",
)

CALL_COUNTS = (
    "dist.marginals",
    "dist.second_moments",
    "dist.eta_matrix",
    "continuous.pairwise_orthant_ok",
    "simplex.solve_exact",
    "highs.linprog",
)

COUNTERS = (
    "dist.atoms_scanned",
    "continuous.orthant_cells",
    "continuous.grid_points",
    "highs.nit",
    "optimize.full_lp.nnz",
)


def per_layer_units() -> dict:
    """Name and unit of every per-layer metric, in a fixed order."""
    units = {f"{verb}_s": "s" for verb in VERBS}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMES})
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update({name: "count" for name in COUNTERS})
    units["bounds.scans_per_report"] = "count"
    units["cli.stdout_bytes"] = "bytes"
    units["continuous.slack_defects"] = "count"
    units["bench.trace_overhead"] = "ratio"
    units["bench.speed_factor"] = "ratio"
    units["bench.wall_pass_s"] = "s"
    return units


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(samples: int = SETUP_SAMPLES) -> float:
    """Median time of `import maxdecouple.cli` in a fresh interpreter, at
    reference speed: each import is scaled by the mean of three runs of the
    calibration kernel in the same interpreter, right after the import."""
    probe = ("import time; t = time.perf_counter(); import maxdecouple.cli; "
             "wall = time.perf_counter() - t; import speed; "
             "print(wall, *(speed.measure() for _ in range(3)))")
    env = _child_env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        wall, *kernel = map(float, done.stdout.split())
        times.append(wall * speed.REFERENCE_S / statistics.mean(kernel))
    return statistics.median(times)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def at_reference(call: dict, key: str = "wall_s") -> float:
    """A call's time (`wall_s` or `cpu_s`) at reference speed."""
    return call[key] * speed.REFERENCE_S / call["speed_s"]


def settled(passes: list[dict], key: str = "wall_s", verb: str | None = None) -> float:
    """Each call's median time at reference speed over the passes, summed
    over the calls of a pass (of one verb, if given)."""
    if not passes:
        return 0.0
    calls = zip(*(p["calls"] for p in passes))
    return sum(statistics.median(at_reference(c, key) for c in samples) for samples in calls
               if verb is None or samples[0]["verb"] == verb)


def _speed_factor(calls: list[dict]) -> float:
    """How much slower than reference speed the machine ran for `calls`."""
    return _median(c["speed_s"] for c in calls) / speed.REFERENCE_S


def _layer_value(traced: list[dict], pick) -> float:
    return _median(pick(p["layers"]) for p in traced)


def _layer_time(traced: list[dict], pick) -> float:
    return _median(pick(p["layers"]) / _speed_factor(p["calls"]) for p in traced)


def summarize(raw: dict, setup_s: float | None, trace: bool) -> dict:
    """The result line from the worker's raw passes."""
    untraced, traced = raw["untraced"], raw["traced"]
    calls = [c for p in untraced + traced for c in p["calls"]]
    failed = sum(c["outcome"] == "failed" for c in calls)
    mismatch = max((p["layers"]["self_sum_mismatch_s"] for p in traced), default=0.0)
    if trace:
        overhead = settled(traced) / settled(untraced)
        defects = [sum(c["outcome"] == "slack_defect" for c in p["calls"]) for p in traced]
        metrics = {f"{verb}_s": settled(untraced, verb=verb) for verb in VERBS}
        for name in SELF_TIMES:
            metrics[f"{name}.self_s"] = _layer_time(traced, lambda l: l["self_s"].get(name, 0.0))
        for name in CALL_COUNTS:
            metrics[f"{name}.calls"] = _layer_value(traced, lambda l: l["calls"].get(name, 0))
        for name in COUNTERS:
            metrics[name] = _layer_value(traced, lambda l: l["counters"].get(name, 0))
        metrics["bounds.scans_per_report"] = _layer_value(
            traced,
            lambda l: l["counters"].get("bounds.report_scans", 0)
            / max(l["calls"].get("bounds.full_report", 0), 1),
        )
        metrics["cli.stdout_bytes"] = _median(
            sum(c["stdout_bytes"] for c in p["calls"]) for p in traced)
        metrics["continuous.slack_defects"] = _median(defects)
        metrics["bench.trace_overhead"] = overhead
        metrics["bench.speed_factor"] = _speed_factor(calls)
        metrics["bench.wall_pass_s"] = _median(p["wall_s"] for p in untraced)
        units = per_layer_units()
    else:
        metrics = {
            "pass_s": settled(untraced),
            "cpu_s": settled(untraced, "cpu_s"),
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": setup_s,
        }
        units = END_TO_END
    return {
        "correct": failed == 0 and mismatch < 1e-6,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the result line as a dict."""
    run_dir = WORK / f"run-{os.getpid()}"
    record_dir = WORK / "runs"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    try:
        plan = workloads.make_plan(workload, seed, run_dir, scale)
        plan_path, raw_path = run_dir / "plan.json", run_dir / "raw.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        setup_s = None if trace else measure_setup()
        argv = [sys.executable, str(HERE / "worker.py"), str(plan_path), str(raw_path),
                str(seconds), "1" if trace else "0"]
        if trace:
            argv.append(str(WORK / "runs" / f"{tag}.spans.jsonl"))
        subprocess.run(argv, env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
        raw = json.loads(raw_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = summarize(raw, setup_s, trace)
    context = {"workload": workload, "seed": seed, "scale": scale, "seconds": seconds,
               "trace": int(trace), "sizes": plan["sizes"], **raw.pop("environment"),
               "trace_targets_missing": raw.pop("trace_targets_missing")}
    (record_dir / f"{tag}.json").write_text(
        json.dumps({"context": context, "result": result, "raw": raw}, indent=1), encoding="utf-8")
    errors = [c["error"] for p in raw["untraced"] + raw["traced"] for c in p["calls"] if c["error"]]
    for error in errors[:5]:
        print(f"perfbench: failed call: {error}", file=sys.stderr)
    print("context " + json.dumps(context))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maxdecouple" / "cli.py").is_file():
        print(f"perfbench: no maxdecouple sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

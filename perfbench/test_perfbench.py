"""Tests of the benchmark itself: its output checks are live, every declared
metric is emitted, and it refuses to run without the package sources.

    python3 -m pytest perfbench/test_perfbench.py -q

These run the workloads at the "tiny" scale, in a few seconds each.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from maxdecouple import cli  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny_plan(workload: str, tmp_path: Path) -> dict:
    return workloads.make_plan(workload, 7, tmp_path, "tiny")


def _outputs(plan: dict) -> list[tuple[dict, int, str]]:
    """(call, exit code, stdout) for each call of one pass."""
    results = []
    for call in plan["calls"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(call["argv"]))
            except RuntimeError as exc:
                assert workloads.is_slack_defect(call, exc)
                continue
        results.append((call, rc, out.getvalue()))
    return results


def _corrupt(call: dict, text: str) -> str:
    """Make one output wrong in the way its check should catch."""
    kind = call["check"]["kind"]
    if kind == "bernoulli_report":
        doc = json.loads(text)
        doc["M"] *= 1 + 1e-9
        return json.dumps(doc)
    if kind == "continuous_report":
        doc = json.loads(text)
        doc["emax"] *= 1 + 1e-9
        return json.dumps(doc)
    if kind == "sample":
        lines = text.split("\n")
        lines[0] = str(2 ** 4000)
        return "\n".join(lines)
    header, first, *rest = text.split("\n")
    cells = first.split(",")
    column = header.split(",").index("lp_objective")
    cells[column] = repr(float(cells[column]) + 1e-6)
    return "\n".join([header, ",".join(cells), *rest])


def _check_pass(outputs, replace=None):
    state = workloads.new_pass_state({})
    errors = []
    for k, (call, rc, text) in enumerate(outputs):
        if replace is not None and replace[0] == k:
            text = replace[1]
        errors.append(workloads.check_output(call, rc, text, state))
    return errors


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_check_catches_a_corrupted_output(workload, tmp_path):
    outputs = _outputs(_tiny_plan(workload, tmp_path))
    assert _check_pass(outputs) == [None] * len(outputs)
    for k, (call, rc, text) in enumerate(outputs):
        errors = _check_pass(outputs, (k, _corrupt(call, text)))
        assert errors[k] is not None, call["argv"]
        nonzero = _check_pass([(call, 1, text)])
        assert nonzero[0] is not None


def test_a_wrong_m_counts_in_failed(tmp_path):
    plan = _tiny_plan("report-mix", tmp_path)
    first = plan["calls"][0]
    assert first["check"]["kind"] == "bernoulli_report"

    def wrong_m(argv):
        if argv != first["argv"]:
            return cli.main(argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        print(_corrupt(first, out.getvalue()))
        return rc

    state = workloads.new_pass_state({})
    passes = [worker.run_pass(plan["calls"], main, state, {}) for main in (cli.main, wrong_m)]
    raw = {"untraced": passes, "traced": [], "peak_rss_mb": 1.0}
    result = run.summarize(raw, 0.5, False)
    attempted = 2 * len(plan["calls"])
    assert (result["attempted"], result["failed"], result["correct"]) == (attempted, 1, False)
    assert "M =" in passes[1]["calls"][0]["error"]


def test_times_are_scaled_to_reference_speed():
    def one_call(wall, slowdown):
        return {"calls": [{"verb": "report", "wall_s": wall, "cpu_s": 2 * wall,
                           "speed_s": slowdown * speed.REFERENCE_S}]}

    # The same call timed while the machine ran 1x, 1.5x and 3x slower.
    passes = [one_call(1.0, 1.0), one_call(1.5, 1.5), one_call(3.0, 3.0)]
    assert run.settled(passes) == pytest.approx(1.0)
    assert run.settled(passes, "cpu_s") == pytest.approx(2.0)
    assert run.settled(passes, verb="sample") == 0


def test_slack_defect_is_recognised_only_when_the_sums_agree():
    call = {"check": {"kind": "continuous_report"}}
    close = RuntimeError(
        "tail-integral cross-check failed: direct=1234567890.1234567 layered=1234567890.1234565")
    far = RuntimeError("tail-integral cross-check failed: direct=1.0 layered=2.0")
    assert workloads.is_slack_defect(call, close)
    assert not workloads.is_slack_defect(call, far)
    assert not workloads.is_slack_defect(call, ValueError(str(close)))
    assert not workloads.is_slack_defect({"check": {"kind": "bernoulli_report"}}, close)


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        first, second = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        first.mkdir()
        second.mkdir()
        workloads.make_plan(workload, 3, first, "tiny")
        workloads.make_plan(workload, 3, second, "tiny")
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    result = run.run(workload, 5, 1, trace, "tiny")
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared
    }
    if trace:
        assert result["metrics"]["bench.trace_overhead"]["value"] > 0
        spans = run.WORK / "runs" / f"{workload}-seed5-trace1.spans.jsonl"
        _assert_self_times_add_up(spans)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _assert_self_times_add_up(path: Path) -> None:
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["end"] - span["start"]
    own: dict[int, float] = {}
    roots = {}
    for k, span in enumerate(spans):
        own[span["call"]] = own.get(span["call"], 0.0) + span["end"] - span["start"] - child[k]
        if span["parent"] == -1:
            assert span["name"] == "cli.main"
            roots[span["call"]] = span["end"] - span["start"]
    assert roots and set(roots) == set(own)
    for call, duration in roots.items():
        assert own[call] == pytest.approx(duration, abs=1e-9)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

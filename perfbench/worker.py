"""Run one workload's passes in this interpreter and write the raw results.

    python3 perfbench/worker.py PLAN RESULT SECONDS TRACE [SPANS]

Started by `run.py` in a fresh interpreter with `src` on PYTHONPATH, so the
peak RSS it reports belongs to this workload alone.  Each CLI call goes
through `maxdecouple.cli.main(argv)` in-process with stdout captured; the
output is checked after the call, outside the timed region.  With TRACE 1
the first half of the time runs untraced passes and the second half traced
ones, whose spans are written to SPANS.  The calibration kernel of `speed`
runs between the blocks of calls of a pass, outside the timed region, so
that every call has the machine's speed of the moment next to its time.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class _Capture(io.TextIOBase):
    """Text sink that keeps references to what is written, without copying,
    so that capturing stdout costs the timed call almost nothing."""

    def __init__(self):
        self.chunks: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def getvalue(self) -> str:
        return "".join(self.chunks)


def run_pass(calls: list[dict], main, state: dict, digests: dict | None) -> dict:
    """Run `calls` one after another through `main` and check each output.

    `digests` maps call index to the SHA-256 of its first output; a later
    pass must print the same bytes.  None skips that comparison.  Each
    record's `speed_s` is the mean of the calibration kernel's times just
    before and just after the call's block (see `workloads.same_block`).
    """
    records = []
    gc.collect()
    before = speed.measure()
    block_start = 0
    for index, call in enumerate(calls):
        sink, errors = _Capture(), io.StringIO()
        rc, exc = None, None
        start_cpu, start = process_time(), perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
            try:
                rc = main(list(call["argv"]))
            except SystemExit as stop:
                rc = stop.code
            except Exception as caught:  # the benchmark must keep running and count it
                exc = caught
        wall, cpu = perf_counter() - start, process_time() - start_cpu
        text = sink.getvalue()
        del sink
        record = {"verb": call["verb"], "wall_s": wall, "cpu_s": cpu,
                  "stdout_bytes": len(text.encode("utf-8")), "outcome": "ok", "error": None}
        if exc is not None:
            if workloads.is_slack_defect(call, exc):
                record["outcome"] = "slack_defect"
            else:
                record["outcome"] = "failed"
                record["error"] = "".join(traceback.format_exception(exc))[-2000:]
        else:
            error = workloads.check_output(call, rc, text, state)
            if error is None and digests is not None:
                digest = workloads.digest(text)
                if digests.setdefault(index, digest) != digest:
                    error = "stdout differs from the first pass"
            if error is not None:
                record["outcome"] = "failed"
                record["error"] = f"{' '.join(call['argv'])}: {error}"
        del text
        records.append(record)
        if index + 1 == len(calls) or not workloads.same_block(call, calls[index + 1]):
            after = speed.measure()
            for done in records[block_start:]:
                done["speed_s"] = (before + after) / 2
            before, block_start = after, len(records)
    return {"wall_s": sum(r["wall_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records), "calls": records}


def blas_threads() -> dict:
    """The BLAS thread count as found, without setting it."""
    found = {var: os.environ.get(var) for var in
             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found["openblas"] = fn()
                return found
    return found


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


def run_worker(plan: dict, seconds: float, trace: bool, spans_path: str | None) -> dict:
    from maxdecouple import cli

    atom_masks: dict = {}
    run_pass(plan["warmup"], cli.main, workloads.new_pass_state(atom_masks), None)
    atom_masks.clear()
    digests: dict = {}
    begin = perf_counter()

    def more(passes: list, deadline: float) -> bool:
        # Start another pass only if one as long as the last still fits.
        if not passes:
            return True
        last = passes[-1]["elapsed_s"]
        return perf_counter() - begin + last <= deadline

    def timed_pass() -> dict:
        start = perf_counter()
        result = run_pass(plan["calls"], cli.main, workloads.new_pass_state(atom_masks), digests)
        result["elapsed_s"] = perf_counter() - start
        return result

    untraced = []
    while more(untraced, seconds / 2 if trace else seconds):
        untraced.append(timed_pass())
    traced = []
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            while more(traced, seconds):
                tracer.begin_pass()
                result = timed_pass()
                result["layers"] = tracer.end_pass()
                traced.append(result)
        finally:
            tracer.uninstall()
        if spans_path:
            tracer.write_spans(spans_path)
        missing = tracer.missing
    else:
        missing = []
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"untraced": untraced, "traced": traced, "peak_rss_mb": usage.ru_maxrss / 1024,
            "trace_targets_missing": missing, "environment": environment()}


def main(argv: list[str]) -> int:
    plan_path, result_path, seconds, trace = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    result = run_worker(plan, float(seconds), trace == "1", spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

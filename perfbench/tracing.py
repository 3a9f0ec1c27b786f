"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of `maxdecouple` (and scipy's
`linprog`) with wrappers that record a span per call: name, start, end,
parent span and the id of the CLI call the span belongs to.  Modules bind
many of these functions with `from .dist import ...`, so a wrapper is
installed under every name that refers to the original object in every
loaded `maxdecouple` module, not only in the module that defines it.

Spans stay in memory until `write_spans`.  A layer's self time is its span
duration minus the durations of its direct child spans, so the self times
of all spans under one `cli.main` span add up to that span's duration.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from math import comb
from time import perf_counter

# (module, attribute, span name).  "Class.method" patches the class itself,
# which every namespace shares.
SPAN_TARGETS = (
    ("maxdecouple.cli", "main", "cli.main"),
    ("maxdecouple.dist", "JointBernoulli.__init__", "dist.JointBernoulli"),
    ("maxdecouple.dist", "JointBernoulli.from_json_dict", "dist.JointBernoulli.from_json_dict"),
    ("maxdecouple.dist", "marginals", "dist.marginals"),
    ("maxdecouple.dist", "second_moments", "dist.second_moments"),
    ("maxdecouple.dist", "eta_matrix", "dist.eta_matrix"),
    ("maxdecouple.dist", "moments_of_z", "dist.moments_of_z"),
    ("maxdecouple.dist", "prob_hit", "dist.prob_hit"),
    ("maxdecouple.dist", "sample", "dist.sample"),
    ("maxdecouple.bounds", "full_report", "bounds.full_report"),
    ("maxdecouple.bounds", "main_lower_check", "bounds.main_lower_check"),
    ("maxdecouple.bounds", "eta_lower_check", "bounds.eta_lower_check"),
    ("maxdecouple.bounds", "pinelis_upper_check", "bounds.pinelis_upper_check"),
    ("maxdecouple.continuous", "NonnegJoint.__init__", "continuous.NonnegJoint"),
    ("maxdecouple.continuous", "expected_max", "continuous.expected_max"),
    ("maxdecouple.continuous", "expected_max_independent", "continuous.expected_max_independent"),
    ("maxdecouple.continuous", "pairwise_orthant_ok", "continuous.pairwise_orthant_ok"),
    ("maxdecouple.optimize", "conjecture_sweep", "optimize.conjecture_sweep"),
    ("maxdecouple.optimize", "min_ratio", "optimize.min_ratio"),
    ("maxdecouple.optimize", "build_exchangeable_lp", "optimize.build_exchangeable_lp"),
    ("maxdecouple.optimize", "build_full_lp", "optimize.build_full_lp"),
    ("maxdecouple.simplex", "solve_exact", "simplex.solve_exact"),
    ("scipy.optimize", "linprog", "highs.linprog"),
)

# Functions that walk the whole atom table once.  `_bit_matrix` is counted
# but gets no span, so its time stays in `second_moments`, its only caller.
SCAN_TARGETS = (
    ("maxdecouple.dist", "marginals"),
    ("maxdecouple.dist", "_bit_matrix"),
    ("maxdecouple.dist", "prob_hit"),
    ("maxdecouple.dist", "moments_of_z"),
)

REPORT_SPAN = "bounds.full_report"


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "maxdecouple" or name.startswith("maxdecouple."))
    ]


class Tracer:
    """Installs the wrappers, keeps spans and counters, removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, call id]
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._call_id = -1
        self._report_depth = 0
        self._pass_start = 0
        self._orthant_joints: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        scans = set(SCAN_TARGETS)
        for module_name, attr, span_name in SPAN_TARGETS:
            scan = (module_name, attr) in scans
            scans.discard((module_name, attr))
            self._patch(module_name, attr, lambda fn, s=span_name, c=scan: self._span(s, fn, c))
        for module_name, attr in scans:
            self._patch(module_name, attr, self._scan_only)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{attr}")
            return
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(method) if cls is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._restore.append((cls, method, raw))
            setattr(cls, method, wrapped)
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = make(original)
        for namespace in [module, *_package_modules()]:
            for name, value in list(vars(namespace).items()):
                if value is original:
                    self._restore.append((namespace, name, original))
                    setattr(namespace, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _count_scan(self, joint) -> None:
        self.counters["dist.atoms_scanned"] += len(getattr(joint, "atoms", ()))
        if self._report_depth:
            self.counters["bounds.report_scans"] += 1

    def _scan_only(self, fn):
        def wrapper(joint, *args, **kwargs):
            self._count_scan(joint)
            return fn(joint, *args, **kwargs)

        return wrapper

    def _span(self, name: str, fn, scan: bool):
        is_root = name == "cli.main"
        is_report = name == REPORT_SPAN
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            if is_root and not stack:
                self._call_id += 1
            if scan and args:
                self._count_scan(args[0])
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._call_id]
            spans.append(record)
            stack.append(index)
            if is_report:
                self._report_depth += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                if is_report:
                    self._report_depth -= 1
            self._on_return(name, args, result)
            return result

        return wrapper

    def _on_return(self, name: str, args: tuple, result) -> None:
        # Work-size counters.  Anything costlier than O(1) is deferred to
        # `end_pass`, so that it is not charged to the enclosing span.
        if name == "highs.linprog":
            self.counters["highs.nit"] += int(getattr(result, "nit", 0) or 0)
        elif name == "optimize.build_full_lp":
            problem = getattr(result, "problem", None)
            for matrix in (getattr(problem, "a_eq", None), getattr(problem, "a_ub", None)):
                if matrix is not None:
                    self.counters["optimize.full_lp.nnz"] += int(matrix.nnz)
        elif name == "continuous.pairwise_orthant_ok" and args:
            self._orthant_joints.append(args[0])

    # -- per-pass aggregation -----------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counters.clear()
        self._orthant_joints.clear()

    def end_pass(self) -> dict:
        """Self time and call count per span name for the spans of this pass,
        plus the counters; also checks that self times add up per call."""
        start = self._pass_start
        spans = self.spans[start:]
        child_time = [0.0] * len(spans)
        for record in spans:
            parent = record[3]
            if parent >= start:
                child_time[parent - start] += record[2] - record[1]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        root_self: Counter = Counter()
        root_duration: dict[int, float] = {}
        for k, record in enumerate(spans):
            own = (record[2] - record[1]) - child_time[k]
            self_s[record[0]] += own
            calls[record[0]] += 1
            root_self[record[4]] += own
            if record[3] == -1:
                root_duration[record[4]] = record[2] - record[1]
        mismatch = max(
            (abs(root_self[c] - d) for c, d in root_duration.items()), default=0.0
        )
        counters = Counter(self.counters)
        for joint in self._orthant_joints:
            n = int(getattr(joint, "n", 0))
            atoms = getattr(joint, "atoms", ())
            grid = {0.0}
            for values, _ in atoms:
                grid.update(values)
            counters["continuous.grid_points"] += len(grid)
            counters["continuous.orthant_cells"] += comb(n, 2) * len(grid) * len(atoms)
        self._orthant_joints.clear()
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": dict(counters),
            "self_sum_mismatch_s": mismatch,
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, call_id in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "call": call_id}
                    )
                    + "\n"
                )

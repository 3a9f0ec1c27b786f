"""Workload inputs, call plans and output checks.

Every workload is one closed loop: a single process runs its CLI calls one
after another, and one round of those calls is a pass.  Inputs are made
from the workload seed alone.  `constructions` (and `affine_hash_values`)
build them during untimed set-up; the timed calls see only the files.

Two workloads, one per group of layers, so that an optimisation of one
group has a workload that runs it and one that does not (sizes are for the
"full" scale):

report-mix       `report` on three Bernoulli joints and on nonneg joints,
                 and `sample` on two; `cli`, `dist`, `bounds` and
                 `continuous` work, and `optimize` is idle.  Its parts:
  dense          `report` and `sample` on a product law with n = 15
                 (32,768 atoms, 1.5 MB of JSON): `dist`'s per-atom Python
                 loops and JSON validation dominate.
  wide           `report` and `sample` on `conjectured_extremal(100)` with
                 the variables permuted by the seed (4,951 atoms; n > 64,
                 so no uint64 mask holds an atom), and `report` on a
                 two-atom joint with n = 2000: the atoms x n bit matrix and
                 the n x n pair matrices dominate, and the n = 2000 joint
                 sets the peak RSS.
  continuous     `report` on a `nonneg-joint` from `affine_hash_values`
                 (n = 14, q = 29) with distinct seeded values, a grid of
                 407 thresholds, so `pairwise_orthant_ok` dominates; plus
                 36 small 3-variable joints with values near 1e9, which
                 meet the absolute layer-cake slack of `expected_max`.
search-sweep     `search` over n = 3..120 in both modes (exact simplex), and
                 `search --reduction full` over n = 3..12 in both modes
                 (HiGHS): only `optimize`, `simplex` and `highs` work, and
                 `dist` is idle.  The sweeps take no random input, so the
                 seed changes nothing.

Each call is kept near a second or less, so that a 45 s run holds many
passes and the calibration kernel timed around each call (see `speed`)
tracks the machine's speed during it.  The benchmark's time budget allows
runs that long only for two workloads, which is why the report parts
share one.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path


# Sizes per scale.  "tiny" exists for the benchmark's own test.
SIZES = {
    "full": {
        "dense_n": 15,
        "extremal_n": 100,
        "wide_n": 2000,
        "sample_count": 1_000_000,
        "exact_n_max": 120,
        "full_n_max": 12,
        "hash_q": 29,
        "hash_n": 14,
        "small_joints": 36,
    },
    "tiny": {
        "dense_n": 6,
        "extremal_n": 12,
        "wide_n": 64,
        "sample_count": 1000,
        "exact_n_max": 8,
        "full_n_max": 5,
        "hash_q": 5,
        "hash_n": 4,
        "small_joints": 4,
    },
}

# Verdicts of a Bernoulli report that hold for every valid joint.
UNIVERSAL_VERDICTS = (
    "pinelis",
    "paley_zygmund",
    "eta_lower",
    "g_nonnegative",
    "factorization",
    "moment_implication",
    "main_lower",
)

REL_TOL = 1e-12
FULL_LP_TOL = 1e-8

# `expected_max` raises this when its tail-integral sum and its direct sum
# differ by more than an absolute 1e-10 (ROADMAP item 2).
SLACK_DEFECT = re.compile(r"tail-integral cross-check failed: direct=(\S+) layered=(\S+)")


def _write_json(path: Path, obj) -> int:
    text = json.dumps(obj)
    path.write_text(text, encoding="utf-8")
    return len(text)


def _call(verb: str, argv: list[str], check: dict, block: str | None = None) -> dict:
    return {"verb": verb, "argv": argv, "check": check, "block": block}


def same_block(call: dict, following: dict) -> bool:
    """True iff `following` shares the block of `call`: the calls timed
    together between two runs of the calibration kernel.  A call without a
    block is a block of its own; calls of a few milliseconds share one, so
    that the kernel does not outweigh them."""
    return call["block"] is not None and call["block"] == following["block"]


def _remap(mask: int, perm: list[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _report_dense(rng, size, out: Path, tag: str):
    from maxdecouple.constructions import product
    from maxdecouple.dist import MarginalVector

    n = size["dense_n"]
    p = [rng.uniform(0.05, 0.5) for _ in range(n)]
    joint = product(MarginalVector(p))
    path = out / f"{tag}dense.json"
    nbytes = _write_json(path, joint.to_json_dict())
    survive = Fraction(1)
    for x in p:
        survive *= 1 - Fraction(x)
    expect_m = float(1 - survive)
    seed = rng.randrange(2**32)
    calls = [
        _call("report", ["report", "--in", str(path)],
              {"kind": "bernoulli_report", "M": expect_m, "applicable": True}),
        _call("sample", ["sample", "--in", str(path), "--seed", str(seed),
                         "--count", str(size["sample_count"])],
              {"kind": "sample", "file": str(path), "count": size["sample_count"]}),
    ]
    sizes = {"n": n, "atoms": len(joint.atoms), "json_bytes": nbytes,
             "sample_count": size["sample_count"]}
    return calls, sizes


def _report_wide(rng, size, out: Path, tag: str):
    from maxdecouple.constructions import conjectured_extremal

    n = size["extremal_n"]
    perm = list(range(n))
    rng.shuffle(perm)
    base = conjectured_extremal(n)
    atoms = sorted((_remap(mask, perm), prob) for mask, prob in base.atoms)
    ext_path = out / f"{tag}extremal.json"
    ext_bytes = _write_json(ext_path, {"kind": "bernoulli-joint", "n": n,
                                       "atoms": [{"mask": m, "p": p} for m, p in atoms]})

    wide_n = size["wide_n"]
    mask = rng.getrandbits(wide_n) & rng.getrandbits(wide_n)
    q = rng.uniform(0.2, 0.8)
    wide_path = out / f"{tag}wide.json"
    _write_json(wide_path, {"kind": "bernoulli-joint", "n": wide_n,
                            "atoms": [{"mask": 0, "p": 1.0 - q}, {"mask": mask, "p": q}]})
    seed = rng.randrange(2**32)
    calls = [
        _call("report", ["report", "--in", str(ext_path)],
              {"kind": "bernoulli_report", "M": 0.5 + 0.5 / (n - 1), "applicable": True}),
        _call("sample", ["sample", "--in", str(ext_path), "--seed", str(seed),
                         "--count", str(size["sample_count"])],
              {"kind": "sample", "file": str(ext_path), "count": size["sample_count"]}),
        _call("report", ["report", "--in", str(wide_path)],
              {"kind": "bernoulli_report", "M": q, "applicable": None}),
    ]
    sizes = {"extremal_n": n, "extremal_atoms": len(atoms), "extremal_json_bytes": ext_bytes,
             "wide_n": wide_n, "wide_atoms": 2, "wide_popcount": mask.bit_count(),
             "sample_count": size["sample_count"]}
    return calls, sizes


def _search_sweep(rng, size, out: Path, tag: str):
    calls = []
    for reduction, n_max in (("exact", size["exact_n_max"]), ("full", size["full_n_max"])):
        for mode in ("equality", "negcov"):
            argv = ["search", "--n-min", "3", "--n-max", str(n_max), "--mode", mode]
            if reduction == "full":
                argv += ["--reduction", "full"]
            calls.append(_call(f"search_{reduction}", argv,
                               {"kind": "sweep", "reduction": reduction, "mode": mode,
                                "n_min": 3, "n_max": n_max}))
    n = size["full_n_max"]
    # Size of the atom-level LP at the largest n, from its definition: one
    # column per atom; rows for mass, marginals and pairs.
    sizes = {"exact_n": [3, size["exact_n_max"]], "full_n": [3, n],
             "full_lp_rows": 1 + n + comb(n, 2), "full_lp_cols": 2**n,
             "full_lp_nnz": 2**n + n * 2 ** (n - 1) + comb(n, 2) * 2 ** (n - 2)}
    return calls, sizes


def _nonneg_expectations(atoms) -> dict:
    grid = {0.0}
    for values, _ in atoms:
        grid.update(values)
    emax = math.fsum(p * max(values) for values, p in atoms)
    return {"emax": emax, "grid": len(grid)}


def _continuous_grid(rng, size, out: Path, tag: str):
    from maxdecouple.continuous import affine_hash_values

    q, n = size["hash_q"], size["hash_n"]
    # Distinct values fix the grid at n*q + 1 thresholds for every seed.
    values = rng.sample(range(1, 1000), n * q)
    joint = affine_hash_values(n, q, [values[i * q:(i + 1) * q] for i in range(n)])
    path = out / f"{tag}affine.json"
    _write_json(path, joint.to_json_dict())
    expect = _nonneg_expectations(joint.atoms)
    calls = [_call("report", ["report", "--in", str(path)],
                   {"kind": "continuous_report", "emax": expect["emax"], "pairwise": True})]
    for k in range(size["small_joints"]):
        weights = [rng.random() + 0.1 for _ in range(rng.randint(2, 5))]
        total = sum(weights)
        atoms = [([rng.uniform(0.5e9, 1.5e9) for _ in range(3)], w / total) for w in weights]
        small = out / f"{tag}small{k}.json"
        _write_json(small, {"kind": "nonneg-joint", "n": 3,
                            "atoms": [{"values": v, "p": p} for v, p in atoms]})
        calls.append(_call("report", ["report", "--in", str(small)],
                           {"kind": "continuous_report",
                            "emax": _nonneg_expectations(atoms)["emax"], "pairwise": None},
                           block="small-joints"))
    sizes = {"n": n, "q": q, "atoms": len(joint.atoms), "grid_points": expect["grid"],
             "small_joints": size["small_joints"]}
    return calls, sizes


# Each workload runs the calls of its parts, in this order, in every pass.
PARTS = {
    "report-mix": {"dense": _report_dense, "wide": _report_wide,
                   "continuous": _continuous_grid},
    "search-sweep": {"sweeps": _search_sweep},
}


WORKLOADS = tuple(PARTS)


def make_plan(workload: str, seed: int, out: Path, scale: str = "full") -> dict:
    """Write the workload's input files under `out` and return its plan.

    The warm-up calls are the same workload at the tiny scale; they load
    every code path the measured calls use, so that lazy imports and first
    calls are not timed.
    """
    plan = {"workload": workload, "seed": seed, "scale": scale, "sizes": {},
            "calls": [], "warmup": []}
    rng, tiny_rng = random.Random(seed), random.Random(seed)
    for part, build in PARTS[workload].items():
        calls, plan["sizes"][part] = build(rng, SIZES[scale], out, "")
        plan["calls"] += calls
        plan["warmup"] += build(tiny_rng, SIZES["tiny"], out, "warmup-")[0]
    return plan


# -- output checks ----------------------------------------------------------


def _close(value: float, expect: float, tol: float = REL_TOL) -> bool:
    return abs(value - expect) <= tol * max(abs(expect), 1.0)


def _check_bernoulli_report(check, rc, text, state):
    report = json.loads(text)
    if rc != 0:
        return f"exit code {rc}, expected 0"
    failed = [name for name in UNIVERSAL_VERDICTS if report["verdicts"].get(name) is not True]
    if failed:
        return f"universal verdicts failed: {failed}"
    if not _close(report["M"], check["M"]):
        return f"M = {report['M']!r}, expected {check['M']!r}"
    applicable = check["applicable"]
    if applicable is not None and report["verdicts"]["main_lower_applicable"] is not applicable:
        return f"main_lower_applicable is not {applicable}"
    return None


def _check_sample(check, rc, text, state):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    atoms = state["atom_masks"].get(check["file"])
    if atoms is None:
        with open(check["file"], encoding="utf-8") as handle:
            atoms = {str(a["mask"]) for a in json.load(handle)["atoms"]}
        state["atom_masks"][check["file"]] = atoms
    draws = text.split("\n")
    if draws[-1] != "":
        return "output does not end with a newline"
    draws.pop()
    if len(draws) != check["count"]:
        return f"{len(draws)} draws, expected {check['count']}"
    strays = set(draws) - atoms
    if strays:
        return f"{len(strays)} drawn masks are not atoms, e.g. {min(strays)}"
    return None


def _sweep_rows(text: str) -> list[dict]:
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_sweep(check, rc, text, state):
    if rc != 0:
        return f"exit code {rc}, expected 0"
    rows = _sweep_rows(text)
    ns = list(range(check["n_min"], check["n_max"] + 1))
    if [int(row["n"]) for row in rows] != ns:
        return f"rows cover the wrong n: expected {ns[0]}..{ns[-1]}"
    objective = {int(row["n"]): float(row["lp_objective"]) for row in rows}
    if any(row["status"] != "optimal" for row in rows):
        return "a row is not optimal"
    state["sweeps"][(check["reduction"], check["mode"])] = objective
    for row in rows:
        n = int(row["n"])
        equality = n / (2 * (n - 1))
        mtilde = 1.0 - (1.0 - 1.0 / (n - 1)) ** n
        if not _close(float(row["mtilde"]), mtilde):
            return f"n={n}: mtilde {row['mtilde']}, expected {mtilde!r}"
        value = objective[n]
        if check["reduction"] == "exact":
            if check["mode"] == "equality" and not _close(value, equality):
                return f"n={n}: equality optimum {value!r}, expected {equality!r}"
            if check["mode"] == "negcov" and not (
                mtilde / 2 - REL_TOL <= value <= equality + REL_TOL
            ):
                return f"n={n}: negcov optimum {value!r} outside [mtilde/2, n/(2(n-1))]"
        else:
            exact = state["sweeps"].get(("exact", check["mode"]), {}).get(n)
            if exact is None:
                return f"n={n}: no exchangeable row to compare with"
            if abs(value - exact) > FULL_LP_TOL:
                return f"n={n}: full optimum {value!r} vs exchangeable {exact!r}"
    return None


def _check_continuous_report(check, rc, text, state):
    report = json.loads(text)
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if not _close(report["emax"], check["emax"]):
        return f"emax = {report['emax']!r}, expected {check['emax']!r}"
    if report["upper_holds"] is not True:
        return "upper bound fails"
    if check["pairwise"] and not (report["pairwise_ok"] is True and report["lower_holds"] is True):
        return "affine-hash joint must pass the orthant test and the lower bound"
    return None


CHECKS = {
    "bernoulli_report": _check_bernoulli_report,
    "sample": _check_sample,
    "sweep": _check_sweep,
    "continuous_report": _check_continuous_report,
}


def new_pass_state(atom_masks: dict) -> dict:
    """State shared by the checks of one pass; `atom_masks` is kept across passes."""
    return {"sweeps": {}, "atom_masks": atom_masks}


def check_output(call: dict, rc, text: str, state: dict) -> str | None:
    """None if the call's output is correct, else what is wrong with it."""
    try:
        return CHECKS[call["check"]["kind"]](call["check"], rc, text, state)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def is_slack_defect(call: dict, exc: BaseException) -> bool:
    """True iff `exc` is the known layer-cake slack defect: `expected_max`
    rejecting two sums that agree to a relative 1e-12."""
    if call["check"]["kind"] != "continuous_report" or type(exc) is not RuntimeError:
        return False
    match = SLACK_DEFECT.search(str(exc))
    if match is None:
        return False
    direct, layered = float(match.group(1)), float(match.group(2))
    return _close(direct, layered)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

"""The package's public names."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxdecouple
from maxdecouple import bounds, cli, constructions, dist, optimize

# Names the package no longer defines: pair data lives in
# `JointBernoulli.summary`, the sweep prints the p = 1/(n-1) ratio, and the
# float atom-level LP and its HiGHS solve live in the tests (`highs_lp`),
# replaced at runtime by `full_optimum`'s exact certificate; the `construct`
# command calls the family builders through `cli.FAMILY_BY_FLAG`; a table's
# size is charged in bytes (`dist._check_table`), not capped in variables;
# the full route's certificate (`optimize.full_optimum`) runs over Hamming
# classes, with no charge and no numpy, and its atom-level helpers live in
# the tests (`highs_lp`); a failed certificate raises
# `errors.InvariantError`; every slack comes from `dist._summed_slack`; one
# certificate proves both pairwise programs, so the search takes no mode.
REMOVED = (
    "SecondMomentMatrix", "EtaMatrix", "second_moments", "eta_matrix", "min_ratio",
    "ExtremalLp", "build_full_lp", "solve", "FamilySpec", "FAMILY_KINDS",
    "DENSE_VARIABLE_LIMIT", "CertificateError", "VERDICT_SLACK", "DEFAULT_COVARIANCE_TOL",
    "_check_tolerance", "FULL_VARIABLE_LIMIT", "CERTIFICATE_ATOM_BYTES",
    "MODES", "_check_mode", "_closed_form_k", "MODE_BY_FLAG", "_fmt_cell", "_discard_stdout",
)


def test_all_lists_only_defined_names():
    assert [name for name in maxdecouple.__all__ if not hasattr(maxdecouple, name)] == []
    assert len(set(maxdecouple.__all__)) == len(maxdecouple.__all__)
    assert "full_optimum" in maxdecouple.__all__


def test_removed_names_are_gone():
    for module in (maxdecouple, bounds, cli, constructions, dist, optimize):
        assert [name for name in REMOVED if hasattr(module, name)] == [], module.__name__
    for check in (bounds.main_lower_check, bounds.full_report):
        assert list(inspect.signature(check).parameters) == ["joint"]
    assert list(inspect.signature(optimize.full_optimum).parameters) == ["n", "p"]
    sweep = inspect.signature(optimize.conjecture_sweep).parameters.values()
    assert [(param.name, param.kind.name) for param in sweep] == [
        ("n_min", "POSITIONAL_OR_KEYWORD"), ("n_max", "POSITIONAL_OR_KEYWORD"),
        ("reduction", "KEYWORD_ONLY"),
    ]
    gone = ("FullLpProblem", "PRICING_TOLERANCE", "WITNESS_ATOM_FLOOR", "_seed_columns",
            "_pair_indices", "_constraint_rows", "_reduced_costs", "_hamming_weights",
            "_charge_certificate", "np")
    assert [name for name in gone if name in vars(optimize)] == []
    assert "_FAMILIES" not in vars(constructions)
    assert "status" not in optimize.LpSolution._fields


def test_exports_resolve_on_first_access():
    # `import *` binds every `__all__` name, `dir` lists them, and an
    # unknown name is an AttributeError like any module's.
    namespace = {}
    exec("from maxdecouple import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(maxdecouple.__all__)
    assert namespace["full_report"] is bounds.full_report
    assert namespace["LpSolution"] is optimize.LpSolution
    assert set(maxdecouple.__all__) <= set(dir(maxdecouple))
    with pytest.raises(AttributeError, match="no_such_name"):
        maxdecouple.no_such_name


def test_import_loads_no_numpy():
    # In a new interpreter, since this one holds numpy: the package and the
    # command line import neither the joint machinery nor the search, and a
    # submodule not yet imported is still an attribute of the package.
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import json, sys, maxdecouple, maxdecouple.cli; print(json.dumps([sorted("
              "m for m in sys.modules if m.split('.')[0] in ('numpy', 'maxdecouple')), "
              "maxdecouple.bounds.full_report is maxdecouple.full_report]))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["maxdecouple", "maxdecouple.cli", "maxdecouple.errors"], True]

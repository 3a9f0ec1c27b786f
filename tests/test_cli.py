"""Command-line behaviour: output formats, exit-code contract, round trips."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from maxdecouple import (
    JointBernoulli, MarginalVector, NonnegJoint, affine_hash, affine_hash_values, cli, comonotone,
    conjectured_extremal, decoupling_check_cont, expand_exchangeable, full_report,
    one_hot_uniform, product, xor_parity,
)
from maxdecouple import dist, optimize
from maxdecouple.cli import EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main
from maxdecouple.dist import SAMPLE_CHUNK
from maxdecouple.optimize import exchangeable_optimum
from maxdecouple.verification import random_joint, random_nonneg_joint
from test_bounds import distinct_columns_joint, inflate_f

SRC = Path(__file__).resolve().parents[1] / "src"

# SHA-256 of `search --n-min 3 --n-max 6 --reduction full` stdout: the
# rows a float HiGHS solve wrote, less the two columns that were the same
# on every row.  `test_no_verb_loads_scipy` also checks every lp_objective
# against the exact optimum.
FULL_SEARCH_SHA256 = "f4e2c79b94a045c4b26facb96745f70e99c1506096223e75cdeea5384148ffe7"

# SHA-256 of `search --n-min 3 --n-max 16 --reduction full` stdout in either
# mode: the correctly rounded exact optimum, the same bytes as
# `--reduction exchangeable`.
FULL_SEARCH_16_SHA256 = "fea7d0d222551a2470d2d4078a35e2974b8933be16482bc46ced923f388343dd"

# SHA-256 of `search --n-min 3 --n-max 120` stdout in either mode, recorded
# when the closed form was computed in `Fraction` arithmetic; the integer
# closed form prints the same bytes, and so does `--reduction full`.
EXACT_SEARCH_120_SHA256 = "e50c07f566756e617312991799ee443b800e9c40e68fd35691ee9d36a3e6bdea"

# SHA-256 of `report --in product.json` stdout, for the product law of the
# marginals PRODUCT_MARGINALS (4,096 atoms), with every pair moment summed
# left to right over the atoms in mask order.
PRODUCT_MARGINALS = "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6"
PRODUCT_REPORT_SHA256 = "d7a7a2c80f386bc3c4dda73517ae7f6d6f2b123f5f0755297a2ffa69c4948f7c"
# ... and of `report --in product.json --format csv`.
PRODUCT_REPORT_CSV_SHA256 = "83bb1b9f01c83534f7bc3a5f012425521e618df7dbd247a44578edbbea160dc0"

# SHA-256 of `report --in affine.json` stdout, json and csv, for the nonneg
# joint `affine_values_joint()` (its CSV row carries three bools).
AFFINE_REPORT_SHA256 = {
    "json": "69c348088bebe92218274036f78d2d3fdf07d154861e878f7da6b5d5846a0905",
    "csv": "62ad1b0af19fccddc4b887c9a1e078d14d19051c79c1656a846524f73bebc873",
}


def affine_values_joint():
    return affine_hash_values(5, 7, [[11.0 * (7 * i + j) % 37 for j in range(7)] for i in range(5)])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def extremal3_file(tmp_path):
    return write_json(
        tmp_path / "extremal3.json",
        {
            "kind": "bernoulli-joint",
            "n": 3,
            "atoms": [
                {"mask": 0, "p": 0.25},
                {"mask": 3, "p": 0.25},
                {"mask": 5, "p": 0.25},
                {"mask": 6, "p": 0.25},
            ],
        },
    )


@pytest.fixture()
def long_mask_file(tmp_path):
    # A two-atom joint over 15,000 variables whose second mask, 10^4300,
    # has one decimal digit more than Python converts by default.  The
    # text is written directly: json.dumps would itself hit the limit.
    path = tmp_path / "long_mask.json"
    path.write_text(
        '{"kind": "bernoulli-joint", "n": 15000, "atoms": '
        '[{"mask": 0, "p": 0.5}, {"mask": 1' + "0" * 4300 + ', "p": 0.5}]}'
    )
    return str(path)


def assert_names_digit_limit(err: str, what: str) -> None:
    assert what in err and "limit of 4300 decimal digits" in err, err
    assert "at most 14284 variables" in err and "Traceback" not in err


class TestReport:
    def test_extremal_json_report(self, extremal3_file, capsys):
        assert main(["report", "--in", extremal3_file]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["M"] == 0.75
        assert payload["M_tilde"] == 0.875
        assert payload["verdicts"]["pinelis"] is True

    def test_product_report_matches_golden_digest(self, tmp_path, capsys):
        path = str(tmp_path / "product.json")
        argv = ["construct", "--family", "product", "--p", PRODUCT_MARGINALS, "--out", path]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        for fmt, digest in (("json", PRODUCT_REPORT_SHA256), ("csv", PRODUCT_REPORT_CSV_SHA256)):
            assert main(["report", "--in", path, "--format", fmt]) == EXIT_OK
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_nonneg_report_matches_golden_digest(self, tmp_path, capsys):
        path = write_json(tmp_path / "affine.json", affine_values_joint().to_json_dict())
        for fmt, digest in AFFINE_REPORT_SHA256.items():
            assert main(["report", "--in", path, "--format", fmt]) == EXIT_OK
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_report_rows_hold_no_numpy_scalar(self):
        # `_csv` prints Python floats, ints and strs only, and `report`
        # spells a bool as JSON does, so every value of either report is a
        # Python float or bool, or the verdicts' dict of bools.
        rng = np.random.default_rng(33)
        for draw, evaluate in ((random_joint, full_report),
                               (random_nonneg_joint, decoupling_check_cont)):
            for _ in range(200):
                for key, value in evaluate(draw(rng))._asdict().items():
                    if key == "verdicts":
                        assert {type(v) for v in value.values()} == {bool}
                    else:
                        assert type(value) in (float, bool), (key, type(value))

    def test_csv_format(self, extremal3_file, capsys):
        assert main(["report", "--in", extremal3_file, "--format", "csv"]) == EXIT_OK
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.split(",")[:3] == ["M", "M_tilde", "S"]
        assert row.split(",")[0] == "0.75"

    def test_csv_bytes(self, extremal3_file, tmp_path, capsys):
        # Recorded when the rows were written by the `csv` module.
        nonneg = write_json(tmp_path / "nonneg.json", {"kind": "nonneg-joint", "n": 2, "atoms": [
            {"values": [0.5, 2.0], "p": 0.25}, {"values": [1.5, 0.0], "p": 0.75}]})
        want = {
            extremal3_file: (
                "M,M_tilde,S,P_prod,G,F,A,B,C,H,pz_lower,pinelis_rhs,eta_lower,verdicts\n"
                "0.75,0.875,1.5,0.125,0.8125,1.21875,2.25,3.75,0.4375,0,0.75,1.3842296185106606,"
                "0.4375,pinelis=true;paley_zygmund=true;main_lower_applicable=true;"
                "main_lower=true;eta_lower=true;g_nonnegative=true;factorization=true;"
                "moment_implication=true\n"
            ),
            nonneg: "emax,emax_ind,upper_holds,pairwise_ok,lower_holds\n1.625,1.4375,true,true,true\n",
        }
        for path, text in want.items():
            assert main(["report", "--in", path, "--format", "csv"]) == EXIT_OK
            assert capsys.readouterr().out == text

    def test_bad_normalization_exits_one_naming_deviation(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "bad.json",
            {
                "kind": "bernoulli-joint",
                "n": 2,
                "atoms": [{"mask": 0, "p": 0.5}, {"mask": 1, "p": 0.4}],
            },
        )
        assert main(["report", "--in", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "deviation" in err and "0.09999" in err

    @pytest.mark.parametrize("kind", ["bernoulli-joint", "nonneg-joint"])
    def test_empty_atom_list_exits_one_naming_it(self, tmp_path, capsys, kind):
        path = write_json(tmp_path / "empty.json", {"kind": kind, "n": 2, "atoms": []})
        verbs = [["report", "--in", path]]
        if kind == "bernoulli-joint":
            verbs.append(["sample", "--in", path, "--count", "3"])
        for argv in verbs:
            assert main(argv) == EXIT_INPUT
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "maxdecouple: invalid input: atom list must be nonempty\n"

    def test_joint_too_large_to_summarize_exits_one_naming_size(self, tmp_path, capsys):
        joint = distinct_columns_joint(14, 12_000)
        path = write_json(tmp_path / "wide.json", joint.to_json_dict())
        assert main(["report", "--in", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "too large" in err and "12000 column classes over 14 atoms" in err

    def test_nonneg_joint_over_budget_exits_one_naming_size(self, tmp_path, monkeypatch, capsys):
        values = [float(v) for v in range(1, 21)]
        joint = affine_hash_values(4, 5, [values[i * 5:(i + 1) * 5] for i in range(4)])
        path = write_json(tmp_path / "affine.json", joint.to_json_dict())
        # 25 atoms, 4 value classes, 20 thresholds.  A class pair's tables at
        # the top threshold block: 8 x (2 x 25 atoms + 3 x 20 thresholds + 3).
        monkeypatch.setattr(dist, "SUMMARY_BUDGET", 903)
        assert main(["report", "--in", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == (
            "maxdecouple: invalid input: joint too large to summarize: one class pair of the "
            "4 x 4 pair tables needs 904 bytes, over the budget of 903 bytes\n"
        )
        # One column, 25 bytes an atom, of the survival table at 28 breakpoints:
        # zero and five depths per class and for the row minimum, where the top
        # value's depth is zero (variable 3 and the row minimum).
        monkeypatch.setattr(dist, "SUMMARY_BUDGET", 624)
        assert main(["report", "--in", path]) == EXIT_INPUT
        assert "one column of the 25 x 28 survival table needs 625 bytes" in capsys.readouterr().err
        monkeypatch.setattr(dist, "SUMMARY_BUDGET", 904)
        assert main(["report", "--in", path]) == EXIT_OK

    def test_marginals_summed_past_one_by_rounding_exit_zero(self, tmp_path, capsys):
        # Mass exactly 1 by fsum, but the first variable fires on every atom,
        # and its marginal summed left to right passes 1 + 1e-12.
        k = 40_000
        assert sum([1 / k] * k) > 1 + 1e-12
        joint = JointBernoulli(20, {2 * i + 1: 1 / k for i in range(k)})
        nonneg = NonnegJoint(2, [((1.0, float(i % 2)), 1 / k) for i in range(k)])
        for name, doc in (("bern", joint.to_json_dict()), ("nonneg", nonneg.to_json_dict())):
            path = write_json(tmp_path / f"{name}.json", doc)
            assert main(["report", "--in", path]) == EXIT_OK
        assert "marginals must lie" not in capsys.readouterr().err

    def test_unparseable_json_exits_one(self, tmp_path, capsys):
        # Not JSON, JSON that is no object, and an object of no known kind.
        path = tmp_path / "garbage.json"
        kinds = "'bernoulli-joint' or 'nonneg-joint'"
        for text, message in (
            ("{not json", "cannot read input: Expecting property name"),
            ("[1, 2]", "invalid input: joint document must be a JSON object\n"),
            ('{"kind": "poisson", "n": 1}', f"invalid input: field 'kind' must be {kinds}, got 'poisson'\n"),
            ('{"n": 1}', f"invalid input: field 'kind' must be {kinds}, got None\n"),
        ):
            path.write_text(text)
            assert main(["report", "--in", str(path)]) == EXIT_INPUT, text
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"maxdecouple: {message}"), (text, err)

    def test_non_utf8_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff")
        assert main(["report", "--in", str(path)]) == EXIT_INPUT
        assert "cannot read input" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_json_nested_past_the_recursion_limit_exits_one(self, tmp_path, capsys):
        depth = sys.getrecursionlimit() + 1
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth)
        assert main(["report", "--in", str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        limit = sys.getrecursionlimit()
        want = f"JSON nested past the recursion limit of {limit}"
        assert err == f"maxdecouple: invalid input: {want}\n"

    def test_comonotone_exit_zero_conditional_not_applicable(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "como.json",
            {
                "kind": "bernoulli-joint",
                "n": 3,
                "atoms": [{"mask": 0, "p": 0.9}, {"mask": 7, "p": 0.1}],
            },
        )
        assert main(["report", "--in", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"]["main_lower_applicable"] is False

    def test_paley_zygmund_equality_witness_exits_zero(self, tmp_path, capsys):
        # Z is 0 or 3 on the optimum at p = 2/(n-1), so (E Z)^2/E[Z^2] = M
        # exactly, and rounding over tens of thousands of atoms can put the
        # computed sides more than 1e-12 apart: 2.6e-12 at n = 80, and n = 60
        # exited 2 under a fixed slack of 1e-12.
        for n in (60, 80):
            weights = exchangeable_optimum(n, Fraction(2, n - 1)).weights_exact
            path = write_json(tmp_path / f"witness{n}.json",
                              expand_exchangeable(n, weights).to_json_dict())
            assert main(["report", "--in", path]) == EXIT_OK, n
            payload = json.loads(capsys.readouterr().out)
            assert all(payload["verdicts"].values()), payload["verdicts"]

    def test_wide_comonotone_exits_zero(self, tmp_path, capsys):
        # F = S*G is about 1.1e6 here, where a fixed slack of 1e-10 on the
        # factorization identity reported this valid joint as a bug.
        path = str(tmp_path / "como.json")
        flags = ["--family", "comonotone", "--n", "1500", "--eps", "0.7"]
        assert main(["construct", *flags, "--out", path]) == EXIT_OK
        for fmt in ("json", "csv"):
            assert main(["report", "--in", path, "--format", fmt]) == EXIT_OK
        assert "factorization=true" in capsys.readouterr().out

    def test_nonneg_joint_report(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "pair.json",
            {
                "kind": "nonneg-joint",
                "n": 2,
                "atoms": [
                    {"values": [1.0, 1.0], "p": 0.5},
                    {"values": [2.0, 2.0], "p": 0.5},
                ],
            },
        )
        assert main(["report", "--in", path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["emax"] == 1.5
        assert payload["pairwise_ok"] is False
        assert payload["upper_holds"] is True

    @pytest.mark.parametrize(
        "atom, field",
        [
            ({"values": [[1]], "p": 1.0}, "atoms[0].values[0]"),
            ({"values": [0.5, "1"], "p": 1.0}, "atoms[0].values[1]"),
            ({"values": [True], "p": 1.0}, "atoms[0].values[0]"),
            ({"values": [1.0], "p": "1"}, "atoms[0].p"),
            ({"values": [1.0], "p": None}, "atoms[0].p"),
        ],
        ids=["nested-list", "string-value", "bool-value", "string-p", "null-p"],
    )
    def test_non_numeric_nonneg_field_exits_one(self, tmp_path, capsys, atom, field):
        n = len(atom["values"])
        path = write_json(
            tmp_path / "bad.json", {"kind": "nonneg-joint", "n": n, "atoms": [atom]}
        )
        assert main(["report", "--in", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "invalid input" in err and field in err
        assert "Traceback" not in err

    def test_integer_past_float_range_exits_one(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "huge.json",
            {"kind": "bernoulli-joint", "n": 1, "atoms": [{"mask": 1, "p": 10**400}]},
        )
        assert main(["report", "--in", path]) == EXIT_INPUT
        assert "invalid probability inf" in capsys.readouterr().err

    def test_mask_past_decimal_digit_limit_exits_one(self, long_mask_file, capsys):
        assert main(["report", "--in", long_mask_file]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "invalid input" in err
        assert_names_digit_limit(err, "an integer in the file")


class TestConstruct:
    def test_round_trip_every_family(self, tmp_path, capsys):
        flag_sets = [
            ["--family", "one-hot", "--n", "6"],
            ["--family", "extremal", "--n", "5"],
            ["--family", "comonotone", "--n", "4", "--eps", "0.125"],
            ["--family", "affine-hash", "--n", "3", "--q", "7", "--m", "3"],
            ["--family", "xor", "--k", "3"],
            ["--family", "product", "--p", "0.25,0.5,0.75"],
        ]
        for idx, flags in enumerate(flag_sets):
            out = tmp_path / f"family{idx}.json"
            assert main(["construct", *flags, "--out", str(out)]) == EXIT_OK
            assert main(["report", "--in", str(out)]) == EXIT_OK
            capsys.readouterr()

    def test_stdout_when_no_out_flag(self, capsys):
        assert main(["construct", "--family", "extremal", "--n", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "bernoulli-joint"
        assert payload["n"] == 3

    def test_bad_parameter_is_usage_error(self, capsys):
        assert main(["construct", "--family", "comonotone", "--n", "3", "--eps", "1.5"]) == EXIT_USAGE
        assert "eps" in capsys.readouterr().err

    def test_each_family_prints_its_builder_joint(self, capsys):
        cases = [
            (["one-hot", "--n", "4"], one_hot_uniform(4)),
            (["extremal", "--n", "5"], conjectured_extremal(5)),
            (["comonotone", "--n", "3", "--eps", "0.25"], comonotone(3, 0.25)),
            (["affine-hash", "--n", "3", "--q", "5", "--m", "2"], affine_hash(3, 5, 2)),
            (["xor", "--k", "2"], xor_parity(2)),
            (["product", "--p", "0.3,0.7"], product(MarginalVector([0.3, 0.7]))),
        ]
        for flags, joint in cases:
            assert main(["construct", "--family", *flags]) == EXIT_OK
            out, err = capsys.readouterr()
            assert out == json.dumps(joint.to_json_dict(), indent=2) + "\n" and err == ""

    def test_missing_parameter_is_usage_error(self, capsys):
        assert main(["construct", "--family", "comonotone", "--n", "3"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == "maxdecouple: usage error: family 'comonotone' needs parameter(s): eps\n"

    def test_unused_parameter_is_usage_error(self, capsys):
        assert main(["construct", "--family", "extremal", "--n", "3", "--eps", "0.5"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "does not use parameter(s): eps" in err

    def test_unknown_family_is_usage_error(self, capsys):
        assert main(["construct", "--family", "mystery", "--n", "3"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "invalid choice: 'mystery'" in err

    def test_table_over_the_budget_is_usage_error(self):
        # Real sizes, refused before any atom is made; the child's address
        # space is capped at 1 GB, so a builder that enumerated first would
        # end in MemoryError (exit 1), not take the machine's memory.
        cases = {
            "extremal --n 100000": "4999950001 atoms over 100000 variables",
            "one-hot --n 100000": "100000 atoms over 100000 variables",
            "comonotone --n 10000000000 --eps 0.5": "2 atoms over 10000000000 variables",
            "affine-hash --n 1 --q 100003 --m 1": "10000600009 atoms over 1 variables",
            "product --p " + ",".join(["0.5"] * 22): "4194304 atoms over 22 variables",
            # Past Python's int/str digit limit, a size is named by its power of two.
            "product --p " + ",".join(["0.5"] * 15000): "2^15000 atoms over 15000 variables",
        }
        script = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from maxdecouple.cli import main
            raise SystemExit(main(["construct", "--family", *sys.argv[1].split()]))
        """)
        for flags, what in cases.items():
            proc = subprocess.run([sys.executable, "-c", script, flags], capture_output=True,
                                  text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
            assert proc.returncode == EXIT_USAGE, (flags, proc.stderr[-300:])
            assert proc.stdout == ""
            want = f"maxdecouple: usage error: joint too large to summarize: the table of {what}"
            assert proc.stderr.startswith(f"{want} needs"), flags

    def test_large_prime_q_is_refused_at_once(self):
        # Refused by the size of its q^2 cells before q = 10^18 + 3 is tested
        # for primality by trial division, which would take minutes.
        argv = ["construct", "--family", "affine-hash", "--n", "2", "--q", str(10**18 + 3), "--m", "1"]
        proc = subprocess.run([sys.executable, "-m", "maxdecouple.cli", *argv], capture_output=True,
                              text=True, timeout=2, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert "too large" in proc.stderr and "Traceback" not in proc.stderr

    def test_nan_marginal_is_usage_error(self, capsys):
        # A NaN marginal parses and the builder refuses it; an empty one
        # never parses.
        for p, message in (
            ("0.5,nan", "marginals must lie in [0, 1]; found value nan"),
            ("0.5,,0.5", "--p must be a comma-separated float list, got '0.5,,0.5'"),
        ):
            assert main(["construct", "--family", "product", "--p", p]) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and f"maxdecouple: usage error: {message}" in err, p
            assert "atom mask" not in err

    def test_mask_past_decimal_digit_limit_is_a_write_error(self, tmp_path, capsys):
        # 2^14284 - 1 has 4300 decimal digits and is written; the all-ones
        # mask over one more variable has 4301 and is refused unwritten.
        fits = tmp_path / "fits.json"
        flags = ["construct", "--family", "comonotone", "--eps", "0.5", "--out"]
        assert main([*flags, str(fits), "--n", "14284"]) == EXIT_OK
        assert main(["report", "--in", str(fits)]) == EXIT_OK
        capsys.readouterr()
        past = tmp_path / "past.json"
        assert main([*flags, str(past), "--n", "14285"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "cannot write output" in err and not past.exists()
        assert_names_digit_limit(err, "a mask of 14285 bits")


class TestSearch:
    def test_sweep_csv_columns_and_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["search", "--n-min", "3", "--n-max", "8", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,p,mtilde,lp_objective,lp_ratio,status"
        assert len(lines) == 7
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert first["n"] == "3"
        assert float(first["lp_objective"]) == pytest.approx(0.75, abs=1e-12)
        assert first["status"] == "optimal"

    def test_full_reduction_matches_exchangeable(self, tmp_path):
        # Byte for byte, up to the cap, in both modes.
        base = ["search", "--n-min", "3", "--n-max", "16"]
        for mode in ("equality", "negcov"):
            exch = tmp_path / f"exch-{mode}.csv"
            full = tmp_path / f"full-{mode}.csv"
            flags = [*base, "--mode", mode]
            assert main([*flags, "--reduction", "exchangeable", "--out", str(exch)]) == EXIT_OK
            assert main([*flags, "--reduction", "full", "--out", str(full)]) == EXIT_OK
            assert full.read_bytes() == exch.read_bytes(), mode
            assert hashlib.sha256(full.read_bytes()).hexdigest() == FULL_SEARCH_16_SHA256

    def test_exact_sweep_to_120_is_pinned(self, capsys):
        # The full route certifies every row, at any n, and prints the same bytes.
        for reduction in ("exchangeable", "full"):
            for mode in ("equality", "negcov"):
                argv = ["search", "--n-min", "3", "--n-max", "120", "--mode", mode]
                assert main([*argv, "--reduction", reduction]) == EXIT_OK
                out = capsys.readouterr().out
                digest = hashlib.sha256(out.encode()).hexdigest()
                assert digest == EXACT_SEARCH_120_SHA256, (reduction, mode)

    def test_negcov_mode_runs(self, capsys):
        assert main(["search", "--n-min", "3", "--n-max", "4", "--mode", "negcov"]) == EXIT_OK
        capsys.readouterr()

    def test_bad_range_is_usage_error(self, capsys):
        assert main(["search", "--n-min", "5", "--n-max", "4"]) == EXIT_USAGE

    def test_reduction_defaults_to_exchangeable(self, capsys):
        argv = ["search", "--n-min", "3", "--n-max", "6"]
        assert main(argv) == EXIT_OK
        default = capsys.readouterr().out
        assert main([*argv, "--reduction", "exchangeable"]) == EXIT_OK
        assert capsys.readouterr().out == default
        assert main([*argv, "--reduction", "auto"]) == EXIT_USAGE
        assert "invalid choice: 'auto'" in capsys.readouterr().err

    def test_sweep_past_the_factor_limit_is_a_usage_error(self, tmp_path, capsys):
        # n = 10^12 would multiply 10^12 factors for P(Z~ > 0): refused at
        # once on both routes, and no file is written.
        out_file = tmp_path / "sweep.csv"
        limit = optimize.SWEEP_FACTOR_LIMIT
        for reduction in ("exchangeable", "full"):
            argv = ["search", "--n-min", str(10**12), "--n-max", str(10**12),
                    "--reduction", reduction, "--out", str(out_file)]
            assert main(argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (f"maxdecouple: usage error: n = {10**12}..{10**12} multiplies "
                           f"{10**12} factors for P(Z~ > 0), past the limit of {limit} "
                           "(the sum of n over the rows)\n")
        assert not out_file.exists()

    def test_csv_uses_17_significant_digits(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["search", "--n-min", "4", "--n-max", "4", "--out", str(out)])
        row = out.read_text().splitlines()[1].split(",")
        # p = 1/3 must round-trip exactly through the printed form
        assert float(row[1]) == 1.0 / 3.0

    def test_csv_cell_strings(self):
        # One %-template per row: floats to 17 digits, ints and strs as
        # they are, the header from the first row's keys.
        cells = {"a": 1 / 3, "b": -0.0, "c": float("inf"), "d": float("-inf"),
                 "e": float("nan"), "f": 0.1, "g": 1e-300, "h": 3, "i": "optimal"}
        assert cli._csv([cells, dict(cells, h=-7)]) == (
            "a,b,c,d,e,f,g,h,i\n"
            "0.33333333333333331,-0,inf,-inf,nan,0.10000000000000001,1e-300,"
            "3,optimal\n"
            "0.33333333333333331,-0,inf,-inf,nan,0.10000000000000001,1e-300,"
            "-7,optimal\n")

    def test_unwritable_out_is_a_write_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "sweep.csv"
        code = main(["search", "--n-min", "3", "--n-max", "4", "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "cannot write output" in err and "cannot read input" not in err


class TestSample:
    def test_deterministic_output(self, extremal3_file, capsys):
        assert main(["sample", "--in", extremal3_file, "--seed", "5", "--count", "64"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["sample", "--in", extremal3_file, "--seed", "5", "--count", "64"]) == EXIT_OK
        assert capsys.readouterr().out == first
        masks = {int(line) for line in first.strip().splitlines()}
        assert masks <= {0, 3, 5, 6}

    def test_zero_count_is_usage_error(self, extremal3_file, capsys):
        assert main(["sample", "--in", extremal3_file, "--count", "0"]) == EXIT_USAGE

    def test_negative_seed_is_usage_error(self, extremal3_file, capsys):
        argv = ["sample", "--in", extremal3_file, "--seed", "-1", "--count", "5"]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "maxdecouple: usage error: --seed must be nonnegative, got -1\n"

    def test_nonneg_file_is_input_error(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "pair.json",
            {
                "kind": "nonneg-joint",
                "n": 1,
                "atoms": [{"values": [1.0], "p": 1.0}],
            },
        )
        assert main(["sample", "--in", path, "--count", "3"]) == EXIT_INPUT

    def test_mask_past_decimal_digit_limit_exits_one(self, long_mask_file, capsys):
        assert main(["sample", "--in", long_mask_file, "--count", "3"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert_names_digit_limit(err, "an integer in the file")

    # SHA-256 of the stdout of `sample`.  extremal70 and clamp80 were
    # recorded before it streamed through the guide-table kernel (one
    # searchsorted over all draws, one join); both have masks past 2^64,
    # and clamp80 has zero-mass atoms and a total mass just under 1.
    # product8, rows of at most 4 bytes, was recorded before the writer
    # split into narrow and wide row layouts.
    GOLDEN = {
        ("product8", 1, 0): "e595be81bf15aa95763adb4fc0ba525bbed1971cf5fccdf3a946cd37025fb2c9",
        ("product8", 65535, 1): "57b841701b73c3ebe8ccba6e4dd42e8588462456151e95f823be5fac8623dc34",
        ("product8", 65537, 2): "d1d60df8c6be5c93de8cbc4ce4c1e1a029b86f7b3867193afd30409f3d54bdcb",
        ("product8", 196615, 3): "bfb73c8a690684d1ad9eedc3ee065dbcbeeb5d15f26cfbf3d74fcd3a20b66e0c",
        ("extremal70", 1, 0): "7a293ab9bb4e2e52a8bfc7cb6e8cd7c705cbe4ec47c316d8c25119343f93a3f3",
        ("extremal70", 65535, 1): "3e81c874814c5c366c4d2324e372f35660a1ffae67b6815fce362231bd1d6c40",
        ("extremal70", 65537, 2): "e3b5cd1f74d15da6a382fe181db84dadd0435ffc7a81e336d2987e3c45f399a3",
        ("extremal70", 196615, 3): "0d7b64a18bec054ec103131a7c38729369bb3fb9f1d41b7325d8711dfbac8311",
        ("clamp80", 1, 0): "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
        ("clamp80", 65535, 1): "a7d98ee5117be996371e8d0e9a96167c593b4d0f8a4dbb4b5d6a9248df5f000a",
        ("clamp80", 65537, 2): "75024107da2cf4db2e3d0db807076f4c78c082178d8c65264795f5dde5338035",
        ("clamp80", 196615, 3): "a3118ab1785e89207b6605bc642d2b31c7b5fcbe791a1cb1a5eae61a252b4502",
    }

    @pytest.mark.parametrize("name,count,seed", sorted(GOLDEN))
    def test_stdout_matches_golden_digest(self, tmp_path, name, count, seed):
        assert count in (1, SAMPLE_CHUNK - 1, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 7)
        if name == "extremal70":
            joint = conjectured_extremal(70)
        elif name == "product8":
            joint = product(MarginalVector((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)))
        else:
            joint = JointBernoulli(80, {0: 0.5, 1 << 79: 0.0, (1 << 79) | 1: 0.25,
                                        3: 0.25 - 5e-13, 1 << 70: 0.0})
        path = write_json(tmp_path / f"{name}.json", joint.to_json_dict())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["sample", "--in", path, "--seed", str(seed), "--count", str(count)]) == EXIT_OK
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.GOLDEN[name, count, seed]

    def test_memory_does_not_grow_with_count(self, tmp_path):
        class Discard(io.TextIOBase):
            lines = 0

            def writable(self):
                return True

            def write(self, text):
                self.lines += text.count("\n")
                return len(text)

        path = write_json(tmp_path / "extremal70.json", conjectured_extremal(70).to_json_dict())
        sink = Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["sample", "--in", path, "--count", str(10**7)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and sink.lines == 10**7
        # A list of 10^7 masks alone would take over 80 MB.
        assert peak < 16 * 2**20


class TestVerify:
    # SHA-256 of `verify --seed 0 --trials 200` stdout.  Re-pinned when the
    # two pairwise programs came under one certificate: lp-reduction-soundness
    # counts one case per (n, p), 6 not 12, and lp-relaxation-never-larger is
    # gone; every other line is the bytes recorded while the battery read
    # pair moments from n x n matrices.
    GOLDEN = "892319cafd8caa55e098c615dd0c7e0d0479d31d58be43be5b6882da400e5d06"

    def test_stdout_matches_golden_digest(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "--seed", "0", "--trials", "200"]) == EXIT_OK
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.GOLDEN

    def test_small_battery_passes_and_is_deterministic(self, capsys):
        assert main(["verify", "--seed", "0", "--trials", "5"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "0", "--trials", "5"]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert "all 26 properties passed" in first

    def test_zero_trials_is_usage_error(self, capsys):
        assert main(["verify", "--trials", "0"]) == EXIT_USAGE
        assert "trials" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["verify", "--seed", "-5", "--trials", "1"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "maxdecouple: usage error: --seed must be nonnegative, got -5\n"


class TestUsageContract:
    def test_unknown_subcommand_exits_64(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: maxdecouple ")
        assert "error: argument command: invalid choice: 'frobnicate'" in err

    def test_missing_required_flag_exits_64(self, capsys):
        assert main(["report"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: maxdecouple report ")
        assert "error: the following arguments are required: --in" in err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: maxdecouple ")

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "j.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "maxdecouple.cli",
                "construct",
                "--family",
                "xor",
                "--k",
                "2",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        proc = subprocess.run(
            [sys.executable, "-m", "maxdecouple.cli", "report", "--in", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["M"] == 0.75

    def test_subprocess_usage_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxdecouple.cli", "verify", "--trials", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE

    def test_reused_parser_matches_fresh_parser(self, extremal3_file, tmp_path, capsys):
        bad = write_json(tmp_path / "bad.json", {"kind": "bernoulli-joint", "n": 1})
        sequence = [
            ["report", "--format", "xml", "--in", extremal3_file],
            ["report", "--in", extremal3_file, "--format", "csv"],
            ["report", "--in", bad],
            ["search", "--n-min", "3", "--n-max", "6"],
        ]

        def run(argv):
            return main(argv), capsys.readouterr().out

        fresh = []
        for argv in sequence:
            cli._shared_parser.cache_clear()
            fresh.append(run(argv))
        cli._shared_parser.cache_clear()
        reused = [run(argv) for argv in sequence]
        assert [code for code, _ in fresh] == [EXIT_USAGE, EXIT_OK, EXIT_INPUT, EXIT_OK]
        assert reused == fresh
        assert cli._shared_parser.cache_info().misses == 1
        assert cli.build_parser() is not cli.build_parser()

    @pytest.fixture(scope="class")
    def fresh_verbs(self, tmp_path_factory):
        # Every verb in a new interpreter, since the pytest process already
        # holds scipy and the HiGHS oracle's scipy may load numpy.ma.
        # Returns which of the two were loaded before and after the full
        # search, and that search's stdout.
        script = textwrap.dedent(
            """
            import contextlib, hashlib, io, json, sys
            import maxdecouple
            import maxdecouple.cli as cli

            def slow_modules():
                return [name for name in ("scipy", "numpy.ma")
                        if any(m == name or m.startswith(name + ".") for m in sys.modules)]

            def run(*argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(list(argv)) == 0, argv
                return out.getvalue()

            joint, nonneg = sys.argv[1:]
            run("construct", "--family", "extremal", "--n", "12", "--out", joint)
            run("report", "--in", joint)
            run("report", "--in", joint, "--format", "csv")
            run("sample", "--in", joint, "--count", "100")
            run("report", "--in", nonneg)
            run("search", "--n-min", "3", "--n-max", "20")
            run("search", "--n-min", "3", "--n-max", "20", "--mode", "negcov")
            run("verify", "--trials", "20")
            before = slow_modules()
            full = run("search", "--n-min", "3", "--n-max", "6", "--reduction", "full")
            run("search", "--n-min", "3", "--n-max", "12", "--reduction", "full", "--mode", "negcov")
            print(json.dumps({
                "before": before,
                "after": slow_modules(),
                "sha256": hashlib.sha256(full.encode()).hexdigest(),
                "full": full,
            }))
            """
        )
        tmp_path = tmp_path_factory.mktemp("fresh")
        nonneg = write_json(
            tmp_path / "nonneg.json",
            {
                "kind": "nonneg-joint",
                "n": 2,
                "atoms": [{"values": [0.0, 1.0], "p": 0.5}, {"values": [2.0, 0.5], "p": 0.5}],
            },
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "joint.json"), nonneg],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_no_verb_loads_scipy(self, fresh_verbs):
        assert "scipy" not in fresh_verbs["before"] + fresh_verbs["after"]
        assert fresh_verbs["sha256"] == FULL_SEARCH_SHA256
        rows = list(csv.DictReader(io.StringIO(fresh_verbs["full"])))
        assert [int(row["n"]) for row in rows] == [3, 4, 5, 6]
        for row in rows:
            n = int(row["n"])
            exact = exchangeable_optimum(n, Fraction(1, n - 1)).objective_exact
            assert float(row["lp_objective"]) == float(exact), n

    def test_no_verb_loads_numpy_ma(self, fresh_verbs):
        # numpy.ma costs about 16 ms and 1.3 MB to import; np.unique with
        # an axis loads it.
        assert "numpy.ma" not in fresh_verbs["before"] + fresh_verbs["after"]

    # The steps one new interpreter takes, in order: the name, the argv
    # (None for `import maxdecouple.cli`), the exit code, the package's
    # modules the step newly loads and whether it newly loads numpy.  The
    # argvs read two joints, `bernoulli.json` and `nonneg.json`.
    STEPS = (
        ("import", None, EXIT_OK,
         {"maxdecouple", "maxdecouple.cli", "maxdecouple.errors"}, False),
        ("search", ["search", "--n-min", "3", "--n-max", "20"], EXIT_OK,
         {"maxdecouple.optimize"}, False),
        ("search full", ["search", "--n-min", "3", "--n-max", "12", "--reduction", "full"],
         EXIT_OK, set(), False),
        ("--help", ["--help"], EXIT_OK, set(), False),
        ("usage error", ["search", "--n-min", "3"], EXIT_USAGE, set(), False),
        ("sample --count 0", ["sample", "--in", "bernoulli.json", "--count", "0"], EXIT_USAGE,
         set(), False),
        ("verify --trials 0", ["verify", "--trials", "0"], EXIT_USAGE, set(), False),
        ("sample", ["sample", "--in", "bernoulli.json", "--count", "5"], EXIT_OK,
         {"maxdecouple.joint_verbs", "maxdecouple.dist"}, True),
        ("report bernoulli", ["report", "--in", "bernoulli.json"], EXIT_OK,
         {"maxdecouple.bounds"}, False),
        ("report nonneg", ["report", "--in", "nonneg.json"], EXIT_OK,
         {"maxdecouple.continuous"}, False),
    )
    # Standard-library modules that only the joint machinery imports: a
    # step that loads no numpy loads none of them either.
    WITH_NUMPY = {"json", "dataclasses", "inspect", "fractions", "decimal", "typing",
                  "__future__"}

    @pytest.fixture(scope="class")
    def fresh_steps(self, tmp_path_factory):
        # In a new interpreter, since the pytest process holds every module:
        # each step's exit code and the modules it newly loaded.  A diff,
        # so that a module the interpreter's `site` loads (typing, on some
        # installs) neither hides nor fakes a load.
        script = textwrap.dedent("""
            import contextlib, io, json, sys

            def loaded_by(call):
                before = set(sys.modules)
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    code = call()
                return code, sorted(set(sys.modules) - before)

            def import_cli():
                global main
                from maxdecouple.cli import main
                return 0

            steps = [loaded_by(import_cli)]
            steps += [loaded_by(lambda: main(argv)) for argv in json.loads(sys.argv[1])]
            print(json.dumps(steps))
        """)
        tmp_path = tmp_path_factory.mktemp("steps")
        write_json(tmp_path / "bernoulli.json", xor_parity(2).to_json_dict())
        write_json(tmp_path / "nonneg.json", {
            "kind": "nonneg-joint", "n": 2,
            "atoms": [{"values": [0.0, 1.0], "p": 0.5}, {"values": [2.0, 0.5], "p": 0.5}]})
        argvs = json.dumps([argv for _, argv, *_ in self.STEPS[1:]])
        proc = subprocess.run([sys.executable, "-c", script, argvs], capture_output=True,
                              text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        return dict(zip([name for name, *_ in self.STEPS], json.loads(proc.stdout)))

    @pytest.mark.parametrize("name, argv, code, package, numpy", STEPS,
                             ids=[name for name, *_ in STEPS])
    def test_step_loads(self, fresh_steps, name, argv, code, package, numpy):
        exit_code, loaded = fresh_steps[name]
        assert exit_code == code
        assert {m for m in loaded if m.split(".")[0] == "maxdecouple"} == package
        assert ("numpy" in loaded) == numpy
        if not numpy:
            assert not self.WITH_NUMPY & set(loaded)

    def test_joint_verbs_run_the_command_line_module_once(self, tmp_path):
        # Under `python -m maxdecouple.cli` the module runs as `__main__`.
        # The joint verbs reach its writers without importing it a second
        # time under its own name, which `-X importtime` would list.
        joint = str(tmp_path / "joint.json")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for argv in (["construct", "--family", "extremal", "--n", "3", "--out", joint],
                     ["report", "--in", joint], ["sample", "--in", joint, "--count", "5"]):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "maxdecouple.cli",
                                   *argv], capture_output=True, text=True, env=env, timeout=60)
            lines = proc.stderr.splitlines()
            imported = [line.rsplit("|", 1)[1].strip() for line in lines
                        if line.startswith("import time:")]
            assert proc.returncode == EXIT_OK and len(imported) == len(lines), proc.stderr
            assert "maxdecouple.joint_verbs" in imported, argv
            assert "maxdecouple.cli" not in imported, argv

    @pytest.mark.parametrize("verb, unbuffered", [
        ("sample", "1"), ("sample", ""), ("search", "1"), ("search", ""),
        ("construct", "1"), ("construct", ""),
    ])
    def test_closed_pipe_is_a_write_error(self, extremal3_file, verb, unbuffered):
        # The reader takes one line and closes the pipe: exit 1, one
        # "cannot write output" line, and no traceback or "Exception
        # ignored" from the interpreter's flush at exit.  search and
        # construct write their output at once, which the pipe takes in
        # part.
        argv = {"sample": ["sample", "--in", extremal3_file, "--count", "1000000"],
                "search": ["search", "--n-min", "3", "--n-max", "3000"],
                "construct": ["construct", "--family", "extremal", "--n", "200"]}[verb]
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen([sys.executable, "-m", "maxdecouple.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_INPUT
        assert err == b"maxdecouple: cannot write output: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("verb", ["report", "construct", "search", "sample", "verify",
                                      "--help", "report --help"])
    def test_pipe_closed_before_the_first_write(self, extremal3_file, verb, unbuffered):
        # Every write fails, the help's too.  Every verb and the help write
        # stdout through one writer, which leaves nothing in stdout's buffer,
        # so each run ends in one "cannot write output" line and exit 1, and
        # the interpreter's flush at exit has nothing to fail on.
        argv = {"report": ["report", "--in", extremal3_file],
                "construct": ["construct", "--family", "extremal", "--n", "3"],
                "search": ["search", "--n-min", "3", "--n-max", "20"],
                "sample": ["sample", "--in", extremal3_file, "--count", "5"],
                "verify": ["verify", "--trials", "1"]}.get(verb, verb.split())
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
        try:
            proc = subprocess.run([sys.executable, "-m", "maxdecouple.cli", *argv],
                                  env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == b"maxdecouple: cannot write output: [Errno 32] Broken pipe\n"


class TestInvariantExitCode:
    def test_verdict_failure_maps_to_exit_two(self, monkeypatch, extremal3_file, capsys):
        # Force a universal verdict to fail to exercise the exit-2 path.
        from maxdecouple import bounds as bounds_mod

        real = bounds_mod.full_report

        def poisoned(joint):
            report = real(joint)
            report.verdicts["pinelis"] = False
            return report

        monkeypatch.setattr(bounds_mod, "full_report", poisoned)
        assert main(["report", "--in", extremal3_file]) == EXIT_INVARIANT

    def test_relative_error_in_f_exits_two(self, monkeypatch, tmp_path, capsys):
        path = str(tmp_path / "como.json")
        flags = ["--family", "comonotone", "--n", "1500", "--eps", "0.7"]
        assert main(["construct", *flags, "--out", path]) == EXIT_OK
        inflate_f(monkeypatch, 1 + 1e-9)
        for fmt in ("json", "csv"):
            assert main(["report", "--in", path, "--format", fmt]) == EXIT_INVARIANT
        assert "factorization=false" in capsys.readouterr().out

    def test_failed_certificate_exits_two_naming_the_case(self, monkeypatch, capsys, tmp_path):
        # A dual built from k + 1 cannot certify the optimum; no row is
        # printed, and no file is written.
        real = optimize._certificate_dual
        monkeypatch.setattr(optimize, "_certificate_dual", lambda k: real(k + 1))
        argv = ["search", "--n-min", "3", "--n-max", "5", "--reduction", "full"]
        out_file = tmp_path / "sweep.csv"
        for flags in ([], ["--out", str(out_file)]):
            assert main([*argv, *flags, "--mode", "negcov"]) == EXIT_INVARIANT
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("maxdecouple: invariant failed: the full LP certificate fails at ")
            assert "n=3, p=1/2: dual objective" in err
            assert "Traceback" not in err
        assert not out_file.exists()

    def test_failed_full_sweep_writes_no_file(self, monkeypatch, capsys, tmp_path):
        # Every row of the n = 3..12 full sweep goes through the
        # certificate: with a k + 1 dual it exits 2 at n = 3 and writes
        # nothing.
        real = optimize._certificate_dual
        monkeypatch.setattr(optimize, "_certificate_dual", lambda k: real(k + 1))
        out_file = tmp_path / "sweep.csv"
        argv = ["search", "--n-min", "3", "--n-max", "12", "--reduction", "full"]
        assert main([*argv, "--out", str(out_file)]) == EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == ""
        assert "fails at n=3, p=1/2: dual objective" in err
        assert not out_file.exists()

    def test_failed_cross_check_exits_two(self, monkeypatch, tmp_path, capsys):
        # A layer-cake sum off by a relative 1e-9 fails `expected_max`'s
        # cross-check, which `main` reports like the certificate's.
        path = write_json(tmp_path / "nonneg.json", {"kind": "nonneg-joint", "n": 2, "atoms": [
            {"values": [1e9, 2e9], "p": 0.5}, {"values": [3e9, 0.0], "p": 0.5}]})
        from maxdecouple import continuous

        layer_cake = continuous._layer_cake_expected_max
        monkeypatch.setattr(continuous, "_layer_cake_expected_max",
                            lambda joint, grid: layer_cake(joint, grid) * (1 + 1e-9))
        for fmt in ("json", "csv"):
            assert main(["report", "--in", path, "--format", fmt]) == EXIT_INVARIANT
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("maxdecouple: invariant failed: tail-integral cross-check failed: ")
            assert "Traceback" not in err

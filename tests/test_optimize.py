"""Extremal search: the exact routes and the full route's duality
certificate, checked against the same certificate over every atom, the
HiGHS oracle and its agreement with them, and the sweep table."""

import fractions
import gc
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import highs_lp
import oracles
from highs_lp import FULL_VARIABLE_LIMIT, MODES, build_full_lp, solve
from maxdecouple import (
    CONJECTURED_LOWER_CONSTANT,
    JointBernoulli,
    LpSolution,
    MarginalVector,
    conjecture_sweep,
    conjectured_extremal,
    exchangeable_optimum,
    expand_exchangeable,
    full_optimum,
    full_report,
    is_pairwise_independent,
    main_lower_check,
    marginals,
    prob_hit,
    prob_hit_independent,
    product,
)
from maxdecouple import constructions, optimize
from maxdecouple.errors import InvariantError


def as_triple(solution):
    """(objective, objective_exact, weights_exact), the oracle's form."""
    return solution.objective, solution.objective_exact, solution.weights_exact


def closed_form(n, p):
    """`optimize._closed_form` at a Fraction p: (k, at_k, above_k, scale)."""
    return optimize._closed_form(n, p.numerator, p.denominator)


def closed_form_k(n, p):
    """The k of the closed form's support {0, k, k + 1} at n, p."""
    return closed_form(n, p)[0]


def certificate(n, p):
    """The closed form and its witness, as `full_optimum` certifies them."""
    closed = closed_form(n, p)
    return closed, optimize._masses(*closed)


def assert_basic_optimum(full, objective, n, p, mode, tol):
    """`full` is optimal with the given objective, and its witness is a
    basic feasible joint (at most one atom per row) to 1e-9."""
    case = (n, p, mode)
    pf, p2f = float(p), float(p * p)
    assert full.status == "optimal", case
    assert abs(full.objective - objective) <= tol, case
    assert len(full.witness_atoms) <= 1 + n + math.comb(n, 2), case
    joint = JointBernoulli(n, full.witness_atoms)
    assert max(abs(x - pf) for x in marginals(joint).p) <= 1e-9, case
    m = oracles.pair_moment_matrix(joint)
    excess = [m[i][j] - p2f for i in range(n) for j in range(i + 1, n)]
    if mode == "pairwise_equality":
        assert max(map(abs, excess)) <= 1e-9, case
    else:
        assert max(excess) <= 1e-9, case
    assert abs(prob_hit(joint) - full.objective) <= 1e-9, case


@pytest.fixture
def linprog_columns(monkeypatch):
    """Column counts of every `linprog` call of the HiGHS oracle, in order."""
    calls = []
    real = highs_lp.linprog

    def counted(c, *args, **kwargs):
        calls.append(len(c))
        return real(c, *args, **kwargs)

    monkeypatch.setattr(highs_lp, "linprog", counted)
    return calls


class TestBuilders:
    def test_full_lp_shapes_equality_mode(self):
        lp = build_full_lp(3, 0.5)
        assert lp.c.shape == (8,)
        assert lp.c[0] == 0.0 and lp.c[1:].sum() == 7.0
        assert lp.a_eq.shape == (1 + 3 + 3, 8)  # mass + marginals + pairs
        assert lp.a_ub is None

    def test_full_lp_shapes_negcov_mode(self):
        lp = build_full_lp(3, 0.5, "negative_covariance")
        assert lp.a_eq.shape == (4, 8)
        assert lp.a_ub.shape == (3, 8)

    def test_full_lp_matches_loop_oracle(self):
        # Entry for entry, in both modes: the bit-table kernel builds the
        # same CSR matrices as the per-mask loop.
        for n in range(1, 13):
            for p in dict.fromkeys((Fraction(3, 10), Fraction(1, max(n - 1, 1)))):
                c, marg, b_marg, pair, b_pair = oracles.oracle_full_lp_rows(n, p)
                for mode in MODES:
                    lp = build_full_lp(n, p, mode)
                    assert lp.c.tolist() == c
                    if mode == "pairwise_equality":
                        assert lp.a_ub is None and lp.b_ub is None
                        blocks = [(lp.a_eq, lp.b_eq, marg + pair, b_marg + b_pair)]
                    else:
                        blocks = [
                            (lp.a_eq, lp.b_eq, marg, b_marg),
                            (lp.a_ub, lp.b_ub, pair, b_pair),
                        ]
                    for matrix, b, rows, expected_b in blocks:
                        assert matrix.format == "csr", (n, mode)
                        assert matrix.shape == (len(rows), 1 << n), (n, mode)
                        assert matrix.nnz == sum(map(len, rows)), (n, mode)
                        assert matrix.data.dtype == float and (matrix.data == 1.0).all()
                        for r, row in enumerate(rows):
                            lo, hi = matrix.indptr[r], matrix.indptr[r + 1]
                            assert matrix.indices[lo:hi].tolist() == row, (n, mode, r)
                        assert b.tolist() == expected_b, (n, mode)

    def test_constraint_rows_match_loop_oracle(self):
        # Entry for entry, on random mask subsets in random order.
        rng = np.random.default_rng(15)
        for n in range(1, 13):
            _, marg, _, pair, _ = oracles.oracle_full_lp_rows(n, Fraction(1, 2))
            members = [set(row) for row in marg + pair]
            for size in (1, 3, 1 << n):
                masks = rng.permutation(1 << n)[:size]
                rows = highs_lp._constraint_rows(n, masks)
                assert rows.dtype == bool
                expected = [[mask in row for mask in masks.tolist()] for row in members]
                assert rows.tolist() == expected, (n, masks.tolist())

    def test_full_lp_rejects_large_n(self):
        # The oracle builds its 2^n columns only up to its cap;
        # `full_optimum` has none (test_certificate_runs_at_any_n).
        with pytest.raises(ValueError, match="exceeds"):
            build_full_lp(FULL_VARIABLE_LIMIT + 1, 0.5)

    def test_exchangeable_lp_rows(self):
        # The simplex oracle's rows for the exchangeable program.
        objective, eq, ub = oracles.exchangeable_lp_rows(4, Fraction(1, 3), True)
        assert len(objective) == 5
        assert eq[1][1] == Fraction(4, 3)  # first falling moment
        assert eq[2][1] == Fraction(4, 3)  # second falling moment at 1/(n-1)
        assert ub == ()
        _, eq, ub = oracles.exchangeable_lp_rows(4, Fraction(1, 3), False)
        assert len(eq) == 2 and ub[0][1] == Fraction(4, 3)

    def test_exchangeable_rejects_out_of_range(self):
        # One check for both optima: n below 2, and every p outside [0, 1],
        # the infinities and NaN among them, which Fraction cannot take.
        for optimum in (exchangeable_optimum, full_optimum):
            for n in (0, 1):
                with pytest.raises(ValueError, match=f"^need n >= 2, got {n}$"):
                    optimum(n, 0.5)
            for p in (1.5, -0.25, Fraction(3, 2), math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=r"^marginal p must lie in \[0, 1\], got "):
                    optimum(4, p)


class TestSolveKnownInstances:
    def test_full_two_variables_unique_point(self):
        solution = solve(build_full_lp(2, 0.5))
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(0.75, abs=1e-9)
        for mask in range(4):
            assert solution.witness_atoms[mask] == pytest.approx(0.25, abs=1e-8)

    def test_full_boundary_marginal_forces_ones(self):
        solution = solve(build_full_lp(2, 1.0))
        assert solution.objective == pytest.approx(1.0, abs=1e-9)
        assert solution.witness_atoms[3] == pytest.approx(1.0, abs=1e-8)

    def test_exchangeable_two_variables_forced_weights(self):
        solution = exchangeable_optimum(2, Fraction(1, 2))
        assert solution.weights_exact == (
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(1, 4),
        )
        assert solution.objective_exact == Fraction(3, 4)

    def test_exchangeable_three_matches_construction(self):
        solution = exchangeable_optimum(3, Fraction(1, 2))
        assert solution.objective_exact == Fraction(3, 4)
        assert solution.weights_exact == (
            Fraction(1, 4),
            Fraction(0),
            Fraction(3, 4),
            Fraction(0),
        )

    def test_solution_is_an_immutable_tuple_of_fractions(self):
        # A named tuple of four fields, compared field by field; the exact
        # values stay Fractions, and neither the fields nor the support can
        # be set.  The support is a mapping proxy, so it has no hash.
        solution = exchangeable_optimum(3, Fraction(1, 2))
        assert isinstance(solution, LpSolution)
        assert LpSolution._fields == ("objective", "objective_exact", "n", "support")
        assert type(solution.objective) is float and type(solution.n) is int
        assert type(solution.objective_exact) is Fraction
        assert [type(w) for w in solution.weights_exact] == [Fraction] * 4
        assert [type(w) for w in solution.support.values()] == [Fraction] * 2
        assert solution == exchangeable_optimum(3, Fraction(1, 2)) == full_optimum(3, 0.5)
        assert solution != exchangeable_optimum(3, Fraction(1, 3))
        with pytest.raises(AttributeError):
            solution.objective = 0.0
        with pytest.raises(AttributeError):
            solution.extra = 0
        with pytest.raises(TypeError):
            solution.support[0] = Fraction(1)
        with pytest.raises(TypeError):
            hash(solution)

    def test_zero_marginal_gives_empty_family(self):
        solution = exchangeable_optimum(5, 0)
        assert solution.objective_exact == 0
        assert solution.weights_exact[0] == 1

    def test_product_joint_always_feasible(self):
        for n in (2, 3, 5):
            for p in (Fraction(1, 10), Fraction(3, 10), Fraction(1, n - 1), Fraction(1, 2)):
                assert 0 <= exchangeable_optimum(n, p).objective_exact <= 1
                assert 0 <= full_optimum(n, p).objective_exact <= 1
                for mode in MODES:
                    assert solve(build_full_lp(n, p, mode)).status == "optimal"

    def test_product_pmf_satisfies_equality_constraints_up_to_cap(self):
        # The independent law meets every equality-mode constraint to 1e-12,
        # which is what rules out infeasible statuses at any p in [0, 1].
        for n in (2, 6, 10, FULL_VARIABLE_LIMIT):
            for p in (0.1, 0.3, 1.0 / (n - 1), 0.5):
                joint = product(MarginalVector((p,) * n))
                marg = marginals(joint).p
                assert max(abs(x - p) for x in marg) <= 1e-12
                m = oracles.pair_moment_matrix(joint)
                worst = max(
                    abs(m[i][j] - p * p)
                    for i in range(n)
                    for j in range(i + 1, n)
                )
                assert worst <= 1e-12


class TestOracleAgreement:
    def test_exact_optimum_matches_vertex_enumeration(self):
        for n in (3, 4, 5, 6, 8):
            for p in (Fraction(1, n - 1), Fraction(3, 10), Fraction(1, 2)):
                for mode, equality in (
                    ("pairwise_equality", True),
                    ("negative_covariance", False),
                ):
                    expected = oracles.oracle_lp_vertex_minimum(n, p, equality)
                    got = exchangeable_optimum(n, p).objective_exact
                    assert got == expected, (n, p, mode)

    def test_closed_form_matches_exact_simplex(self):
        # Objective and witness weights, exactly; the optimum is unique, so
        # the general simplex cannot land on a different vertex.
        for n in range(2, 17):
            grid = [Fraction(j, 10) for j in range(11)] + [Fraction(1, n - 1)]
            for p in dict.fromkeys(grid):
                for mode, equality in (
                    ("pairwise_equality", True),
                    ("negative_covariance", False),
                ):
                    expected = oracles.oracle_exchangeable_simplex(n, p, equality)
                    got = exchangeable_optimum(n, p)
                    pair = (got.objective_exact, got.weights_exact)
                    assert pair == expected, (n, p, mode)

    def test_integer_closed_form_matches_fraction_oracle(self):
        # Every breakpoint j/(n-1), where k steps, and the midpoint of each
        # gap between two, from p = 0 to p = 1.
        for n in range(2, 81):
            for p in (Fraction(j, 2 * (n - 1)) for j in range(2 * n - 1)):
                expected = oracles.oracle_exchangeable_optimum(n, p)
                assert as_triple(exchangeable_optimum(n, p)) == expected, (n, p)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 200), p=st.floats(0.0, 1.0))
    def test_integer_closed_form_at_float_marginals(self, n, p):
        # A float p is read as Fraction(p), whose denominator is a power of
        # two up to 2^1074; the products grow with it and stay exact.
        expected = oracles.oracle_exchangeable_optimum(n, Fraction(p))
        assert as_triple(exchangeable_optimum(n, p)) == expected

    def test_reduction_soundness(self):
        # The HiGHS oracle reaches the certified optimum, and its witness is
        # a basic feasible joint (at most one atom per row): over the grid
        # up to n = 10, and at the sweep's marginal up to the cap.
        for n in range(2, FULL_VARIABLE_LIMIT + 1):
            grid = [Fraction(j, 10) for j in range(11)] if n <= 10 else []
            for p in dict.fromkeys(grid + [Fraction(1, n - 1)]):
                certified = full_optimum(n, p)
                assert certified == exchangeable_optimum(n, p)
                for mode in MODES:
                    full = solve(build_full_lp(n, p, mode))
                    assert_basic_optimum(full, certified.objective, n, p, mode, 1e-9)

    def test_negcov_never_above_equality(self):
        # HiGHS solves the two programs apart: the relaxation is never
        # above, and both reach the one certified optimum.
        for n in (3, 4, 6, 9):
            for p in (Fraction(1, n - 1), Fraction(2, 5)):
                eq, relaxed = (solve(build_full_lp(n, p, mode)) for mode in MODES)
                assert relaxed.objective <= eq.objective + 1e-9, (n, p)
                certified = full_optimum(n, p).objective
                assert abs(eq.objective - certified) <= 1e-9, (n, p)
                assert abs(relaxed.objective - certified) <= 1e-9, (n, p)


class TestWitnessRoundTrip:
    def test_expand_exchangeable_recovers_extremal(self):
        j = expand_exchangeable(3, [0.25, 0.0, 0.75, 0.0])
        expected = conjectured_extremal(3)
        assert j.masks == expected.masks
        for (_, got), (_, want) in zip(j.atoms, expected.atoms):
            assert got == pytest.approx(want, abs=1e-15)

    def test_round_trip_objective_and_independence(self):
        for n in (3, 4, 5, 8):
            solution = exchangeable_optimum(n, Fraction(1, n - 1))
            witness = expand_exchangeable(n, solution.weights_exact)
            assert prob_hit(witness) == pytest.approx(solution.objective, abs=1e-9)
            assert is_pairwise_independent(witness)
            assert witness.summary.max_abs_excess <= 1e-12

    def test_class_totals_survive_float_conversion(self):
        weights = [Fraction(1, 7), Fraction(2, 7), Fraction(4, 7), Fraction(0)]
        j = expand_exchangeable(3, weights)
        totals = oracles.oracle_exchangeable_weights(3, dict(j.atoms))
        for got, want in zip(totals, weights):
            assert got == pytest.approx(float(want), abs=1e-15)

    def test_three_hot_witness_at_n17_falls_below_the_constant(self):
        # p = 2/(n-1): Z is 0 or 3, and the 3-subsets spread exchangeably
        # make the law exactly pairwise independent.
        solution = exchangeable_optimum(17, Fraction(1, 8))
        support = {k: w for k, w in enumerate(solution.weights_exact) if w}
        assert support == {0: Fraction(7, 24), 3: Fraction(17, 24)}
        witness = expand_exchangeable(17, solution.weights_exact)
        assert len(witness.atoms) == 1 + math.comb(17, 3) == 681
        report = full_report(witness)
        assert report.universal_ok
        assert is_pairwise_independent(witness)
        assert witness.summary.max_abs_excess <= 1e-12
        ratio = report.M / report.M_tilde
        assert round(ratio, 6) == 0.789941 and ratio < CONJECTURED_LOWER_CONSTANT

    def test_m_hot_witnesses_pass_the_slack_rule(self):
        # At p = (m-1)/(n-1) the optimum puts its mass on Z in {0, m}: a
        # Paley-Zygmund equality case, exactly pairwise independent, whose
        # expanded law every rule-based test must pass.  Every (m-1)-th n up
        # to 40 and n = 40, 1 + C(40, 4) = 91,391 atoms at most.
        for m in (2, 3, 4):
            for n in (*range(m + 1, 40, m - 1), 40):
                weights = exchangeable_optimum(n, Fraction(m - 1, n - 1)).weights_exact
                assert {k for k, w in enumerate(weights) if w} <= {0, m}, (m, n)
                witness = expand_exchangeable(n, weights)
                assert is_pairwise_independent(witness), (m, n)
                assert main_lower_check(witness).applicable, (m, n)
                assert full_report(witness).universal_ok, (m, n)

    def test_atom_cap_is_checked_before_enumerating(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated masks past the cap")

        monkeypatch.setattr(constructions, "combinations", refuse)
        weights = [Fraction(0)] * 41
        weights[20] = Fraction(1)
        with pytest.raises(ValueError, match=f"{math.comb(40, 20)} atoms"):
            expand_exchangeable(40, weights)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expand_exchangeable(17, [0.0] * 18)
        with pytest.raises(ValueError):
            expand_exchangeable(3, [1.0])


class TestMinRatioAndSweep:
    def test_ratio_three_is_six_sevenths(self):
        (row,) = conjecture_sweep(3, 3, reduction="exchangeable")
        assert row["lp_ratio"] == pytest.approx(6 / 7, abs=1e-12)
        assert exchangeable_optimum(3, Fraction(1, 2)).objective_exact == Fraction(3, 4)

    def test_ratio_sandwich(self):
        for row in conjecture_sweep(3, 7, reduction="exchangeable"):
            n, ratio = row["n"], row["lp_ratio"]
            p = 1.0 / (n - 1)
            mtilde = prob_hit_independent(MarginalVector((p,) * n))
            construction = (0.5 + 0.5 / (n - 1)) / mtilde
            s = n * p
            pz = (s * s / (s + s * s)) / mtilde
            assert ratio >= max(pz, 0.5) - 1e-9
            assert ratio <= construction + 1e-12

    def test_sweep_rows(self):
        # A row holds exactly the columns `search` prints, in their order.
        rows = conjecture_sweep(3, 12, reduction="exchangeable")
        assert [row["n"] for row in rows] == list(range(3, 13))
        for row in rows:
            assert tuple(row) == ("n", "p", "mtilde", "lp_objective", "lp_ratio", "status")
            assert row["status"] == "optimal"
            assert row["lp_ratio"] >= 0.5 - 1e-9

    def test_sweep_mtilde_is_the_marginal_product(self):
        # The sweep multiplies 1 - p n times without building the marginal
        # vector; the product is the same, bit for bit.
        for row in conjecture_sweep(3, 600, reduction="exchangeable"):
            marginal = MarginalVector((row["p"],) * row["n"])
            assert row["mtilde"] == prob_hit_independent(marginal), row["n"]

    def test_sweep_objective_equals_paley_zygmund_floor(self):
        # At p = 1/(n-1) the moment constraints pin E[Z] = E[Z(Z-1)], so the
        # second-moment lower bound coincides with the candidate family and
        # the LP optimum lands exactly on n/(2(n-1)): the conjectured
        # family's value, on every row of the sweep and on both routes.
        for n in (3, 4, 10, 40):
            solution = exchangeable_optimum(n, Fraction(1, n - 1))
            assert solution.objective_exact == Fraction(n, 2 * (n - 1))
        for reduction in ("exchangeable", "full"):
            for row in conjecture_sweep(3, 3000, reduction=reduction):
                n = row["n"]
                assert row["lp_objective"] == n / (2 * (n - 1)), (reduction, n)

    def test_sweep_validates_range(self):
        for n_min, n_max, reduction in (
            (2, 5, "exchangeable"),
            (5, 4, "exchangeable"),
            (3, 5, "auto"),
        ):
            with pytest.raises(ValueError):
                conjecture_sweep(n_min, n_max, reduction=reduction)

    def test_sweep_factor_limit(self, monkeypatch):
        # The rows' n sum to the factors `_calibration_mtilde` multiplies.
        # The n = 3..3000 sweep is admitted; past the limit a sweep is
        # refused, on either route, before any row is made.
        assert sum(range(3, 3001)) <= optimize.SWEEP_FACTOR_LIMIT
        monkeypatch.setattr(optimize, "SWEEP_FACTOR_LIMIT", sum(range(3, 10)))
        calls = []
        real = optimize._calibration_mtilde
        monkeypatch.setattr(optimize, "_calibration_mtilde", lambda n: calls.append(n) or real(n))
        for reduction in ("exchangeable", "full"):
            assert len(conjecture_sweep(3, 9, reduction=reduction)) == 7
            calls.clear()
            for n_min, n_max in ((3, 10), (10, 10**12), (10**12, 10**12)):
                factors = (n_min + n_max) * (n_max - n_min + 1) // 2
                with pytest.raises(ValueError, match=f"multiplies {factors} factors .* past "
                                                     "the limit of 42 "):
                    conjecture_sweep(n_min, n_max, reduction=reduction)
            assert calls == []

    def test_sweep_objective_is_the_exchangeable_optimum(self):
        # The sweep's integer kernel gives the float of the Fraction route,
        # bit for bit.
        for row in conjecture_sweep(3, 600, reduction="exchangeable"):
            n = row["n"]
            expected = exchangeable_optimum(n, Fraction(1, n - 1)).objective
            assert row["lp_objective"] == expected, n

    def test_full_sweep_matches_exchangeable_rows(self):
        # Every row certified, far past 2^n atoms that could be enumerated.
        full = conjecture_sweep(3, 200, reduction="full")
        assert full == conjecture_sweep(3, 200, reduction="exchangeable")

    def test_full_sweep_certifies_every_row(self, monkeypatch):
        # Each row's integers go through the certificate, once per n, and a
        # dual built from k + 1 stops the sweep at its first row.
        real_fault, real_dual = optimize._certificate_fault, optimize._certificate_dual
        checked = []

        def counted(n, *args):
            checked.append(n)
            return real_fault(n, *args)

        with monkeypatch.context() as m:
            m.setattr(optimize, "_certificate_fault", counted)
            conjecture_sweep(3, 12, reduction="full")
        assert checked == list(range(3, 13))
        monkeypatch.setattr(optimize, "_certificate_dual", lambda k: real_dual(k + 1))
        with pytest.raises(InvariantError, match="n=3, p=1/2: dual objective"):
            conjecture_sweep(3, 12, reduction="full")


class TestNegativeCovarianceMode:
    def test_negcov_optimum_against_oracle_small(self):
        # Spot value: at n=3, p=1/2 both optima are 3/4; the relaxation
        # cannot go lower (see exchangeable_optimum).  The exact vertex
        # enumeration and HiGHS each solve the relaxed program apart.
        eq = exchangeable_optimum(3, Fraction(1, 2))
        certified = full_optimum(3, Fraction(1, 2))
        expected = oracles.oracle_lp_vertex_minimum(3, Fraction(1, 2), False)
        assert certified.objective_exact == expected == eq.objective_exact == Fraction(3, 4)
        relaxed = solve(build_full_lp(3, Fraction(1, 2), "negative_covariance"))
        assert relaxed.objective == pytest.approx(0.75, abs=1e-9)

    def test_full_witness_respects_covariance_cap(self):
        solution = solve(build_full_lp(4, 0.3, "negative_covariance"))
        joint = JointBernoulli(4, solution.witness_atoms)
        # witness satisfies constraints within solver tolerance only
        assert prob_hit(joint) == pytest.approx(solution.objective, abs=1e-7)


class TestColumnGeneration:
    def test_reduced_costs_match_full_matrix(self):
        # The closed-form pricing against c - A^T y over the full CSR, on
        # random duals; the scale bounds the rounding of either sum.
        rng = np.random.default_rng(16)
        for n in range(1, FULL_VARIABLE_LIMIT + 1):
            for mode in MODES:
                lp = build_full_lp(n, Fraction(1, 3), mode)
                y = rng.normal(size=1 + n + math.comb(n, 2))
                y_eq, y_ub = y[: lp.b_eq.size], y[lp.b_eq.size :]
                expected = lp.c - lp.a_eq.T @ y_eq
                if lp.a_ub is not None:
                    expected -= lp.a_ub.T @ y_ub
                scale = 1.0 + np.abs(y).sum()
                got = highs_lp._reduced_costs(n, lp.c, y)
                assert got.shape == expected.shape, (n, mode)
                assert np.abs(got - expected).max() <= 1e-12 * scale, (n, mode)

    def test_zero_marginal_needs_no_solver(self, linprog_columns):
        # At p = 0 the zero atom is the only feasible point.
        for n in range(1, FULL_VARIABLE_LIMIT + 1):
            for mode in MODES:
                solution = solve(build_full_lp(n, 0, mode))
                assert solution.status == "optimal", (n, mode)
                assert solution.objective == 0.0, (n, mode)
                assert solution.witness_atoms == {0: 1.0}, (n, mode)
        assert linprog_columns == []

    def test_solve_builds_no_full_matrix(self):
        # The masters and the pricing stay far below the 2^16-column
        # program, whose float CSR alone takes about 54 MB.
        solve(build_full_lp(4, Fraction(1, 3)))  # scipy imported untraced
        tracemalloc.start()
        try:
            solution = solve(build_full_lp(FULL_VARIABLE_LIMIT, Fraction(1, 15)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solution.status == "optimal"
        assert peak < 16_000_000, peak

    def test_infeasible_seed_widens_to_every_atom(self, monkeypatch, linprog_columns):
        # The zero atom alone leaves every marginal row empty, so HiGHS
        # never sees that master; the zero and full atoms touch every row
        # but cannot meet p on a marginal and p^2 on a pair at once, so
        # HiGHS does.
        for n in range(4, 9):
            for seed, calls in (([0], [1 << n]), ([0, (1 << n) - 1], [2, 1 << n])):
                for p in (Fraction(3, 10), Fraction(1, 2)):
                    for mode in MODES:
                        lp = build_full_lp(n, p, mode)
                        expected = solve(lp)
                        with monkeypatch.context() as patch:
                            patch.setattr(highs_lp, "seed_columns", lambda lp: np.array(seed))
                            linprog_columns.clear()
                            widened = solve(lp)
                        case = (n, seed, p, mode)
                        assert linprog_columns == calls, case
                        assert_basic_optimum(widened, expected.objective, n, p, mode, 1e-12)

    def test_seed_master_is_solved_once(self, linprog_columns):
        # At the sweep's marginal k = 2, so the seed is Hamming weights 0..3.
        # Elsewhere the round count rests on which optimal duals HiGHS
        # returns; test_reduction_soundness checks the answer there.
        for n in range(3, 13):
            p = Fraction(1, n - 1)
            for mode in MODES:
                linprog_columns.clear()
                solution = solve(build_full_lp(n, p, mode))
                case = (n, mode, linprog_columns)
                assert solution.status == "optimal", case
                assert len(linprog_columns) == 1, case
                assert linprog_columns[0] <= sum(math.comb(n, k) for k in range(4)), case


def verdict(n, p, closed, masses):
    """`optimize._certificate_fault` at p, asserted equal, message for
    message, to the same certificate checked atom by atom."""
    a, b = p.numerator, p.denominator
    fault = optimize._certificate_fault(n, a, b, closed, masses)
    assert highs_lp.atom_certificate_fault(n, a, b, closed, masses) == fault, (n, p, closed)
    return fault


def over_lcm(n, p, support):
    """A witness of Fraction weights and the closed form at n, p, over one
    scale: the lcm of the weights' denominators and the closed form's
    scale, as `_certificate_fault` reads them."""
    k, at_k, above_k, scale = closed_form(n, p)
    common = math.lcm(scale, *(w.denominator for w in support.values()))
    masses = {z: w.numerator * (common // w.denominator) for z, w in support.items()}
    factor = common // scale
    return (k, at_k * factor, above_k * factor, common), masses


class TestCertificate:
    def test_certificate_holds_exactly(self):
        # Dual objective b . y, the closed form and 1 - w_0 are one
        # Fraction, with the dual's sign right for the <= rows, on every
        # grid point up to the oracle's cap: p in {0, j/10, 1/(n-1),
        # 2/(n-1), 1}; past it, at n = 18 and 20, on p in {3/10, 1/2,
        # 1/(n-1), 2/(n-1)}.  Everywhere it is the exchangeable optimum.
        for n in [*range(2, FULL_VARIABLE_LIMIT + 1), 18, 20]:
            pairs = math.comb(n, 2)
            if n <= FULL_VARIABLE_LIMIT:
                grid = [Fraction(j, 10) for j in range(11)]
            else:
                grid = [Fraction(3, 10), Fraction(1, 2)]
            for p in dict.fromkeys(grid + [Fraction(1, n - 1), min(Fraction(2, n - 1), 1)]):
                (y0, y1, y2), scale = optimize._certificate_dual(closed_form_k(n, p))
                assert all(type(y) is int for y in (y0, y1, y2, scale))
                dual_objective = (y0 + p * n * y1 + p * p * pairs * y2) / Fraction(scale)
                assert y2 <= 0
                solution = full_optimum(n, p)
                case = (n, p)
                assert solution == exchangeable_optimum(n, p), case
                assert solution.objective_exact == dual_objective, case
                assert solution.objective_exact == 1 - solution.weights_exact[0], case
                assert solution.objective == float(dual_objective), case

    def test_class_level_matches_atom_level(self):
        # The certificate over the n + 1 classes holds where the same dual
        # and witness hold over every atom and every row: at every
        # p = j/d with d <= n + 1 up to n = 14, and at n = 18 and 20 on
        # p in {3/10, 1/2, 1/(n-1), 2/(n-1)}.
        cases = [(n, Fraction(j, d)) for n in range(2, 15)
                 for d in range(1, n + 2) for j in range(d + 1)]
        cases += [(n, p) for n in (18, 20)
                  for p in (Fraction(3, 10), Fraction(1, 2), Fraction(1, n - 1), Fraction(2, n - 1))]
        for n, p in dict.fromkeys(cases):
            assert verdict(n, p, *certificate(n, p)) is None, (n, p)

    def test_certificate_runs_at_any_n(self):
        # No 2^n array and no charge: past any n whose atoms could be
        # enumerated, in a few big-integer operations and well under 1 MB.
        # At n = 10^12 and p = 1/2 the support's k is 5 * 10^11.
        full_optimum(3, Fraction(1, 2))  # the first call's imports, untraced
        for n in (26, 40, 10**12):
            for p in (Fraction(1, n - 1), Fraction(1, 2)):
                gc.collect()
                tracemalloc.start()
                try:
                    expected = exchangeable_optimum(n, p)
                    certified = full_optimum(n, p)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert certified == expected, (n, p)
                assert peak < 1_000_000, (n, p, peak)

    def test_reduced_costs_match_loop_oracle(self):
        # Bit for bit against one Python sum per atom in the same order:
        # y_0, then for each bit b in ascending order y_b and then the pair
        # duals y_ib of the lower bits i, summed from zero.
        rng = np.random.default_rng(23)
        for n in range(1, 11):
            rows = 1 + n + math.comb(n, 2)
            pair = dict(zip(zip(*np.triu_indices(n, 1)), range(1 + n, rows)))
            for duals in (
                rng.integers(-(10**6), 10**6, size=rows),
                rng.normal(size=rows) * 10.0 ** rng.integers(-3, 4, size=rows),
            ):
                c = rng.permutation(1 << n).astype(duals.dtype)
                got = highs_lp._reduced_costs(n, c, duals)
                assert got.dtype == duals.dtype, n
                y = duals.tolist()
                zero = type(y[0])(0)
                expected = []
                for mask in range(1 << n):
                    bits = [b for b in range(n) if mask >> b & 1]
                    total = y[0]
                    for b in bits:
                        link = zero
                        for i in bits:
                            if i < b:
                                link += y[pair[i, b]]
                        total = total + y[1 + b] + link
                    expected.append(c[mask].item() - total)
                assert got.tolist() == expected, (n, duals.dtype)

    def test_reduced_costs_are_integer_parabola(self):
        # Scaled by k(k+1), the atom of weight z >= 1 costs (z-k)(z-k-1) and
        # the zero atom 0: zero only on the closed form's support.
        for n in range(1, FULL_VARIABLE_LIMIT + 1):
            weight = np.array([bin(mask).count("1") for mask in range(1 << n)])
            assert highs_lp._hamming_weights(n).tolist() == weight.tolist()
            for k in range(1, n + 1):
                duals, scale = highs_lp.atom_duals(n, k)
                c = np.where(weight > 0, scale, 0)
                reduced = highs_lp._reduced_costs(n, c, duals)
                assert reduced.dtype == np.int64
                expected = np.where(weight > 0, (weight - k) * (weight - k - 1), 0)
                assert reduced.tolist() == expected.tolist(), (n, k)

    def test_zero_marginal_dual_is_zero(self):
        for n in (2, 9, FULL_VARIABLE_LIMIT):
            assert closed_form_k(n, Fraction(0)) == 0
            assert optimize._certificate_dual(0) == ((0, 0, 0), 1)
            assert full_optimum(n, 0).weights_exact[0] == 1

    def cases(self):
        for n in (2, 3, 5, 8, 12):
            for p in (Fraction(1, n - 1), Fraction(3, 10), Fraction(1, 2), Fraction(1)):
                yield n, p, exchangeable_optimum(n, p)

    def test_dual_from_k_plus_one_fails(self):
        # Still dual feasible ((z-k-1)(z-k-2) >= 0), but its objective is
        # below the optimum, so the certificate proves nothing.
        for n, p, _ in self.cases():
            (k, *rest), masses = certificate(n, p)
            assert verdict(n, p, (k, *rest), masses) is None
            fault = verdict(n, p, (k + 1, *rest), masses)
            assert fault is not None and fault.startswith("dual objective"), (n, p)

    def test_moved_witness_weight_fails(self):
        # Weight taken off a class breaks the mass row, weight moved one
        # class down a marginal row, weight moved to class n + 1 or made
        # negative leaves the witness no law on the classes 0..n, and
        # weight spread over {0, k, k + 1} can lower the pair row alone.
        delta = Fraction(1, 10**6)
        off_classes = "a witness weight is negative or off the classes 0..n"
        below = 0
        for n, p, solution in self.cases():
            k = closed_form_k(n, p)
            support = solution.support
            z = max(support, key=support.get)
            for moved, start in ((None, "a mass row"), (z - 1 if z else 1, "a marginal row"),
                                 (n + 1, off_classes)):
                shifted = dict(support)
                shifted[z] -= delta
                if moved is not None:
                    shifted[moved] = shifted.get(moved, 0) + delta  # the mass row still holds
                fault = verdict(n, p, *over_lcm(n, p, shifted))
                assert fault is not None and fault.startswith(start), (n, p, moved)
            negative = {**support, z: -support[z]}
            assert verdict(n, p, *over_lcm(n, p, negative)) == off_classes, (n, p)
            if support.get(0) and support.get(k + 1):
                # The pair row met from below, the mass and marginal rows
                # exactly: a <= row would take it, the one certificate
                # needs every row met exactly.
                lowered = {**support, 0: support[0] - delta, k: support[k] + (k + 1) * delta,
                           k + 1: support[k + 1] - k * delta}
                fault = verdict(n, p, *over_lcm(n, p, lowered))
                assert fault is not None and fault.startswith("a pair row"), (n, p)
                below += 1
        assert below > 0

    def test_integer_mass_mutants_fail(self):
        # The witness as the certificate reads it, integer masses over one
        # scale, off by one unit: moved from class k to class k + 1 (the
        # mass row holds, the marginal row is one unit over, unless k + 1
        # is past n), taken off class 0 (one unit short of the mass, or
        # negative where class 0 holds none), or the scale doubled with the
        # masses kept (half the mass).
        off_classes = "a witness weight is negative or off the classes 0..n"
        for n, p, _ in self.cases():
            closed, masses = certificate(n, p)
            k, at_k, above_k, scale = closed
            up = {**masses, k: masses[k] - 1, k + 1: masses.get(k + 1, 0) + 1}
            assert verdict(n, p, closed, up).startswith(
                "a marginal row" if k < n else off_classes), (n, p)
            short = {**masses, 0: masses.get(0, 0) - 1}
            assert verdict(n, p, closed, short).startswith(
                "a mass row" if 0 in masses else off_classes), (n, p)
            doubled = (k, at_k, above_k, 2 * scale)
            assert verdict(n, p, doubled, masses) == "a mass row sums to 1/2, not 1", (n, p)

    def test_certificate_builds_no_fraction(self):
        # A certificate that holds runs no line of the fractions module:
        # no Fraction is made, read or compared.
        inputs = [(n, p.numerator, p.denominator, *certificate(n, p)) for n, p, _ in self.cases()]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == fractions.__file__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            verdicts = [optimize._certificate_fault(*args) for args in inputs]
        finally:
            sys.setprofile(None)
        assert verdicts == [None] * len(inputs)
        assert calls == []

    def test_dropped_pair_row_fails(self, monkeypatch):
        # Either side: a dual that puts no multiplier on the pair rows
        # prices the atoms of weight k + 1 (or n) below zero, and a row
        # builder that loses the last pair row no longer describes the
        # program the atom-level check counts.
        real_dual, real_rows = optimize._certificate_dual, highs_lp._constraint_rows

        def dual_without_pairs(k):
            (y0, y1, _), scale = real_dual(k)
            return (y0, y1, 0), scale

        with monkeypatch.context() as m:
            m.setattr(optimize, "_certificate_dual", dual_without_pairs)
            for n, p, _ in self.cases():
                fault = verdict(n, p, *certificate(n, p))
                assert fault is not None and "has reduced cost" in fault, (n, p, fault)
                with pytest.raises(InvariantError, match=f"n={n}, p={p}: an atom of weight"):
                    full_optimum(n, p)
        monkeypatch.setattr(highs_lp, "_constraint_rows", lambda n, masks: real_rows(n, masks)[:-1])
        for n, p, _ in self.cases():
            fault = highs_lp.atom_certificate_fault(n, p.numerator, p.denominator,
                                                    *certificate(n, p))
            assert fault is not None and "the program has" in fault, (n, p, fault)

    def test_negcov_needs_nonpositive_pair_duals(self, monkeypatch):
        # A positive pair dual this small keeps every reduced cost >= 0,
        # but it is no dual of the relaxation, whose pair rows are <= rows,
        # so the one certificate fails on its sign.
        monkeypatch.setattr(optimize, "_certificate_dual", lambda k: ((0, 0, 1), 10**6))
        p = Fraction(1, 3)
        assert verdict(4, p, *certificate(4, p)) == "a pair row's dual is positive"
        with pytest.raises(InvariantError, match="n=4, p=1/3: a pair row's dual is positive"):
            full_optimum(4, p)

"""Unit tests of the exact simplex test oracle, including a randomized
cross-check against scipy's HiGHS solver."""

from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from exact_simplex import solve_exact


class TestKnownPrograms:
    def test_two_inequalities(self):
        # max x + y st x + 2y <= 4, 3x + y <= 6 -> (8/5, 6/5), value 14/5
        status, x, value = solve_exact(
            [1, 1], ub_constraints=[([1, 2], 4), ([3, 1], 6)]
        )
        assert status == "optimal"
        assert x == (Fraction(8, 5), Fraction(6, 5))
        assert value == Fraction(14, 5)

    def test_equality_pins_solution(self):
        status, x, value = solve_exact(
            [0, 1], eq_constraints=[([1, 1], 1), ([1, -1], 0)]
        )
        assert status == "optimal"
        assert x == (Fraction(1, 2), Fraction(1, 2))
        assert value == Fraction(1, 2)

    def test_infeasible(self):
        status, x, value = solve_exact([1], eq_constraints=[([1], -1)])
        assert status == "infeasible"
        assert x is None and value is None

    def test_contradictory_equalities(self):
        status, _, _ = solve_exact(
            [1, 1], eq_constraints=[([1, 1], 1), ([1, 1], 2)]
        )
        assert status == "infeasible"

    def test_unbounded(self):
        status, _, _ = solve_exact([1, 0], ub_constraints=[([0, 1], 1)])
        assert status == "unbounded"

    def test_redundant_constraint_dropped(self):
        status, x, value = solve_exact(
            [1, 1],
            eq_constraints=[([1, 1], 1), ([2, 2], 2)],  # second row redundant
        )
        assert status == "optimal"
        assert value == 1

    def test_degenerate_vertex_terminates(self):
        # Several constraints meet at the optimum; Bland's rule must exit.
        status, _, value = solve_exact(
            [1, 1, 0],
            ub_constraints=[([1, 0, 0], 1), ([0, 1, 0], 1), ([1, 1, 0], 2)],
        )
        assert status == "optimal"
        assert value == 2

    def test_fractional_inputs(self):
        status, x, value = solve_exact(
            [Fraction(1, 3)], eq_constraints=[([Fraction(2, 7)], Fraction(4, 5))]
        )
        assert status == "optimal"
        assert x == (Fraction(14, 5),)
        assert value == Fraction(14, 15)


class TestScipyCrossCheck:
    def test_random_bounded_programs(self):
        rng = np.random.default_rng(7)
        agreements = 0
        for _ in range(120):
            nvars = int(rng.integers(1, 6))
            n_eq = int(rng.integers(0, 3))
            n_ub = int(rng.integers(0, 4))
            c = rng.integers(-4, 5, size=nvars)
            eq = [
                (rng.integers(-3, 4, size=nvars), rng.integers(0, 5))
                for _ in range(n_eq)
            ]
            ub = [
                (rng.integers(-3, 4, size=nvars), rng.integers(0, 5))
                for _ in range(n_ub)
            ]
            # A box keeps every instance bounded so statuses can only be
            # optimal or infeasible.
            ub.append((np.ones(nvars, dtype=int), 10))

            status, x, value = solve_exact(
                [int(v) for v in c],
                eq_constraints=[([int(v) for v in row], int(b)) for row, b in eq],
                ub_constraints=[([int(v) for v in row], int(b)) for row, b in ub],
            )

            res = linprog(
                -c.astype(float),
                A_eq=np.array([row for row, _ in eq], dtype=float) if eq else None,
                b_eq=np.array([b for _, b in eq], dtype=float) if eq else None,
                A_ub=np.array([row for row, _ in ub], dtype=float),
                b_ub=np.array([b for _, b in ub], dtype=float),
                bounds=(0, None),
                method="highs",
            )
            if res.status == 2:
                assert status == "infeasible"
            else:
                assert res.status == 0
                assert status == "optimal"
                assert abs(float(value) - (-res.fun)) < 1e-7
                agreements += 1
        assert agreements > 30  # most random instances should be feasible


class TestSolutionValidity:
    def test_solution_satisfies_constraints_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            nvars = int(rng.integers(2, 6))
            eq = [([int(v) for v in rng.integers(-2, 4, size=nvars)], int(rng.integers(0, 4)))]
            ub = [([int(v) for v in rng.integers(-2, 4, size=nvars)], int(rng.integers(1, 6)))]
            ub.append(([1] * nvars, 8))
            status, x, _ = solve_exact(
                [int(v) for v in rng.integers(-3, 4, size=nvars)],
                eq_constraints=eq,
                ub_constraints=ub,
            )
            if status != "optimal":
                continue
            for coeffs, b in eq:
                assert sum(Fraction(a) * v for a, v in zip(coeffs, x)) == b
            for coeffs, b in ub:
                assert sum(Fraction(a) * v for a, v in zip(coeffs, x)) <= b
            assert all(v >= 0 for v in x)

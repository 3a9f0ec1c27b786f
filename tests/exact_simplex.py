"""Tiny exact linear-program solver over rational arithmetic, kept as a
test oracle.

Two-phase tableau simplex with Bland's rule, every entry a
`fractions.Fraction`.  Intended for small dense programs (a handful of
constraints, up to a few thousand variables) where the optimum must be free
of solver tolerance: Bland's rule guarantees termination and the rational
arithmetic makes the returned optimum exact, so the tests compare it with
the package's closed-form exchangeable optimum by equality instead of a
tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

Row = Sequence[float | int | Fraction]


class ExactLpResult(NamedTuple):
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    value: Fraction | None  # maximum of the objective


def solve_exact(
    objective: Row,
    eq_constraints: Sequence[tuple[Row, float | int | Fraction]] = (),
    ub_constraints: Sequence[tuple[Row, float | int | Fraction]] = (),
) -> ExactLpResult:
    """Maximize objective . x subject to Ax = b, Gx <= h, x >= 0."""
    nvars = len(objective)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    n_ub = len(ub_constraints)

    for coeffs, b in eq_constraints:
        row = [Fraction(c) for c in coeffs]
        if len(row) != nvars:
            raise ValueError("constraint length does not match objective")
        row.extend([Fraction(0)] * n_ub)
        rows.append(row)
        rhs.append(Fraction(b))
    for k, (coeffs, b) in enumerate(ub_constraints):
        row = [Fraction(c) for c in coeffs]
        if len(row) != nvars:
            raise ValueError("constraint length does not match objective")
        slack = [Fraction(0)] * n_ub
        slack[k] = Fraction(1)
        row.extend(slack)
        rows.append(row)
        rhs.append(Fraction(b))

    m = len(rows)
    if m == 0:
        raise ValueError("need at least one constraint")
    # Flip rows with negative right-hand sides so artificials start feasible.
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-c for c in rows[i]]
            rhs[i] = -rhs[i]

    n_struct = nvars + n_ub
    ncols = n_struct + m  # one artificial per row
    tableau = []
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(rows[i] + art + [rhs[i]])
    basis = list(range(n_struct, n_struct + m))

    # Phase 1: minimize the artificial total, expressed with reduced costs
    # already adjusted for the artificial basis.
    cost = [Fraction(0)] * (ncols + 1)
    for j in range(n_struct):
        cost[j] = -sum(tableau[i][j] for i in range(m))
    cost[ncols] = -sum(tableau[i][ncols] for i in range(m))
    tableau.append(cost)

    status = _run_simplex(tableau, basis, m, ncols)
    if status != "optimal":  # phase 1 is always bounded below by 0
        raise RuntimeError("phase 1 terminated abnormally")
    if -tableau[m][ncols] > 0:
        return ExactLpResult("infeasible", None, None)

    # Drive leftover artificials out of the basis; a row with no structural
    # pivot available is redundant and gets dropped.
    drop_rows = []
    for i in range(m):
        if basis[i] >= n_struct:
            pivot_col = next(
                (j for j in range(n_struct) if tableau[i][j] != 0), None
            )
            if pivot_col is None:
                drop_rows.append(i)
            else:
                _pivot(tableau, basis, i, pivot_col)
    for i in sorted(drop_rows, reverse=True):
        del tableau[i]
        del basis[i]
    m = len(basis)

    # Strip artificial columns, rebuild the cost row for the real objective.
    obj = [Fraction(c) for c in objective] + [Fraction(0)] * n_ub
    for i in range(m):
        tableau[i] = tableau[i][:n_struct] + [tableau[i][-1]]
    cost = [Fraction(0)] * (n_struct + 1)
    for j in range(n_struct):
        # minimize -objective: c_j - sum over basic rows of c_basic * a_ij
        cost[j] = -obj[j] + sum(obj[basis[i]] * tableau[i][j] for i in range(m))
    cost[n_struct] = sum(obj[basis[i]] * tableau[i][n_struct] for i in range(m))
    tableau[m:] = [cost]

    status = _run_simplex(tableau, basis, m, n_struct)
    if status == "unbounded":
        return ExactLpResult("unbounded", None, None)

    x = [Fraction(0)] * nvars
    for i in range(m):
        if basis[i] < nvars:
            x[basis[i]] = tableau[i][n_struct]
    value = sum(Fraction(objective[j]) * x[j] for j in range(nvars))
    return ExactLpResult("optimal", tuple(x), value)


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], m: int, ncols: int) -> str:
    """Pivot to optimality with Bland's anti-cycling rule."""
    while True:
        cost = tableau[m]  # _pivot rebinds rows, so re-read each iteration
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        leave = None
        best: Fraction | None = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][ncols] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tableau, basis, leave, enter)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot = tableau[row][col]
    tableau[row] = [c / pivot for c in tableau[row]]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            factor = other[col]
            tableau[i] = [c - factor * p for c, p in zip(other, tableau[row])]
    basis[row] = col

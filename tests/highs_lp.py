"""The atom-level search program in floating point, solved by HiGHS, kept
as a test oracle.

`optimize.full_optimum` proves the closed form optimal for the program
over all 2^n atoms by an exact duality certificate.  This module solves
the same program independently: a float LP handed to scipy's HiGHS by
column generation, with its own witness, so the tests can compare the two
routes.  It shares only the row builder (`optimize._constraint_rows`), the
closed-form pricing (`optimize._reduced_costs`), the Hamming weights
(`optimize._hamming_weights`) and the seed's k with the package, and the
tests check the first three against per-mask computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from maxdecouple import optimize
from maxdecouple.optimize import _check_common, _check_mode

# The largest n the oracle builds: `ExtremalLp` materializes all 2^n
# columns as float CSR (about 54 MB at n = 16), and the tests compare the
# package against it up to here.
FULL_VARIABLE_LIMIT = 16

# Witness atoms below this are dropped as solver dust.  Crossover returns a
# basic solution, so every atom off the basis is zero up to rounding; the
# solver's primal feasibility tolerance (1e-7) is far coarser than this.
WITNESS_ATOM_FLOOR = 1e-15

# An atom whose reduced cost is below -PRICING_TOLERANCE enters the
# restricted master in `solve`: HiGHS's dual feasibility tolerance, the one
# it applies to the full program.
PRICING_TOLERANCE = 1e-7


@dataclass(frozen=True, eq=False)
class ExtremalLp:
    """Atom-level formulation: minimize c @ q over q >= 0, a_eq @ q = b_eq,
    a_ub @ q <= b_ub.  The 2^n-column matrices are built as float CSR on
    first read; `solve` never reads them."""

    n: int
    p: Fraction
    mode: str
    c: np.ndarray
    b_eq: np.ndarray
    b_ub: np.ndarray | None

    @cached_property
    def a_eq(self) -> sparse.csr_matrix:
        return self._matrix(slice(self.b_eq.size))

    @cached_property
    def a_ub(self) -> sparse.csr_matrix | None:
        return None if self.b_ub is None else self._matrix(slice(self.b_eq.size, None))

    def _matrix(self, which: slice) -> sparse.csr_matrix:
        rows = optimize._constraint_rows(self.n, np.arange(1 << self.n))[which]
        return sparse.csr_matrix(rows).astype(np.float64)


@dataclass(frozen=True)
class HighsSolution:
    status: str  # "optimal" | "infeasible"
    objective: float | None
    witness_atoms: dict[int, float] | None = None


def build_full_lp(
    n: int, p: Fraction | float, mode: str = "pairwise_equality"
) -> ExtremalLp:
    """Atom-level LP: q_x >= 0, sum q = 1, marginals p, pair moments p^2.

    Pair moments are equalities in pairwise_equality mode and upper bounds
    in negative_covariance mode (a relaxation, so its optimum can only be
    lower).  Objective: minimize the mass off the zero atom.
    """
    _check_mode(mode)
    p = _check_common(n, p)
    if n > FULL_VARIABLE_LIMIT:
        raise ValueError(
            f"full reduction enumerates 2^n atoms; n={n} exceeds {FULL_VARIABLE_LIMIT}"
        )
    pairs = n * (n - 1) // 2
    b = np.concatenate([[1.0], np.full(n, float(p)), np.full(pairs, float(p * p))])
    c = np.ones(1 << n)
    c[0] = 0.0
    if mode == "pairwise_equality":
        return ExtremalLp(n, p, mode, c, b_eq=b, b_ub=None)
    return ExtremalLp(n, p, mode, c, b_eq=b[: 1 + n], b_ub=b[1 + n :])


def seed_columns(lp: ExtremalLp) -> np.ndarray:
    """Masks of Hamming weight 0, k - 1, k and k + 1, where k is the closed
    form's k (see `optimize.exchangeable_optimum`)."""
    k = optimize._closed_form_k(lp.n, lp.p)
    weight = optimize._hamming_weights(lp.n).astype(np.int64)  # uint8 would wrap below k
    return np.flatnonzero((weight == 0) | (abs(weight - k) <= 1))


def solve(lp: ExtremalLp) -> HighsSolution:
    """Solve the atom-level LP with HiGHS by column generation; witness
    atoms below WITNESS_ATOM_FLOOR are dropped.

    At p = 0 the zero atom is the only feasible point, returned unsolved.
    Otherwise a basic optimum has at most 1 + n + n(n-1)/2 atoms, so HiGHS
    need not see all 2^n columns.  It solves a restricted master, dense
    rows from `_constraint_rows` over the atoms of `seed_columns`.  The
    master's duals price all 2^n atoms in closed form (`_reduced_costs`).
    Every atom whose reduced cost is below -PRICING_TOLERANCE enters, and
    the master is solved again, until none prices out.  A master that is
    infeasible, or that HiGHS cannot solve to optimality, widens to all
    atoms, so the answer never rests on the closed form; only the speed
    does.

    Each master is solved by interior point with crossover, presolve off,
    so the witness is basic: at most one atom per row.  The objective is
    the correctly rounded sum of the primal masses off the zero atom
    (`math.fsum`), the P(Z > 0) of the returned point.
    """
    if lp.p == 0:
        return HighsSolution(status="optimal", objective=0.0, witness_atoms={0: 1.0})
    size, n_eq = lp.c.size, lp.b_eq.size
    columns = seed_columns(lp)
    while True:
        rows = optimize._constraint_rows(lp.n, columns)
        cost, a_eq = lp.c[columns], rows[:n_eq]
        # An equality row that no column touches cannot meet its nonzero
        # right-hand side.  HiGHS's interior point, presolve off, can
        # iterate on such a master without end instead of calling it
        # infeasible, so it is never handed one.
        if columns.size < size and lp.b_eq[~a_eq.any(axis=1)].any():
            columns = np.arange(size)
            continue
        res = linprog(
            cost,
            A_ub=None if lp.b_ub is None else rows[n_eq:],
            b_ub=lp.b_ub,
            A_eq=a_eq,
            b_eq=lp.b_eq,
            bounds=(0, None),
            method="highs-ipm",
            options={"presolve": False},
        )
        if columns.size < size and res.status != 0:
            # Infeasible, or HiGHS could not settle it: widen to every atom.
            columns = np.arange(size)
            continue
        if res.status == 2:
            return HighsSolution(status="infeasible", objective=None)
        if res.status != 0:
            raise RuntimeError(f"full LP solver failed: {res.message}")
        duals = np.concatenate([res.eqlin.marginals, res.ineqlin.marginals])
        reduced = optimize._reduced_costs(lp.n, lp.c, duals)
        reduced[columns] = 0.0
        entering = np.flatnonzero(reduced < -PRICING_TOLERANCE)
        if entering.size == 0:
            break
        columns = np.union1d(columns, entering)
    atoms = {
        int(mask): float(q)
        for mask, q in zip(columns, res.x)
        if q > WITNESS_ATOM_FLOOR
    }
    objective = math.fsum(cost * res.x)
    return HighsSolution(status="optimal", objective=objective, witness_atoms=atoms)

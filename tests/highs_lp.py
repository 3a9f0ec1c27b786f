"""The atom-level search program, kept as a test oracle: a floating-point
solve by HiGHS and an exact certificate checked atom by atom.

`optimize.full_optimum` proves the closed form optimal for the program
over all 2^n atoms by an exact duality certificate, checked over the
n + 1 Hamming-weight classes.  This module works on the atoms
themselves, so the tests can compare the two:
- the same program as a float LP handed to scipy's HiGHS by column
  generation, with its own witness (`build_full_lp`, `solve`);
- the same certificate, the package's dual and the witness's integer
  masses over one scale checked over every atom and every row
  (`atom_certificate_fault`).
Both rest on the row builder (`_constraint_rows`), the closed-form pricing
(`_reduced_costs`) and the Hamming weights (`_hamming_weights`), which
the tests check against per-mask computations.  They share only the
closed form, its k and its dual with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from maxdecouple import optimize

# The two pairwise programs: pair moments equal to p^2, and at most p^2.
MODES = ("pairwise_equality", "negative_covariance")

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


@cache
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(n, 1)`, the pair rows' order, computed once per n."""
    first, second = np.triu_indices(n, 1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def _constraint_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """The atom-level program's 0/1 rows over the atoms `masks`, a boolean
    (1 + n + C(n, 2)) x len(masks) array: row 0 sums the mass, row 1 + i
    the atoms with bit i set, then the pair rows in `np.triu_indices`
    order, each the atoms with both bits set.  The rows are filled in
    place: the bits are unpacked from the masks' little-endian bytes, and
    each pair row is a copy of its first bit's row ANDed with its
    second's, whose gathered copy is the one temporary as large as the
    pair rows."""
    rows = np.empty((1 + n + n * (n - 1) // 2, masks.size), dtype=bool)
    rows[0] = True
    bits, pairs = rows[1 : 1 + n], rows[1 + n :]
    octets = np.ascontiguousarray(masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
    bits[...] = np.unpackbits(octets.T, axis=0, count=n, bitorder="little")
    first, second = _pair_indices(n)
    np.take(bits, first, axis=0, out=pairs, mode="clip")
    pairs &= bits[second]
    return rows


def _reduced_costs(n: int, c: np.ndarray, duals: np.ndarray) -> np.ndarray:
    """c - A^T y over all 2^n atoms, for duals y in `_constraint_rows` order,
    in closed form: c_x - y_0 - sum_{i in x} y_i - sum_{i<j in x} y_ij,
    with the sums in the duals' dtype.  The sums extend one bit at a time,
    with no BLAS call: the mask r + 2^b, r below 2^b, adds y_b and then
    link_b(r) to the sum of r, where link_j(r) = sum_{i in r} y_ij.  So
    one 2^n array of totals is filled in place, its upper half from its
    lower half, bit by bit; an atom's sum starts at y_0 and adds, for its
    bits b in ascending order, y_b and then link_b, each link summed over
    i in ascending order.  The links of the bits j > b extend the same
    way, all at once, by one concatenation a bit, so at most 2^(n-1)
    links are held."""
    pair = np.zeros((n, n), dtype=duals.dtype)
    pair[_pair_indices(n)] = duals[1 + n :]
    total = np.empty(1 << n, dtype=duals.dtype)
    total[0] = duals[0]
    link = np.zeros((n, 1), dtype=duals.dtype)  # row j - b holds link_j
    for b in range(n):
        upper = total[1 << b : 2 << b]
        np.add(total[: 1 << b], duals[1 + b], out=upper)
        np.add(upper, link[0], out=upper)
        link = np.concatenate([link[1:], link[1:] + pair[b, b + 1 :, None]], axis=1)
    return c - total


def _hamming_weights(n: int) -> np.ndarray:
    """The Hamming weight of every mask 0 .. 2^n - 1, a byte each (n < 256)."""
    # The masks 2^b .. 2^(b+1) - 1 weigh one more than the masks below 2^b.
    weight = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        np.add(weight[: 1 << b], 1, out=weight[1 << b : 2 << b])
    return weight


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
        rows = _constraint_rows(self.n, np.arange(1 << self.n))[which]
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
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if n < 1 or not 0 <= p <= 1:
        raise ValueError(f"need n >= 1 and p in [0, 1], got n={n}, p={p}")
    p = Fraction(p)
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
    k = optimize._closed_form(lp.n, lp.p.numerator, lp.p.denominator)[0]
    weight = _hamming_weights(lp.n).astype(np.int64)  # uint8 would wrap below k
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
        rows = _constraint_rows(lp.n, columns)
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
        reduced = _reduced_costs(lp.n, lp.c, duals)
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


def atom_duals(n: int, k: int) -> tuple[np.ndarray, int]:
    """`optimize._certificate_dual(k)` spread over the program's rows in
    `_constraint_rows` order, as (int64 duals, scale)."""
    (y0, y1, y2), scale = optimize._certificate_dual(k)
    return np.repeat(np.int64([y0, y1, y2]), [1, n, n * (n - 1) // 2]), scale


def atom_certificate_fault(
    n: int, a: int, b: int, closed: tuple[int, int, int, int], masses: dict[int, int]
) -> str | None:
    """`optimize._certificate_fault` checked atom by atom, with its
    arguments and messages: p = a/b, the dual of the k of `closed`
    (`_closed_form`'s (k, at_k, above_k, scale)) and the witness's integer
    masses m_z over scale.  Every atom's reduced cost in int64
    (`_reduced_costs`), every pair row's dual <= 0, and every row's total
    over every atom of the witness's classes, counted by
    `_constraint_rows` a chunk of masks at a time and weighted
    m_z / (scale C(n, z)) in integers over one common denominator, met
    exactly; the objectives are compared as Fractions.  Like the
    package's, it proves the optimum of both programs, `build_full_lp`'s
    equality and <= pair rows."""
    k, at_k, above_k, scale = closed
    duals, dual_scale = atom_duals(n, k)
    weight = _hamming_weights(n)
    # The objective c is 0 on the zero atom and dual_scale on every other.
    reduced = _reduced_costs(n, np.where(weight > 0, dual_scale, 0).astype(np.int64), duals)
    worst = int(reduced.argmin())
    if reduced[worst] < 0:
        return f"an atom of weight {weight[worst]} has reduced cost {reduced[worst]}/{dual_scale} < 0"
    if (duals[1 + n :] > 0).any():
        return "a pair row's dual is positive"
    if any(m < 0 or not 0 <= z <= n for z, m in masses.items()):
        return "a witness weight is negative or off the classes 0..n"
    height = 1 + n + n * (n - 1) // 2
    kinds = [0] + [1] * n + [2] * (height - 1 - n)
    denominators = {z: scale * math.comb(n, z) for z in masses}
    common = math.lcm(*denominators.values())
    totals = [0] * height
    for z, m in masses.items():
        share = m * (common // denominators[z])  # one atom's mass, over common
        masks = np.flatnonzero(weight == z)
        for start in range(0, masks.size, 1 << 14):
            rows = _constraint_rows(n, masks[start : start + (1 << 14)])
            if rows.shape[0] != height:
                return f"the program has {rows.shape[0]} rows, not {height}"
            counts = np.add.reduce(rows, axis=1, dtype=np.int64).tolist()
            totals = [total + share * count for total, count in zip(totals, counts)]
    p = Fraction(a, b)
    for row, total in zip(kinds, totals):
        if total * b**row != a**row * common:
            name = ("mass", "marginal", "pair")[row]
            return f"a {name} row sums to {Fraction(total, common)}, not {p**row}"
    marginal, pair = int(duals[1 : 1 + n].sum()), int(duals[1 + n :].sum())
    dual_objective = Fraction((int(duals[0]) * b + marginal * a) * b + pair * a * a,
                              dual_scale * b * b)
    primal_objective = 1 - Fraction(masses.get(0, 0), scale)
    closed_objective = Fraction(at_k + above_k, scale)
    if not dual_objective == primal_objective == closed_objective:
        return (
            f"dual objective {dual_objective}, primal objective {primal_objective}, "
            f"closed form {closed_objective}"
        )
    return None

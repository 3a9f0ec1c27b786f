"""Search for joints minimizing P(Z > 0) under prescribed equal marginals
and pairwise moment constraints.

Two routes to the same optimum:

  full          a linear program with one variable per atom of {0,1}^n
                (2^n variables), solved in floating point by column
                generation: HiGHS's interior point method (crossover on,
                presolve off) solves a restricted master over the atoms
                near the closed form's support, and its duals price all
                2^n atoms in closed form until none has a reduced cost
                below -1e-7 (see `solve`); capped at n <= 16.
  exchangeable  the closed-form optimum over laws of Z = sum X_i (the sharp
                Dawson-Sankoff bound), valid because permutation-averaging
                any feasible joint preserves equal marginals, the pair
                moments, and P(Z > 0); computed in exact rationals, so the
                reported optimum carries no solver tolerance.

The two routes must agree on small n, which is one of the package's
verification properties.  The sweep's ratio of the optimum to P(Z~ > 0)
at p = 1/(n-1) tends to e/(2(e-1)), which is not the best lower constant:
at p = 2/(n-1) the optimum, also pairwise independent, has Z in {0, 3} and
a ratio below e/(2(e-1)) from n = 17 on.

scipy is loaded on the first full-LP solve, or on the first read of a full
constraint matrix (`ExtremalLp.a_eq`, `a_ub`), not at import: the
exchangeable route and the rest of the package use numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, repeat
from typing import TYPE_CHECKING

import numpy as np

from .constructions import _even_spread
from .dist import JointBernoulli

if TYPE_CHECKING:
    from scipy import sparse

MODES = ("pairwise_equality", "negative_covariance")

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
        from scipy import sparse

        rows = _constraint_rows(self.n, np.arange(1 << self.n))[which]
        return sparse.csr_matrix(rows).astype(np.float64)


@dataclass(frozen=True)
class LpSolution:
    """Solved search instance.

    `objective` is the minimum of P(Z > 0).  For optimal solutions the full
    route sets `witness_atoms`; the exchangeable route sets the exact
    rational optimum and the exact weights P(Z = k), k = 0..n.
    """

    status: str  # "optimal" | "infeasible"
    objective: float | None
    witness_atoms: dict[int, float] | None = None
    objective_exact: Fraction | None = None
    weights_exact: tuple[Fraction, ...] | None = None


def _check_common(n: int, p: Fraction | float | int, mode: str) -> Fraction:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"marginal p must lie in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return p


def build_full_lp(
    n: int, p: Fraction | float, mode: str = "pairwise_equality"
) -> ExtremalLp:
    """Atom-level LP: q_x >= 0, sum q = 1, marginals p, pair moments p^2.

    Pair moments are equalities in pairwise_equality mode and upper bounds
    in negative_covariance mode (a relaxation, so its optimum can only be
    lower).  Objective: minimize the mass off the zero atom.
    """
    p = _check_common(n, p, mode)
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


def _constraint_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """The program's 0/1 rows over the atoms `masks`, a boolean
    (1 + n + C(n, 2)) x len(masks) array (`linprog` copies it to float):
    row 0 sums the mass, row 1 + i the atoms with bit i set, then the pair
    rows in `np.triu_indices` order, each the atoms with both bits set."""
    bits = (masks & (1 << np.arange(n))[:, None]) != 0
    first, second = np.triu_indices(n, 1)
    return np.vstack([np.ones((1, masks.size), dtype=bool), bits, bits[first] & bits[second]])


def _reduced_costs(lp: ExtremalLp, duals: np.ndarray) -> np.ndarray:
    """c - A^T y over all 2^n atoms, for duals y in `_constraint_rows` order,
    in closed form: c_x - y_0 - sum_{i in x} y_i - sum_{i<j in x} y_ij.  The
    sums extend one bit at a time, with no BLAS call: the mask r + 2^b, r
    below 2^b, adds y_b and y_ib for each bit i of r to the sum of r."""
    n = lp.n
    pair = np.zeros((n, n))
    pair[np.triu_indices(n, 1)] = duals[1 + n :]
    total = duals[:1]
    for b in range(n):
        link = np.zeros(1)
        for i in range(b):
            link = np.concatenate([link, link + pair[i, b]])
        total = np.concatenate([total, total + duals[1 + b] + link])
    return lp.c - total


def exchangeable_optimum(
    n: int, p: Fraction | float, mode: str = "pairwise_equality"
) -> LpSolution:
    """Exact minimum of P(Z > 0) over laws w_k = P(Z = k), k = 0..n, with
    sum w_k = 1, first falling moment S1 = sum k w_k = n p and second
    falling moment 2 S2 = sum k(k-1) w_k = n(n-1) p^2 (an upper bound in
    negative_covariance mode).

    The optimum is the sharp Dawson-Sankoff bound 2 S1/(k+1) - 2 S2/(k(k+1))
    with k = 1 + floor(2 S2 / S1), attained only on the support {0, k, k+1}.
    Proof: f(z) = z(2k+1-z)/(k(k+1)) is 0 at z = 0, 1 at z = k and k+1, and
    at most 1 at every other integer z >= 1, so every feasible law has
    P(Z > 0) >= E f(Z), which is the bound.  The weights below meet the
    three rows on {0, k, k+1}; w_k and w_(k+1) are nonnegative by the choice
    of k, and w_0 is because the bound is at most P(Z > 0) <= 1 under
    Binomial(n, p).

    Two facts follow:
    - the program is never infeasible: Binomial(n, p) meets every row;
    - negative_covariance mode has the same optimum and witness as
      pairwise_equality: for fixed k the bound decreases as S2 grows, so a
      law whose second falling moment T is below 2 S2 has
      P(Z > 0) >= 2 S1/(k+1) - T/(k(k+1)), above the equality optimum,
      which is itself feasible for the relaxation.
    """
    p = _check_common(n, p, mode)
    if n < 2:
        raise ValueError(f"exchangeable reduction needs n >= 2, got {n}")
    support = {0: Fraction(1)}
    if p != 0:
        s1 = n * p
        s2_twice = n * (n - 1) * p * p
        k = 1 + s2_twice // s1
        upper = (s2_twice - (k - 1) * s1) / (k + 1)
        support[k] = (s1 - (k + 1) * upper) / k
        if k < n:  # at p = 1, k = n and the weight on n + 1 is zero
            support[k + 1] = upper
        support[0] = 1 - support[k] - upper
    weights = [Fraction(0)] * (n + 1)
    for z, w in support.items():
        weights[z] = w
    objective_exact = 1 - weights[0]
    return LpSolution(
        status="optimal",
        objective=float(objective_exact),
        objective_exact=objective_exact,
        weights_exact=tuple(weights),
    )


def _seed_columns(lp: ExtremalLp) -> np.ndarray:
    """Masks of Hamming weight 0, k - 1, k and k + 1, where
    k = 1 + floor((n-1) p) is the closed form's k (see
    `exchangeable_optimum`)."""
    k = 1 + math.floor((lp.n - 1) * lp.p)
    # The masks 2^b .. 2^(b+1) - 1 weigh one more than the masks below 2^b.
    weight = np.zeros(1, dtype=np.int64)
    for _ in range(lp.n):
        weight = np.concatenate([weight, weight + 1])
    return np.flatnonzero((weight == 0) | (abs(weight - k) <= 1))


def solve(lp: ExtremalLp) -> LpSolution:
    """Solve the atom-level LP with HiGHS by column generation; witness
    atoms below WITNESS_ATOM_FLOOR are dropped.

    At p = 0 the zero atom is the only feasible point, returned unsolved.
    Otherwise a basic optimum has at most 1 + n + n(n-1)/2 atoms (79 of
    4,096 at n = 12), so HiGHS need not see all 2^n columns.  It solves a
    restricted master, dense rows from `_constraint_rows` over the atoms of
    `_seed_columns`, which surround the closed form's support {0, k, k + 1}.
    The master's duals price all 2^n atoms in closed form (`_reduced_costs`),
    with no 2^n-column matrix.  Every atom whose reduced cost is below
    -PRICING_TOLERANCE enters, and the master is solved again, until none
    prices out.  Its optimum is then optimal over every atom, to the dual
    tolerance HiGHS applies to the full program, and its basis is a basis
    of the full LP.  A master that is infeasible, or that HiGHS cannot solve
    to optimality, widens to all atoms, so the answer never rests on the
    closed form; only the speed does.  On p in {j/10} and 1/(n-1),
    n = 2..12, both modes, one master solve always sufficed.

    Each master is solved by interior point with crossover, presolve off.
    At n = 12 and p = 1/11 the master has 299 columns and 79 rows; interior
    point takes 7 iterations (about 6 ms), dual simplex 225 pivots (about
    10 ms), and presolve adds 2 ms to either.  Crossover turns the interior
    point into a basic solution, so the witness keeps at most one atom per
    row and the duals are those of a basis.

    The objective is the correctly rounded sum of the primal masses off the
    zero atom (`math.fsum`), the P(Z > 0) of the returned point.  Over the
    sweep n = 3..16 at p = 1/(n-1) it is within 7e-16 relative of the exact
    optimum, where HiGHS's own objective value strays up to 2.5e-15.
    """
    if lp.p == 0:
        return LpSolution(status="optimal", objective=0.0, witness_atoms={0: 1.0})
    from scipy.optimize import linprog

    size, n_eq = lp.c.size, lp.b_eq.size
    columns = _seed_columns(lp)
    while True:
        rows = _constraint_rows(lp.n, columns)
        cost, a_eq = lp.c[columns], rows[:n_eq]
        # An equality row that no column touches cannot meet its nonzero
        # right-hand side.  HiGHS's interior point, presolve off, can
        # iterate on such a master without end instead of calling it
        # infeasible, so it is never handed one.  The shipped seed always
        # touches every row (a weight >= 2 atom covers them all); this
        # guards against other seeds.
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
            return LpSolution(status="infeasible", objective=None)
        if res.status != 0:
            raise RuntimeError(f"full LP solver failed: {res.message}")
        duals = np.concatenate([res.eqlin.marginals, res.ineqlin.marginals])
        reduced = _reduced_costs(lp, duals)
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
    return LpSolution(status="optimal", objective=objective, witness_atoms=atoms)


def expand_exchangeable(n: int, weights) -> JointBernoulli:
    """Spread each weight class uniformly over its masks.

    Inverse of collapsing a joint to Hamming-weight totals; used to
    round-trip exchangeable witnesses through the atom-level toolkit.
    Each class closes with a residual atom so the class total survives
    float conversion exactly.  The C(n, k) atoms of each nonzero class k
    are capped at 2^FULL_VARIABLE_LIMIT in all, before any is enumerated.
    """
    if len(weights) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} weights, got {len(weights)}")
    classes = [(k, float(w)) for k, w in enumerate(weights) if float(w) != 0.0]
    size = sum(math.comb(n, k) for k, _ in classes)
    if size > 1 << FULL_VARIABLE_LIMIT:
        raise ValueError(
            f"expansion writes {size} atoms, over the cap of 2^{FULL_VARIABLE_LIMIT}"
        )
    atoms: dict[int, float] = {}
    for k, target in classes:
        masks = [
            sum(1 << i for i in bits) for bits in combinations(range(n), k)
        ]
        atoms.update(_even_spread(masks, target))
    return JointBernoulli(n, atoms)


def _calibration_mtilde(n: int) -> float:
    """P(Z~ > 0) for n independent variables with p = 1/(n-1): the same
    left-to-right product as `prob_hit_independent`, without an n-long
    marginal vector."""
    return 1.0 - math.prod(repeat(1.0 - 1.0 / (n - 1), n))


def conjecture_sweep(
    n_min: int, n_max: int, mode: str = "pairwise_equality", *, reduction: str
) -> list[dict]:
    """Tabulate the optimal ratio against the candidate family's ratio.

    `reduction` is "exchangeable" (closed form) or "full" (HiGHS LP, n <= 16).
    One row per n with keys: n, p, mtilde, lp_objective, lp_ratio,
    construction_ratio, gap, status, running_inf.  lp_ratio tends to
    e/(2(e-1)) along this one marginal only; other marginals go lower (see
    the module docstring), so it bounds the best lower constant from above
    and is reported as data, never asserted.
    """
    if not 3 <= n_min <= n_max:
        raise ValueError(f"need 3 <= n_min <= n_max, got {n_min}..{n_max}")
    if reduction not in ("exchangeable", "full"):
        raise ValueError(f"reduction must be 'exchangeable' or 'full', got {reduction!r}")
    rows = []
    running_inf = float("inf")
    for n in range(n_min, n_max + 1):
        p = Fraction(1, n - 1)
        if reduction == "full":
            solution = solve(build_full_lp(n, p, mode))
        else:
            solution = exchangeable_optimum(n, p, mode)
        mtilde = _calibration_mtilde(n)
        ratio = solution.objective / mtilde
        construction_ratio = (0.5 + 0.5 / (n - 1)) / mtilde
        running_inf = min(running_inf, ratio)
        rows.append(
            {
                "n": n,
                "p": float(p),
                "mtilde": mtilde,
                "lp_objective": solution.objective,
                "lp_ratio": ratio,
                "construction_ratio": construction_ratio,
                "gap": construction_ratio - ratio,
                "status": solution.status,
                "running_inf": running_inf,
            }
        )
    return rows

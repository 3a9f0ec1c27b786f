"""Search for joints minimizing P(Z > 0) under prescribed equal marginals
and pairwise moment constraints.

Two routes to the same optimum:

  full          a linear program with one variable per atom of {0,1}^n
                (2^n variables), solved in floating point by HiGHS's
                interior point method with crossover and presolve off (see
                `solve`); capped at n <= 16.
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

scipy is loaded on the first full-LP build (`build_full_lp`, `solve`), not
at import: the exchangeable route and the rest of the package use numpy
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False)
class FullLpProblem:
    """Atom-level formulation: minimize c @ q over q >= 0."""

    c: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None


@dataclass(frozen=True, eq=False)
class ExtremalLp:
    n: int
    p: Fraction
    mode: str
    problem: FullLpProblem


@dataclass(frozen=True)
class LpSolution:
    """Solved search instance.

    `objective` is the minimum of P(Z > 0).  Exactly one of `witness_atoms`
    (full) / `witness_weights` (exchangeable) is set for optimal solutions;
    the exchangeable route additionally reports the exact rational optimum
    and the exact weights P(Z = k), k = 0..n.
    """

    status: str  # "optimal" | "infeasible"
    objective: float | None
    witness_atoms: dict[int, float] | None = None
    witness_weights: tuple[float, ...] | None = None
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
    from scipy import sparse

    p = _check_common(n, p, mode)
    if n > FULL_VARIABLE_LIMIT:
        raise ValueError(
            f"full reduction enumerates 2^n atoms; n={n} exceeds {FULL_VARIABLE_LIMIT}"
        )
    size = 1 << n
    pf = float(p)
    p2f = float(p * p)

    # One bit table, atoms x variables; row r of the constraint matrix is
    # the indicator of the atoms that constraint r sums over.
    bits = (np.arange(size)[:, None] >> np.arange(n)) & 1 == 1
    first, second = np.triu_indices(n, 1)
    rows = np.vstack(
        [np.ones((1, size), dtype=bool), bits.T, (bits[:, first] & bits[:, second]).T]
    )
    b = np.concatenate([[1.0], np.full(n, pf), np.full(len(first), p2f)])

    c = np.ones(size)
    c[0] = 0.0
    a = sparse.csr_matrix(rows).astype(np.float64)
    if mode == "pairwise_equality":
        problem = FullLpProblem(c=c, a_eq=a, b_eq=b, a_ub=None, b_ub=None)
    else:
        problem = FullLpProblem(
            c=c, a_eq=a[: 1 + n], b_eq=b[: 1 + n], a_ub=a[1 + n :], b_ub=b[1 + n :]
        )
    return ExtremalLp(n=n, p=p, mode=mode, problem=problem)


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
    # Only the support is converted; the other n - 2 or so weights are zero.
    weights = [Fraction(0)] * (n + 1)
    witness = [0.0] * (n + 1)
    for z, w in support.items():
        weights[z], witness[z] = w, float(w)
    objective_exact = 1 - weights[0]
    return LpSolution(
        status="optimal",
        objective=float(objective_exact),
        witness_weights=tuple(witness),
        objective_exact=objective_exact,
        weights_exact=tuple(weights),
    )


def solve(lp: ExtremalLp) -> LpSolution:
    """Solve the atom-level LP with HiGHS; witness atoms below
    WITNESS_ATOM_FLOOR are dropped.

    Interior point with crossover, presolve off.  The program has 2^n
    columns but only 1 + n + n(n-1)/2 rows, so an interior-point iteration
    is cheap and few are needed (8 at n = 12, 9 at n = 14), where HiGHS's
    default dual simplex pivots hundreds to thousands of times (789 and
    1,647); the solve is 3-6 times faster at n = 12..16.  Presolve removes
    nothing that pays for itself here: it doubles the interior-point time
    at n = 12 and 14.  Crossover turns the interior point into a basic
    solution, so the witness keeps at most one atom per row.
    """
    from scipy.optimize import linprog

    problem = lp.problem
    res = linprog(
        problem.c,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=(0, None),
        method="highs-ipm",
        options={"presolve": False},
    )
    if res.status == 2:
        return LpSolution(status="infeasible", objective=None)
    if res.status != 0:
        raise RuntimeError(f"full LP solver failed: {res.message}")
    atoms = {
        mask: float(q)
        for mask, q in enumerate(res.x)
        if q > WITNESS_ATOM_FLOOR
    }
    return LpSolution(status="optimal", objective=float(res.fun), witness_atoms=atoms)


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


def min_ratio(
    n: int, mode: str = "pairwise_equality"
) -> tuple[float, LpSolution]:
    """Minimal P(Z>0) / P(Z~>0) at the calibration marginal p = 1/(n-1)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    solution = exchangeable_optimum(n, Fraction(1, n - 1), mode)
    return solution.objective / _calibration_mtilde(n), solution


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

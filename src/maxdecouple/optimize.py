"""Search for joints minimizing P(Z > 0) under prescribed equal marginals
and pairwise moment constraints.

Two routes to the same optimum, both exact:

  exchangeable  the closed-form optimum over laws of Z = sum X_i (the sharp
                Dawson-Sankoff bound), valid because permutation-averaging
                any feasible joint preserves equal marginals, the pair
                moments, and P(Z > 0); computed in exact rationals, so the
                reported optimum carries no solver tolerance.
  full          the same optimum, proven optimal for the linear program
                with one variable per atom of {0,1}^n (2^n variables) by
                an LP-duality certificate checked in integers over the
                n + 1 Hamming-weight classes, which is exact over every
                atom (see `_certificate_fault`): the witness is the closed
                form's integer masses over one scale, so a certificate is
                a few big-integer operations at any n, builds no
                Fraction, and has nothing to charge against the memory
                budget.

Each route answers both pairwise programs: the one with pair moments
p^2, and its relaxation to a kind of negative dependence, pair moments
at most p^2.  They share the optimum and the witness, and the one
certificate proves it optimal for both.

The two routes must agree, which is one of the package's verification
properties.  The sweep's ratio of the optimum to P(Z~ > 0) at p = 1/(n-1)
tends to e/(2(e-1)), which is not the best lower constant: at p = 2/(n-1)
the optimum, also pairwise independent, has Z in {0, 3} and a ratio below
e/(2(e-1)) from n = 17 on.

The module uses no numpy and builds no joint (an optimum's weights become
one through `constructions.expand_exchangeable`).  The tests keep the
atom-level program as an independent oracle: a floating-point HiGHS solve
and the same certificate checked atom by atom.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat
from types import MappingProxyType

from .errors import InvariantError

# `fractions` (with `decimal` and `numbers`) loads in the functions that
# build a Fraction, none of which a sweep calls.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


class LpSolution(namedtuple("LpSolution", ("objective", "objective_exact", "n", "support"))):
    """Solved search instance: `objective` is the minimum of P(Z > 0),
    `objective_exact` the same optimum as a rational, and `support` maps
    each class z of an optimal law on Z = 0..n to its exact weight
    w_z = P(Z = z), nonzero weights only, read-only, so that a solution
    costs the same at any n.  `weights_exact` lists all n + 1 weights.

    A named tuple, so that importing the module loads no `dataclasses`;
    `support` is a mapping proxy, so a solution is not hashable."""

    __slots__ = ()

    @property
    def weights_exact(self) -> tuple[Fraction, ...]:
        from fractions import Fraction

        return tuple(map(self.support.get, range(self.n + 1), repeat(Fraction(0))))


def _check_common(n: int, p: Fraction | float | int) -> Fraction:
    from fractions import Fraction

    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 <= p <= 1:  # false for NaN too, and before Fraction(inf) overflows
        raise ValueError(f"marginal p must lie in [0, 1], got {p}")
    return Fraction(p)


def _closed_form(n: int, a: int, b: int) -> tuple[int, int, int, int]:
    """`exchangeable_optimum` at p = a/b in lowest terms, in integers:
    (k, at_k, above_k, scale), with w_k = at_k / scale and
    w_(k+1) = above_k / scale, the formulas of its docstring.  k is
    1 + floor(2 S2 / S1) = 1 + floor((n - 1) p), and (0, 0, 0, 1) at
    p = 0, where all mass is on Z = 0."""
    if a == 0:
        return 0, 0, 0, 1
    k = 1 + (n - 1) * a // b
    at_k = n * a * (k * b - (n - 1) * a) * (k + 1)
    above_k = n * a * ((n - 1) * a - (k - 1) * b) * k
    return k, at_k, above_k, k * (k + 1) * b * b


def _masses(k: int, at_k: int, above_k: int, scale: int) -> dict[int, int]:
    """The witness of `_closed_form`'s (k, at_k, above_k, scale): each class
    z of its support {0, k, k+1} and its mass m_z, an integer over scale.
    w_0 goes in last: at p = 0, k = 0 and w_0 = 1 is the only weight.  The
    zeros (w_(k+1) where (n - 1) p is an integer, w_0 at p = 1) are
    dropped."""
    masses = {k: at_k, k + 1: above_k, 0: scale - at_k - above_k}
    return {z: m for z, m in masses.items() if m}


def exchangeable_optimum(n: int, p: Fraction | float) -> LpSolution:
    """Exact minimum of P(Z > 0) over laws w_k = P(Z = k), k = 0..n, with
    sum w_k = 1, first falling moment S1 = sum k w_k = n p and second
    falling moment 2 S2 = sum k(k-1) w_k = n(n-1) p^2, and over its
    relaxation, where 2 S2 is an upper bound.

    The optimum is the sharp Dawson-Sankoff bound 2 S1/(k+1) - 2 S2/(k(k+1))
    with k = 1 + floor(2 S2 / S1), attained only on the support {0, k, k+1}.
    Proof: f(z) = z(2k+1-z)/(k(k+1)) is 0 at z = 0, 1 at z = k and k+1, and
    at most 1 at every other integer z >= 1, so every feasible law has
    P(Z > 0) >= E f(Z), which is the bound.

    With p = a/b in lowest terms, k = 1 + floor((n-1) a / b) and
    scale = k(k+1) b^2, the weights meeting the three rows on {0, k, k+1}
    are integers over scale:
        w_k     = n a (k b - (n-1) a) (k+1) / scale,
        w_(k+1) = n a ((n-1) a - (k-1) b) k / scale,
        w_0     = 1 - w_k - w_(k+1),
    and the objective 1 - w_0 is the sum of the two numerators over scale.
    Both numerators are nonnegative because k - 1 <= (n-1) p < k, and the
    second is 0 at p = 1, where k = n; w_0 is nonnegative because the bound
    is at most P(Z > 0) <= 1 under Binomial(n, p).  At p = 0 all mass is on
    Z = 0.

    Two facts follow:
    - neither program is ever infeasible: Binomial(n, p) meets every row;
    - both programs have the same optimum and witness: for fixed k the
      bound decreases as S2 grows, so a law of the relaxation whose second
      falling moment T is below 2 S2 has P(Z > 0) >= 2 S1/(k+1) -
      T/(k(k+1)), above the equality optimum, feasible for both.
    """
    p = _check_common(n, p)
    closed = _closed_form(n, p.numerator, p.denominator)
    return _solution(n, closed, _masses(*closed))


def _solution(n: int, closed: tuple[int, int, int, int], masses: dict[int, int]) -> LpSolution:
    """The `LpSolution` of `_closed_form`'s integers and their witness."""
    from fractions import Fraction

    _, at_k, above_k, scale = closed
    support = {z: Fraction(m, scale) for z, m in sorted(masses.items())}
    # int / int rounds correctly, so it is float(objective_exact).
    objective = (at_k + above_k) / scale
    return LpSolution(objective, Fraction(at_k + above_k, scale), n, MappingProxyType(support))


def _certificate_dual(k: int) -> tuple[tuple[int, int, int], int]:
    """The dual of `exchangeable_optimum`'s bound for the atom-level
    program, one multiplier per row kind: y_0 = 0 on the mass row,
    y_i = 2/(k+1) on each marginal row and y_ij = -2/(k(k+1)) on each
    pair row, as (integers, scale): scaled by k(k+1) to integers.  k = 0
    stands for p = 0, where y = 0."""
    if k == 0:
        return (0, 0, 0), 1
    return (0, 2 * k, -2), k * (k + 1)


def _certificate_fault(
    n: int, a: int, b: int, closed: tuple[int, int, int, int], masses: dict[int, int]
) -> str | None:
    """What fails in the LP-duality certificate at p = a/b in lowest terms,
    formed by the dual `_certificate_dual(k)` and the law that puts mass
    m_z / scale on class z for each z, m_z in `masses`, spread uniformly
    over the class's atoms, where `closed` is `_closed_form`'s
    (k, at_k, above_k, scale); or None if it holds.

    One certificate proves both pairwise programs optimal: the one whose
    pair rows are equalities and its relaxation, whose pair rows are
    <= rows.  A dual whose pair multiplier is <= 0 is feasible for both
    duals, a witness that meets every pair row exactly is feasible for
    both primals, and equal objectives then make it optimal for both.

    The dual has one multiplier per row kind and the witness one integer
    mass per class, so three checks over the n + 1 classes, each a few
    integer operations at any n, are exact over all 2^n atoms; no
    Fraction is built unless one fails, to name the failing value:
    - dual feasibility: scaled by the dual's y_scale, an atom of weight z
      has reduced cost
      r(z) = y_scale [z > 0] - y_0 - z y_1 - C(z, 2) y_2 ((z - k)(z - k - 1)
      at z >= 1 for the closed form's k).  Its steps -y_1 - z y_2 are
      monotone in z, so its least value on 1..n is at 1, at n, or, where
      they rise, at the first z >= t = -y_1 / y_2: floor(t) or floor(t) + 1,
      clipped.  The least weight of least cost among those and 0 is named.
      The pair multiplier must also be <= 0;
    - primal feasibility: the masses are >= 0 on classes 0..n, and each
      row meets p^e exactly.  Class z's atoms carry m_z / (scale C(n, z))
      each, and a row of kind e (0 mass, 1 marginal, 2 pair) meets
      C(n - e, z - e) of them, so it sums m_z z^(e) / (scale n^(e)) in
      falling powers: sum m_z z^(e) b^e == a^e scale n^(e);
    - equal objectives: b . y == 1 - w_0 == (at_k + above_k) / scale,
      over one denominator: b . y scale == (scale - m_0) y_scale b^2 ==
      (at_k + above_k) y_scale b^2, with b . y over y_scale b^2.
    By weak duality the objective is then the minimum over all atoms.
    """
    k, at_k, above_k, scale = closed
    (y0, y1, y2), dual_scale = _certificate_dual(k)

    candidates = [0, 1, n]
    if y2:
        t = -y1 // y2
        candidates += (min(max(t, 1), n), min(max(t + 1, 1), n))
    # (cost, z) pairs: the least cost, and the least weight among its ties.
    cost, worst = min([((dual_scale if z else 0) - y0 - z * y1 - z * (z - 1) // 2 * y2, z)
                       for z in candidates])
    if cost < 0:
        return f"an atom of weight {worst} has reduced cost {cost}/{dual_scale} < 0"
    if y2 > 0:
        return "a pair row's dual is positive"
    if any(m < 0 or not 0 <= z <= n for z, m in masses.items()):
        return "a witness weight is negative or off the classes 0..n"
    mass = marginal = pair = 0
    for z, m in masses.items():
        mass += m
        marginal += m * z
        pair += m * z * (z - 1)
    for e, name, total in ((0, "mass", mass), (1, "marginal", marginal), (2, "pair", pair)):
        if total * b**e != a**e * scale * math.perm(n, e):
            from fractions import Fraction

            total = Fraction(total, scale * math.perm(n, e))
            return f"a {name} row sums to {total}, not {Fraction(a, b) ** e}"
    squared = dual_scale * b * b
    dual = (y0 * b + n * y1 * a) * b + n * (n - 1) // 2 * y2 * a * a
    primal = scale - masses.get(0, 0)
    if not dual * scale == primal * squared == (at_k + above_k) * squared:
        from fractions import Fraction

        return (
            f"dual objective {Fraction(dual, squared)}, "
            f"primal objective {Fraction(primal, scale)}, "
            f"closed form {Fraction(at_k + above_k, scale)}"
        )
    return None


def _certified(n: int, a: int, b: int) -> tuple[tuple[int, int, int, int], dict[int, int]]:
    """`_closed_form(n, a, b)` and its witness `_masses`, once
    `_certificate_fault` has proven them optimal over every atom;
    raises InvariantError, naming n and p = a/b, if it fails."""
    closed = _closed_form(n, a, b)
    masses = _masses(*closed)
    fault = _certificate_fault(n, a, b, closed, masses)
    if fault is not None:
        p = f"{a}/{b}" if b != 1 else a
        raise InvariantError(f"the full LP certificate fails at n={n}, p={p}: {fault}")
    return closed, masses


def full_optimum(n: int, p: Fraction | float) -> LpSolution:
    """Exact minimum of P(Z > 0) over all joints on {0,1}^n: the atom-level
    program q_x >= 0, sum q = 1, marginals p, pair moments p^2, minimizing
    the mass off the zero atom, and over its relaxation, where the pair
    moments are upper bounds.

    Returns `exchangeable_optimum(n, p)` once `_certificate_fault`
    has proven it optimal for both programs over every atom: the closed
    form's witness, integer masses over one scale, is primal feasible,
    the dual of its bound is dual feasible, and the two objectives are
    equal.  This is the dual form of the f(z) argument in
    `exchangeable_optimum`'s docstring.  The solution is built from the
    certified integers.  Checked over the n + 1 Hamming-weight classes,
    it costs a few big-integer operations at any n.  Raises
    InvariantError, naming n and p, if it fails.
    """
    p = _check_common(n, p)
    return _solution(n, *_certified(n, p.numerator, p.denominator))


# The most factors a sweep may multiply in its `_calibration_mtilde`
# calls: the sum of n over its rows.  A factor takes 3.1-3.8 ns (2-vCPU
# VM, CPython 3.11.7), so the largest sweeps admitted spend about 3.5 s on
# them: a fresh `search` of the one row n = 10^9 takes 3.8 s, and of
# n = 3..44720 on the full route 5.5 s.  n = 3..3000 multiplies 4.5 * 10^6.
SWEEP_FACTOR_LIMIT = 10**9


def _calibration_mtilde(n: int) -> float:
    """P(Z~ > 0) for n independent variables with p = 1/(n-1): the same
    left-to-right product as `prob_hit_independent`, without an n-long
    marginal vector."""
    return 1.0 - math.prod(repeat(1.0 - 1.0 / (n - 1), n))


def conjecture_sweep(n_min: int, n_max: int, *, reduction: str) -> list[dict]:
    """Tabulate the optimal ratio against the candidate family's ratio.

    `reduction` is "exchangeable" (closed form) or "full" (the closed form
    certified over all 2^n atoms, as `full_optimum` certifies it); both
    print the same rows, which are the optimum of both pairwise programs.
    Each row's objective comes straight from the integer kernel
    `_closed_form`, the correctly rounded float of
    `exchangeable_optimum(n, 1/(n-1)).objective`.  A full sweep first
    certifies the row's integer masses over one scale (`_certified`), a
    few big-integer operations and no Fraction, so it runs at any n and
    allocates nothing per atom.
    One row per n with keys n, p, mtilde, lp_objective, lp_ratio, status,
    in the order `search` prints them.  The optimum at p = 1/(n-1) is
    `conjectured_extremal(n)`.  lp_ratio tends to e/(2(e-1)) along this
    one marginal only; other marginals go lower (see the module
    docstring), so it bounds the best lower constant from above and is
    reported as data, never asserted.
    A sweep whose rows multiply more than SWEEP_FACTOR_LIMIT factors in
    all is refused before any row is made.
    """
    if not 3 <= n_min <= n_max:
        raise ValueError(f"need 3 <= n_min <= n_max, got {n_min}..{n_max}")
    factors = (n_min + n_max) * (n_max - n_min + 1) // 2
    if factors > SWEEP_FACTOR_LIMIT:
        raise ValueError(
            f"n = {n_min}..{n_max} multiplies {factors} factors for P(Z~ > 0), "
            f"past the limit of {SWEEP_FACTOR_LIMIT} (the sum of n over the rows)"
        )
    if reduction not in ("exchangeable", "full"):
        raise ValueError(f"reduction must be 'exchangeable' or 'full', got {reduction!r}")
    full = reduction == "full"
    rows = []
    for n in range(n_min, n_max + 1):
        if full:
            (_, at_k, above_k, scale), _ = _certified(n, 1, n - 1)
        else:
            _, at_k, above_k, scale = _closed_form(n, 1, n - 1)
        objective = (at_k + above_k) / scale
        mtilde = _calibration_mtilde(n)
        rows.append(
            {
                "n": n,
                "p": 1 / (n - 1),
                "mtilde": mtilde,
                "lp_objective": objective,
                "lp_ratio": objective / mtilde,
                "status": "optimal",  # every instance is feasible and bounded
            }
        )
    return rows

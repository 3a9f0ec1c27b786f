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
                an LP-duality certificate checked in integers and
                rationals over every atom (see `full_optimum`).  Its
                2^n-atom arrays are charged against `dist.SUMMARY_BUDGET`
                before they are made, which admits n <= 25, and its rows
                are counted a budget's block at a time.

The two routes must agree, which is one of the package's verification
properties.  The sweep's ratio of the optimum to P(Z~ > 0) at p = 1/(n-1)
tends to e/(2(e-1)), which is not the best lower constant: at p = 2/(n-1)
the optimum, also pairwise independent, has Z in {0, 3} and a ratio below
e/(2(e-1)) from n = 17 on.

The module uses numpy only and builds no joint (an optimum's weights
become one through `constructions.expand_exchangeable`).  The tests keep
a floating-point HiGHS solve of the atom-level program as an independent
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, pairwise, repeat

import numpy as np

from .dist import _blocks, _check_budget
from .errors import InvariantError

MODES = ("pairwise_equality", "negative_covariance")

# Bytes per atom of the certificate's 2^n-atom arrays at the larger of its
# two stages: the dual stage's c, reduced costs and `_reduced_costs`' totals
# and links, all int64, then `_hamming_weights`, one byte an atom, its class
# tests and the used classes' masks.  Tracemalloc puts them at 26-28 and at
# most 7 bytes an atom from n = 12 on (CPython 3.11, numpy 2.4); the first
# are freed before the second are made.  The rows of the used masks are charged
# apart, a block at a time (`_certificate_fault`).
CERTIFICATE_ATOM_BYTES = 32

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LpSolution:
    """Solved search instance: `objective` is the minimum of P(Z > 0),
    `objective_exact` the same optimum as a rational, and `weights_exact`
    the exact weights P(Z = k), k = 0..n, of an optimal law."""

    objective: float
    objective_exact: Fraction
    weights_exact: tuple[Fraction, ...]


def _check_common(n: int, p: Fraction | float | int) -> Fraction:
    p = Fraction(p)
    if not 0 <= p.numerator <= p.denominator:
        raise ValueError(f"marginal p must lie in [0, 1], got {p}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return p


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


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


def _closed_form_k(n: int, p: Fraction) -> int:
    """The k of `exchangeable_optimum` at a checked p."""
    return _closed_form(n, p.numerator, p.denominator)[0]


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
    """The Hamming weight of every mask 0 .. 2^n - 1, a byte each (n <= 25)."""
    # The masks 2^b .. 2^(b+1) - 1 weigh one more than the masks below 2^b.
    weight = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        np.add(weight[: 1 << b], 1, out=weight[1 << b : 2 << b])
    return weight


def exchangeable_optimum(n: int, p: Fraction | float) -> LpSolution:
    """Exact minimum of P(Z > 0) over laws w_k = P(Z = k), k = 0..n, with
    sum w_k = 1, first falling moment S1 = sum k w_k = n p and second
    falling moment 2 S2 = sum k(k-1) w_k = n(n-1) p^2, and over its
    relaxation, where 2 S2 is an upper bound (the two `MODES`).

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
    return _exchangeable(n, _check_common(n, p))


def _exchangeable(n: int, p: Fraction) -> LpSolution:
    """`exchangeable_optimum` at a checked p, in integers."""
    if n < 2:
        raise ValueError(f"exchangeable reduction needs n >= 2, got {n}")
    k, at_k, above_k, scale = _closed_form(n, p.numerator, p.denominator)
    weights = [_ZERO] * (n + 1)
    weights[0] = Fraction(scale - at_k - above_k, scale)
    if at_k:  # zero only at p = 0
        weights[k] = Fraction(at_k, scale)
    if above_k:  # zero where (n - 1) p is an integer, p = 0 and p = 1 among them
        weights[k + 1] = Fraction(above_k, scale)
    # int / int rounds correctly, so it is float(objective_exact).
    objective = (at_k + above_k) / scale
    return LpSolution(objective, Fraction(at_k + above_k, scale), tuple(weights))


def _certificate_dual(n: int, k: int) -> tuple[np.ndarray, int]:
    """The dual of `exchangeable_optimum`'s bound for the atom-level
    program, y_0 = 0, y_i = 2/(k+1), y_ij = -2/(k(k+1)), in
    `_constraint_rows` order, as (integers, scale): scaled by k(k+1) to
    integers.  k = 0 stands for p = 0, where y = 0."""
    pairs = n * (n - 1) // 2
    if k == 0:
        return np.zeros(1 + n + pairs, dtype=np.int64), 1
    return np.repeat(np.int64([0, 2 * k, -2]), [1, n, pairs]), k * (k + 1)


def _certificate_fault(
    n: int, p: Fraction, mode: str, k: int, solution: LpSolution
) -> str | None:
    """What fails in the LP-duality certificate formed by the dual
    `_certificate_dual(n, k)` and the law `solution.weights_exact` spread
    uniformly over each Hamming-weight class, or None if it holds.

    Three checks, all exact:
    - dual feasibility: in integers, every atom's scaled reduced cost is
      >= 0 over all 2^n atoms (for the closed form's k, the atoms of
      weight z >= 1 get (z - k)(z - k - 1) and the zero atom 0), and in
      negative_covariance mode the pair duals are <= 0, the sign that
      <= rows need;
    - primal feasibility: the weights are >= 0 and the atoms of each
      class, counted per row by `_constraint_rows` and weighted
      w_z / C(n, z), meet every right-hand side exactly, in integers over
      one common denominator (pair rows from below in
      negative_covariance mode);
    - equal objectives: b . y == 1 - w_0 == `solution.objective_exact`,
      with b . y one integer over scale * denominator(p)^2.
    By weak duality the objective is then the minimum over all atoms.

    The rows of the used classes' masks are made in `dist._blocks`, each
    mask charged 2 bytes a row, which bounds the rows and the temporary
    bits of their pair rows (tracemalloc: 1.86-1.90 bytes a row entry at
    n = 12-20, p = 1/2).  Each class's rows are counted by a buffered
    int64 sum, with no int64 copy of the booleans.
    """
    duals, scale = _certificate_dual(n, k)
    # The objective c is 0 on the zero atom and scale on every other.
    reduced = _reduced_costs(n, np.repeat(np.int64([0, scale]), [1, (1 << n) - 1]), duals)
    worst = int(reduced.argmin())
    if reduced[worst] < 0:
        return f"atom {worst} has reduced cost {reduced[worst]}/{scale} < 0"
    del reduced  # so that the two stages' 2^n-atom arrays do not add up
    upper = mode == "negative_covariance"  # the pair rows are <= rows
    if upper and (duals[1 + n :] > 0).any():
        return "a pair row's dual is positive"
    weights = solution.weights_exact
    if min(w.numerator for w in weights) < 0:
        return "a witness weight is negative"
    used = [z for z, w in enumerate(weights) if w]
    # The used classes' masks, class by class; the weights go once they are made.
    masks = np.concatenate([np.flatnonzero(w == z) for w in [_hamming_weights(n)] for z in used])
    # Per row: its kind (0 mass, 1 marginal, 2 pair), then its count in each used class.
    counts = np.zeros((1 + n + n * (n - 1) // 2, 1 + len(used)), dtype=np.int64)
    counts[1 : 1 + n, 0], counts[1 + n :, 0] = 1, 2
    # The used classes' spans of masks, in order; each span a block meets adds its rows' counts.
    spans = list(pairwise(accumulate((math.comb(n, z) for z in used), initial=0)))
    height = len(counts)
    for at in _blocks(f"a column of {height} rows", 0, masks.size, 2 * height):
        rows = _constraint_rows(n, masks[at])
        if rows.shape[0] != height:
            return f"the program has {rows.shape[0]} rows, not {height}"
        for column, (lo, hi) in enumerate(spans, 1):
            lo, hi = max(lo, at.start) - at.start, min(hi, at.stop) - at.start
            if lo < hi:
                counts[:, column] += np.add.reduce(rows[:, lo:hi], axis=1, dtype=np.int64)
        del rows  # so that two blocks' rows are never held at once
    # In integers over one denominator: class z's atoms each carry
    # w_z / C(n, z) = share_z / common, and row kind e's right-hand side is
    # p^e = a^e / b^e.
    a, b = p.numerator, p.denominator
    denominators = [weights[z].denominator * math.comb(n, z) for z in used]
    common = math.lcm(*denominators)
    shares = [weights[z].numerator * (common // d) for z, d in zip(used, denominators)]
    # Rows of one kind with the same counts per class have the same total.
    for row, *count in dict.fromkeys(map(tuple, counts.tolist())):
        total = sum(share * c for share, c in zip(shares, count))
        scaled, rhs = total * b**row, a**row * common
        if scaled != rhs and not (upper and row == 2 and scaled < rhs):
            name = ("mass", "marginal", "pair")[row]
            total, rhs = Fraction(total, common), Fraction(a**row, b**row)
            return f"a {name} row sums to {total}, not {rhs}"
    marginal, pair = int(duals[1 : 1 + n].sum()), int(duals[1 + n :].sum())
    dual_objective = Fraction((int(duals[0]) * b + marginal * a) * b + pair * a * a, scale * b * b)
    if not dual_objective == 1 - weights[0] == solution.objective_exact:
        return (
            f"dual objective {dual_objective}, primal objective {1 - weights[0]}, "
            f"closed form {solution.objective_exact}"
        )
    return None


def _charge_certificate(n: int) -> None:
    """Charge the certificate's 2^n-atom arrays against the budget, one
    integer comparison: `full_optimum`'s docstring gives the figure."""
    # A figure cut at n = 2^16 is a lower bound; its low bit makes `_size` say "over".
    shift = min(n, 1 << 16)
    nbytes = CERTIFICATE_ATOM_BYTES << shift | (n > shift)
    _check_budget(f"the LP certificate over 2^{n} atoms", nbytes)


def full_optimum(
    n: int, p: Fraction | float, mode: str = "pairwise_equality"
) -> LpSolution:
    """Exact minimum of P(Z > 0) over all joints on {0,1}^n: the atom-level
    program q_x >= 0, sum q = 1, marginals p, pair moments p^2 (upper
    bounds in negative_covariance mode), minimizing the mass off the zero
    atom.  The certificate's 2^n-atom arrays are charged against the
    budget first, CERTIFICATE_ATOM_BYTES an atom, so a refused n allocates
    nothing: at 1 GiB it admits n <= 25 and refuses n = 26, whatever p.
    Past n = 2^16 the figure is charged as just over its value there, far
    over any budget, so that no n/8-byte integer is built for it.

    Returns `exchangeable_optimum(n, p)` once `_certificate_fault`
    has proven it optimal for the program over every atom: the closed
    form's witness is primal feasible, the dual of its bound is dual
    feasible, and the two objectives are equal.  This is the dual form of
    the f(z) argument in `exchangeable_optimum`'s docstring.  Raises
    InvariantError, naming n, p and mode, if the certificate fails.
    """
    _check_mode(mode)  # the certificate reads it
    p = _check_common(n, p)
    _charge_certificate(n)
    solution = _exchangeable(n, p)
    fault = _certificate_fault(n, p, mode, _closed_form_k(n, p), solution)
    if fault is not None:
        raise InvariantError(
            f"the full LP certificate fails at n={n}, p={p}, mode={mode}: {fault}"
        )
    return solution


def _calibration_mtilde(n: int) -> float:
    """P(Z~ > 0) for n independent variables with p = 1/(n-1): the same
    left-to-right product as `prob_hit_independent`, without an n-long
    marginal vector."""
    return 1.0 - math.prod(repeat(1.0 - 1.0 / (n - 1), n))


def conjecture_sweep(
    n_min: int, n_max: int, mode: str = "pairwise_equality", *, reduction: str
) -> list[dict]:
    """Tabulate the optimal ratio against the candidate family's ratio.

    `reduction` is "exchangeable" (closed form) or "full" (the closed form
    certified over all 2^n atoms by `full_optimum`); both print the same
    rows.  The exchangeable route takes each row's objective straight from
    the integer kernel `_closed_form`, the correctly rounded float of
    `exchangeable_optimum(n, 1/(n-1)).objective`, and checks the mode
    once.  A full sweep charges every n's certificate before it makes its
    first row, so a sweep the budget refuses raises at its first refused n
    at once, having made and returned no row.
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
    _check_mode(mode)
    full = reduction == "full"
    if full:
        # The charge grows with n, so this stops at the first refused n.
        for n in range(n_min, n_max + 1):
            _charge_certificate(n)
    rows = []
    running_inf = float("inf")
    for n in range(n_min, n_max + 1):
        if full:
            objective = full_optimum(n, Fraction(1, n - 1), mode).objective
        else:
            _, at_k, above_k, scale = _closed_form(n, 1, n - 1)
            objective = (at_k + above_k) / scale
        mtilde = _calibration_mtilde(n)
        ratio = objective / mtilde
        construction_ratio = (0.5 + 0.5 / (n - 1)) / mtilde
        running_inf = min(running_inf, ratio)
        rows.append(
            {
                "n": n,
                "p": 1 / (n - 1),
                "mtilde": mtilde,
                "lp_objective": objective,
                "lp_ratio": ratio,
                "construction_ratio": construction_ratio,
                "gap": construction_ratio - ratio,
                "status": "optimal",  # every instance is feasible and bounded
                "running_inf": running_inf,
            }
        )
    return rows

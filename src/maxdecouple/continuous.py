"""Decoupling bounds for nonnegative real-valued variables with finite
discrete support.

The bounds are those of the threshold indicators: for t >= 0 the variables
1{X_i > t} form a Bernoulli family, and E[max X_i] is the integral of
P(max > t) over t.  With finite support that integral is an exact finite
sum over the sorted distinct support values (left endpoints, since the
indicators use strict '> t'), so no quadrature is involved anywhere.  A
joint's values are read into one atoms x n float array at load, checked
there with its weights, and kept; the atom tuples are built only on first
use.  No Bernoulli joint or summary is built:
each joint is swept once, on first use, in closed form over the positions
of its values in the grid, keeping three scalars per threshold: P(max > t),
its independent counterpart and the largest excess.

The pairwise condition checked here is the thresholded analogue of negative
covariance: P(X_i > t, X_j > t) <= P(X_i > t) P(X_j > t) at every support
threshold.  Every verdict and that test take their slack from
`dist._summed_slack`, with the roundings counted by `bounds._upper_terms`
and `dist._excess_terms` for the joint's atoms, variables and thresholds.
A Bernoulli joint counts as one threshold, so on a 0/1 joint the orthant
test and the upper verdict take the slacks of their Bernoulli twins.
Survival functions of finitely supported laws are piecewise constant
between support points, so checking support thresholds only is equivalent
to checking all t > 0.  `affine_hash_values` enumerates the hash cells of
`constructions.affine_hash`; it imports `constructions` on its first call,
so a nonneg `report` never loads that module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import PINELIS_CONSTANT, _upper_terms, holds
from .dist import JointBernoulli, _blocks, _check_number, _check_unit_mass, _check_values
from .dist import _check_variable_count, _first, _first_invalid, _float_array, _gather
from .dist import _column_classes, _excess_terms, _read_document, _scaled_slack, _summed_slack
from .errors import InvalidDistributionError, InvariantError


def _check_finite_nonneg(x: float, what: str) -> None:
    if not (x >= 0.0 and x < float("inf")):
        raise InvalidDistributionError(f"{what} must be finite and >= 0, got {x!r}")


def _check_fields(rows: list, probs: list) -> None:
    """Check that each row is a list, a tuple or a 1-D numpy array of numbers
    and each probability a number; the atoms are walked only if a type is odd."""
    numbers = chain(probs, chain.from_iterable(rows))  # read only if every row is a sequence
    if set(map(type, rows)) <= {list, tuple} and set(map(type, numbers)) <= {int, float}:
        return
    for idx, (row, prob) in enumerate(zip(rows, probs)):
        if not (isinstance(row, (list, tuple)) or isinstance(row, np.ndarray) and row.ndim == 1):
            raise InvalidDistributionError(f"atoms[{idx}].values must be a list")
        for k, v in enumerate(row):
            _check_number(v, f"atoms[{idx}].values[{k}]")
        _check_number(prob, f"atoms[{idx}].p")


@dataclass(frozen=True)
class NonnegJoint:
    """Finite-support joint law of n nonnegative real variables.

    The atoms are kept in construction order as the arrays `_values`
    (atoms x n) and `_weights`; `atoms` pairs them as (value-vector,
    probability) tuples on first use.  All summations walk that order, so
    results are deterministic.  Two joints are equal when their atoms are.
    """

    n: int

    def __init__(self, n: int, atoms: Sequence[tuple[Sequence[float], float]]):
        pairs = list(atoms)
        self._load(n, [values for values, _ in pairs], [prob for _, prob in pairs])

    def _load(self, n: int, rows: list, probs: list) -> None:
        """The one load path: check the field types, then every value and
        weight at once, and name the first atom at fault, in construction
        order, by its first fault: a value, the count of values, the weight."""
        _check_fields(rows, probs)
        _check_variable_count(n)
        counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        flat, weights = _float_array(list(chain.from_iterable(rows))), _float_array(probs)
        ends = np.cumsum(counts)
        bad_value = _first_invalid(flat)
        by_value = int(np.searchsorted(ends, bad_value, "right"))
        by_count = _first(counts != n)
        idx = min(by_value, by_count, _first_invalid(weights))
        if idx < len(rows):  # each check below is given a bad number, and raises
            if idx == by_value:
                k = bad_value - ends[idx] + counts[idx]
                _check_finite_nonneg(flat[bad_value].item(), f"atoms[{idx}].values[{k}]")
            if idx == by_count:
                raise InvalidDistributionError(
                    f"atoms[{idx}] has {counts[idx]} values, expected n={n}"
                )
            _check_finite_nonneg(weights[idx].item(), f"atoms[{idx}].p")
        if not rows:
            raise InvalidDistributionError("atom list must be nonempty")
        _check_unit_mass(weights.tolist())
        values = flat.reshape(len(rows), n)
        values.setflags(write=False)
        weights.setflags(write=False)
        for name, value in (("n", int(n)), ("_values", values), ("_weights", weights)):
            object.__setattr__(self, name, value)

    @cached_property
    def atoms(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        """(value-vector, probability) pairs in construction order."""
        return tuple(zip(map(tuple, self._values.tolist()), self._weights.tolist()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NonnegJoint) and (self.n, self.atoms) == (other.n, other.atoms)

    @cached_property
    def _thresholds(self) -> "_ThresholdSweep":
        """The indicators 1{X_i > t} at each grid value t below the largest
        (never exceeded: no survival to integrate, no excess to check), in
        closed form: the s-th threshold from the top is exceeded by exactly
        the values of depth (grid values above them) at most s.  P(X_i > t)
        for each value class (variables with equal values), and P(max X > t)
        from the row minimum depth, are atom sums, left to right, taken at
        the column's own breakpoints and held to the next; P(max X~ > t) =
        1 - prod P(X_i <= t), multiplied left to right; a class pair's
        P(min > t) sums the masses of its maximum depth up to s, in depth
        order.  No sum depends on the blocks."""
        values, weights = self._values, self._weights
        atoms, n = values.shape
        grid, ranks = np.unique(np.append(values, 0.0), return_inverse=True)
        size, cuts = len(grid), len(grid) - 1
        depth = cuts - ranks[:-1].reshape(atoms, n)
        classes, first = _column_classes([column.tobytes() for column in depth.T])
        d = len(first)
        table = np.column_stack([depth[:, first], depth.min(axis=1)])
        # Each column's breakpoints, keyed column * size + depth.
        points = np.sort(np.append(table + np.arange(d + 1) * size, np.arange(d + 1) * size), None)
        points = points[np.append(True, points[1:] != points[:-1])]
        col, cut = np.divmod(points, size)
        sums = np.empty(len(points))
        for part in _blocks(f"one column of the {atoms} x {len(points)} survival table",
                            0, len(points), 25 * atoms):
            sums[part] = np.cumsum((table[:, col[part]] <= cut[part]) * weights[:, None], 0)[-1]
        hit, none, excess = np.empty((3, cuts))
        counts = np.bincount(classes)
        for top in _blocks(f"one threshold of the {d + 1 + n} x {cuts} survival tables",
                           0, cuts, 24 * (d + 1 + n)):
            at = np.arange(d + 1)[:, None] * size + np.arange(top.start, top.stop)
            surv = sums[np.searchsorted(points, at, "right") - 1]
            hit[top] = surv[d]
            none[top] = np.cumprod(1.0 - surv[classes], axis=0)[-1]
            excess[top] = -np.inf
            for a in range(d):  # pairs (a, b), b > a, and (a, a) if a holds two variables
                for part in _blocks(f"one class pair of the {d} x {d} pair tables",
                                    a + (counts[a] < 2), d, 8 * (2 * atoms + 3 * top.stop + 3)):
                    m, width = part.stop - part.start, top.stop + 1
                    high = np.minimum(np.maximum(table[:, a, None], table[:, part]), top.stop)
                    high += np.arange(0, m * width, width)
                    mass = np.bincount(high.ravel(), np.repeat(weights, m), m * width)
                    both = np.cumsum(mass.reshape(m, width), axis=1)[:, top]
                    both -= surv[a] * surv[part]
                    np.maximum(excess[top], both.max(axis=0), out=excess[top])
        return _ThresholdSweep(grid.tolist(), hit[::-1].tolist(), (1.0 - none[::-1]).tolist(),
                               excess[::-1].tolist())

    def to_json_dict(self) -> dict:
        return {
            "kind": "nonneg-joint",
            "n": self.n,
            "atoms": [{"values": v, "p": p}
                      for v, p in zip(self._values.tolist(), self._weights.tolist())],
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "NonnegJoint":
        n, raw = _read_document(obj, "nonneg-joint")
        fault = "must be an object with 'values' and 'p'"
        rows, probs = _gather(raw, "values", "p", _check_fields, fault, fault)
        joint = cls.__new__(cls)
        joint._load(n, rows, probs)
        return joint


class ContinuousCheck(NamedTuple):
    emax: float
    emax_ind: float
    upper_holds: bool
    pairwise_ok: bool
    lower_holds: bool

    @property
    def universal_ok(self) -> bool:
        """The upper bound, and the lower one wherever the orthant condition
        guarantees it; False means corrupt input or a library bug."""
        return self.upper_holds and (self.lower_holds or not self.pairwise_ok)


class _ThresholdSweep(NamedTuple):
    """Per-threshold scalars of the indicators 1{X_i > t}, for every t on
    the grid but the last (the largest support value)."""

    grid: list[float]
    hit: list[float]  # P(max_i X_i > t)
    hit_independent: list[float]  # P(max_i X~_i > t)
    max_excess: list[float]  # largest P(X_i>t, X_j>t) - P(X_i>t) P(X_j>t)


def _tail_integral(grid: list[float], survival: list[float]) -> float:
    total = 0.0
    for t, t_next, s in zip(grid, grid[1:], survival):
        total += (t_next - t) * s
    return total


def _layer_cake_expected_max(joint: NonnegJoint, grid: list[float]) -> float:
    return _tail_integral(grid, joint._thresholds.hit)


def expected_max(joint: NonnegJoint) -> float:
    """E[max_i X_i], as the direct atom sum: each row's maximum times its
    weight, summed left to right.

    Also evaluates the tail-integral form (sum over support thresholds of
    interval length times P(max > t)) and insists the two agree, raising
    InvariantError if not: a mismatch can only be an internal bug, never a
    property of the input.  The slack is `_scaled_slack` of
    2 atoms + grid points roundings in units of the largest value G: the
    direct sum is within atoms u G, and the tail integral within
    (atoms + thresholds + 1) u G, as each P(max > t) sums the atoms and
    each interval's length, term and addition round once.  Below the
    normal range a rounding errs by up to half of 2^-1074 whatever G is,
    so the slack adds one such spacing per rounding: a joint of subnormal
    values, whose relative slack rounds to 0, still agrees.
    """
    direct = float(np.cumsum(np.append(0.0, joint._weights * joint._values.max(axis=1)))[-1])
    grid = joint._thresholds.grid
    layered = _layer_cake_expected_max(joint, grid)
    slack = _scaled_slack(2 * len(joint._weights) + len(grid), grid[-1])
    if abs(direct - layered) > slack:
        raise InvariantError(
            f"tail-integral cross-check failed: direct={direct!r} layered={layered!r}"
        )
    return direct


def expected_max_independent(joint: NonnegJoint) -> float:
    """E[max_i X~_i] for the independent version, computed exactly.

    Integrates P(max_i X~_i > t) = 1 - prod_i P(X_i <= t) over the finite
    support grid, from each threshold's marginals.
    """
    return _tail_integral(joint._thresholds.grid, joint._thresholds.hit_independent)


def pairwise_orthant_ok(joint: NonnegJoint) -> bool:
    """Thresholded negative-dependence test.

    True iff P(X_i > t, X_j > t) <= P(X_i > t) P(X_j > t) + tau for every
    pair i != j and every support threshold t (support thresholds suffice:
    both sides are constant between consecutive support values), with tau
    `_summed_slack` of `dist._excess_terms` over the joint's atoms and
    thresholds: on a 0/1 joint, `main_lower_check`'s tau.
    """
    sweep = joint._thresholds
    tau = _summed_slack(_excess_terms(len(joint._weights), len(sweep.grid) - 1))
    return all(excess <= tau for excess in sweep.max_excess)


def decoupling_check_cont(joint: NonnegJoint) -> ContinuousCheck:
    """Run both expectation-level decoupling bounds on one joint.

    upper_holds must be True for every input (no dependence assumption);
    lower_holds is guaranteed only when pairwise_ok is True, but its raw
    value is reported either way.  Both take `_summed_slack` of
    `bounds._upper_terms` over the thresholds, in units of the largest
    value G (or 1), and the lower one n (n - 1) tau more, tau the orthant
    test's: at each threshold, as in `main_lower_check`, a passed test
    bounds P(max X~ > t)/2 - P(max X > t) by n (n - 1) tau exactly, and
    the intervals add up to G.
    """
    emax = expected_max(joint)
    emax_ind = expected_max_independent(joint)
    atoms, n, grid = len(joint._weights), joint.n, joint._thresholds.grid
    slack = _summed_slack(_upper_terms(atoms, n, len(grid) - 1))
    tau = _summed_slack(_excess_terms(atoms, len(grid) - 1))
    upper = holds(emax, PINELIS_CONSTANT * emax_ind, slack, grid[-1])
    lower = holds(0.5 * emax_ind, emax, slack + n * (n - 1) * tau, grid[-1])
    return ContinuousCheck(emax, emax_ind, upper, pairwise_orthant_ok(joint), lower)


def affine_hash_values(
    n: int, q: int, value_maps: Sequence[Sequence[float]]
) -> NonnegJoint:
    """Pairwise-independent real-valued family from an affine hash.

    With (a, b) uniform on {0..q-1}^2 and q prime, set
    X_i = value_maps[i][(a + b*i) mod q].  For i != j the hash pair is
    uniform on the q^2 cells, so X_i and X_j are exactly independent and
    each X_i is uniform over its value table.  The q^2 cells are charged
    as atoms before any is walked.
    """
    from .constructions import _affine_cells

    cells = _affine_cells(n, q, _check_values)
    if len(value_maps) != n:
        raise ValueError(f"need one value table per variable ({n}), got {len(value_maps)}")
    for i, table in enumerate(value_maps):
        if len(table) != q:
            raise ValueError(f"value table {i} must have length q={q}")
        for j, v in enumerate(table):
            _check_number(v, f"value_maps[{i}][{j}]")
    flat = _float_array([v for table in value_maps for v in table])
    if (bad := _first_invalid(flat)) < len(flat):
        _check_finite_nonneg(flat[bad].item(), f"value_maps[{bad // q}][{bad % q}]")
    tables = flat.reshape(n, q).tolist()
    counts: dict[tuple[float, ...], int] = {}
    for cell in cells:
        vec = tuple(table[h] for table, h in zip(tables, cell))
        counts[vec] = counts.get(vec, 0) + 1
    atoms = [(vec, counts[vec] / (q * q)) for vec in sorted(counts)]
    return NonnegJoint(n, atoms)


def bernoulli_embedding(joint: JointBernoulli) -> NonnegJoint:
    """View a Bernoulli joint as a nonnegative joint with 0/1 values.

    The continuous operations then reproduce the Bernoulli ones exactly:
    expected_max is P(Z > 0) and expected_max_independent is P(Z~ > 0).
    The atoms x n value table is charged before it is made.
    """
    _check_values(joint.n, len(joint.masks))
    return NonnegJoint(joint.n, list(zip(joint._bits().tolist(), joint.probs)))

"""Exact joint Bernoulli distributions as sparse mask -> probability tables.

Bit convention (fixed package-wide): bit 0 of an atom mask is the first
variable, so bit i set in mask x means X_{i+1} = 1.  The atom table is kept
sorted by ascending mask, and probability summations in the operations walk
that order left to right, which makes all derived quantities deterministic.
(The construction-time normalization check instead uses math.fsum, since it
measures true mass rather than producing a result.)

The hit count Z = sum_i X_i of an atom is the popcount of its mask; it is
never stored, always derived, as an exact integer count of the atom's row
of the bit table.  Every sum, the pair moments included, runs left to
right in atom order on one thread, so no BLAS routine picks its order or
starts a worker thread.

A joint is checked once, by the one load path and type rules that the
constructor and `from_json_dict` share: field types in input order, then,
with the masks sorted, every other check in ascending mask order.  It
keeps only `n`, the masks and the probabilities, as tuples.

Every operation reads one `JointSummary`, built on first use by packing
the masks into a byte table, a block at a time, and unpacking that into
an atoms x n bit table, after the budget check, and scanning it once with
the kernel `_summarize`; it is cached on the joint.
Pair data is kept per column class (variables that fire on the same
atoms), so a wide joint with few distinct columns costs no n x n memory.
Arrays are sized before they are allocated: a summary that would need more
than `SUMMARY_BUDGET` bytes is rejected with its size in the message, and
`_blocks` cuts a long table into pieces that each fit.  A function that
builds a joint charges its table against the same budget first, by one
rule per joint kind: `_check_table` for a Bernoulli table, `_check_values`
for a nonneg one.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import eq, le
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidDistributionError

# Tolerance on |total mass - 1| for any probability table, and the floor of
# the one slack rule, `_summed_slack`.
NORMALIZATION_TOL = 1e-12

# Bytes one summary may allocate: the atoms x n bit table, then the atom x
# class float tables and the d x d pair matrices of `_summarize`, or one
# block of the continuous threshold sweep's tables.  A function that builds
# a joint charges its table against the same budget first (`_check_table`,
# `_check_values`).
SUMMARY_BUDGET = 1 << 30

# Bytes per atom of the Python objects a builder and a joint hold beside
# its masks or values: the float, the atom's tuple, the int and bytes
# headers, the dict entry and the slots of the lists and tuples the atoms
# pass through.  Tracemalloc puts them at 290-315 bytes on CPython 3.11
# (numpy 2.4); re-measure them, and VALUE_BYTES, when the Python that CI
# pins changes, as `test_checked_figure_bounds_the_peak` fails if they
# outgrow these figures.
ATOM_OBJECT_BYTES = 384

# Bytes per value of a nonneg joint as it is built: its slot in the
# builder's rows, in the load path's flat list and float64 array, and its
# float object and tuple slot in `NonnegJoint.atoms`.  Tracemalloc puts
# them at 56-65 bytes; the rest covers a nonneg atom's objects, which come
# to about 370 bytes, near ATOM_OBJECT_BYTES.  The load no longer builds
# `atoms` (it is made on first use), so the figure over-charges a load.
VALUE_BYTES = 96

# Bytes numpy's buffered ufunc loop may hold while it casts an operand, as
# `_summarize` does when it multiplies boolean rows by float weights: two
# buffers of np.getbufsize() = 8192 float64 items and the iterator, which
# tracemalloc put at 132 KB at most; twice that, for headroom.
CAST_BUFFER = 1 << 18

# Items per chunk of the chunked kernels, draws of the sampling kernel and
# masks of `JointBernoulli._packed`: large enough that numpy's per-call cost
# is negligible, small enough that a chunk's arrays and objects stay a few
# MB.  A dense table of up to 2^16 atoms is packed in one block.
SAMPLE_CHUNK = 1 << 16

# Forward steps of a guide-table draw before it falls back to bisection.
GUIDE_SCAN_STEPS = 4

AtomTable = Iterable[tuple[int, float]] | Mapping[int, float]


def _check_number(value: object, what: str) -> None:
    """A number is an int or a float (numpy's too), not a bool."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise InvalidDistributionError(f"{what} must be a number")


def _as_float(value: object) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _float_array(values: list) -> np.ndarray:
    """`values` as float64, an int past the float range as inf of its sign."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.array(list(map(_as_float, values)), dtype=np.float64)


def _first(flags: np.ndarray) -> int:
    """Index of the first True in `flags`, or its length if there is none."""
    return int(flags.argmax()) if flags.any() else len(flags)


def _first_invalid(values: np.ndarray) -> int:
    """Index of the first value that is not finite and >= 0 (NaN is not),
    or the length if there is none."""
    return _first(~((values >= 0.0) & (values < np.inf)))


def _gather(raw: list, key: str, value: str, check, not_object: str, lacking: str):
    """Two fields of every atom as two lists.  An atom that is not an object
    holding both is named, by `not_object` or `lacking`, once `check` has
    passed the fields of the atoms before it: a bad field comes first."""
    try:
        return [entry[key] for entry in raw], [entry[value] for entry in raw]
    except (KeyError, TypeError):
        bad = [isinstance(e, dict) and {key, value} <= e.keys() for e in raw].index(False)
        check([e[key] for e in raw[:bad]], [e[value] for e in raw[:bad]])
        fault = lacking if isinstance(raw[bad], dict) else not_object
        raise InvalidDistributionError(f"atoms[{bad}] {fault}") from None


def _typed_masks(masks: list, probs: list) -> list[int]:
    """`masks` as ints once each is an integer (numpy's too, not a bool) and
    each probability a number; the atoms are walked only if a type is odd."""
    if set(map(type, masks)) <= {int} and set(map(type, probs)) <= {int, float}:
        return masks
    for idx, (mask, prob) in enumerate(zip(masks, probs)):
        if not isinstance(mask, (int, np.integer)) or isinstance(mask, bool):
            raise InvalidDistributionError(f"atoms[{idx}].mask must be an integer")
        _check_number(prob, f"atoms[{idx}].p")
    return list(map(int, masks))


def _check_variable_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidDistributionError("field 'n' must be an integer")
    if n < 1:
        raise InvalidDistributionError(f"need at least one variable, got n={n}")


def _check_unit_mass(probs: Iterable[float]) -> None:
    # Exactly-rounded total: the invariant concerns the true mass, not
    # artifacts of accumulation order over large supports.
    total = math.fsum(probs)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidDistributionError(
            f"probabilities sum to {total!r}, deviation {total - 1.0!r} "
            f"exceeds tolerance {NORMALIZATION_TOL}"
        )


def _read_document(obj: object, kind: str) -> tuple[int, list]:
    """The checked `n` and raw `atoms` list of a joint document of `kind`."""
    if not isinstance(obj, dict):
        raise InvalidDistributionError("joint document must be a JSON object")
    if obj.get("kind") != kind:
        raise InvalidDistributionError(
            f"field 'kind' must be '{kind}', got {obj.get('kind')!r}"
        )
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidDistributionError("field 'n' must be an integer")
    raw = obj.get("atoms")
    if not isinstance(raw, list):
        raise InvalidDistributionError("field 'atoms' must be a list")
    return n, raw


@dataclass(frozen=True)
class JointBernoulli:
    """Joint law of (X_1, ..., X_n) on {0,1}^n as a sparse atom table.

    The masks, ascending, and their probabilities are kept as two tuples
    and nothing else: a kernel makes the arrays it reads from them, the
    packed byte table by `_packed` and the float64 weights by `np.array`,
    and drops them when it returns.  `atoms` pairs the tuples on first use.
    Immutable after construction (the cached values derive from the atoms
    alone), so instances can be shared freely.
    """

    n: int
    masks: tuple[int, ...]
    probs: tuple[float, ...]

    def __init__(self, n: int, atoms: AtomTable):
        pairs = list(atoms.items() if isinstance(atoms, Mapping) else atoms)
        self._load(n, [mask for mask, _ in pairs], [prob for _, prob in pairs])

    def _load(self, n: int, masks: list, probs: list) -> None:
        """The one load path: check the field types, sort the atoms by mask,
        then check every atom at once, in the order the message names the
        first bad one: a repeat, range, weight.  Only `n`, `masks` and
        `probs` are kept; the kernels derive their arrays from them."""
        masks = _typed_masks(masks, probs)
        _check_variable_count(n)
        if not masks:
            raise InvalidDistributionError("atom list must be nonempty")
        weights = _float_array(probs)
        if not all(map(le, masks, masks[1:])):
            # A stable sort: repeated masks keep their input order.
            order = sorted(range(len(masks)), key=masks.__getitem__)
            masks, weights = [masks[i] for i in order], weights[order]
        # Sorted, a negative mask comes first and masks past n bits last.
        # The first atom at fault: a repeated mask, its range, then its weight.
        end = 0 if masks[0] < 0 else bisect.bisect_right(masks, n, key=int.bit_length)
        repeated = next(compress(range(1, len(masks)), map(eq, masks[1:], masks)), len(masks))
        bad = min(repeated, end, _first_invalid(weights))
        if bad < len(masks):
            mask = masks[bad]
            if bad == repeated:
                raise InvalidDistributionError(f"duplicate atom mask {mask}")
            if bad == end:
                raise InvalidDistributionError(
                    f"atom mask {mask} out of range for n={n} (need 0 <= mask < 2^n)"
                )
            raise InvalidDistributionError(
                f"atom mask {mask} has invalid probability {weights[bad].item()!r}"
            )
        probs = weights.tolist()
        _check_unit_mass(probs)
        for name, value in (("n", int(n)), ("masks", tuple(masks)), ("probs", tuple(probs))):
            object.__setattr__(self, name, value)

    @cached_property
    def atoms(self) -> tuple[tuple[int, float], ...]:
        """(mask, probability) pairs, ascending by mask."""
        return tuple(zip(self.masks, self.probs))

    def _packed(self) -> np.ndarray:
        """The atoms x width byte table, each mask's little-endian bytes, as
        wide as the largest mask needs (at most ceil(n/8)); made per call.
        It is filled in blocks of SAMPLE_CHUNK masks, so beside it only one
        block's bytes objects, and the buffer views `bytes.join` takes of
        them (about 130 bytes a mask in all), are held at once."""
        masks = self.masks
        width = max(1, (masks[-1].bit_length() + 7) // 8)
        packed = np.empty(len(masks) * width, dtype=np.uint8)
        for start in range(0, len(masks), SAMPLE_CHUNK):
            block = masks[start : start + SAMPLE_CHUNK]
            joined = b"".join([mask.to_bytes(width, "little") for mask in block])
            packed[start * width : (start + len(block)) * width] = np.frombuffer(joined, np.uint8)
        return packed.reshape(-1, width)

    def _bits(self) -> np.ndarray:
        """The atoms x n table of 0/1 bytes, bit i of each mask in column i."""
        return np.unpackbits(self._packed(), axis=1, count=self.n, bitorder="little")

    @cached_property
    def summary(self) -> "JointSummary":
        """The one-scan summary every operation reads, built on first use
        from the bit table `_bits` makes after the budget check.  That
        charges the larger of two figures.  One is what `_bits` holds: the
        bit table, the packed table (ceil(n/8) bytes an atom at most) and
        one block of the packing, ATOM_OBJECT_BYTES a mask.  Tracemalloc
        put the block at about 130 bytes a mask, so the charge is about
        three times what it holds.  The other is the n column keys that
        `_summarize` makes first, which is the larger on a few atoms over
        many variables."""
        atoms, n = len(self.masks), self.n
        nbytes, what = max(
            (atoms * (n + (n + 7) // 8) + min(atoms, SAMPLE_CHUNK) * ATOM_OBJECT_BYTES,
             f"the {atoms} x {n} bit table, its packed table and one block of packed masks"),
            (_key_bytes(n, atoms), f"the {n} column keys of {atoms} atoms"),
        )
        _check_budget(what, nbytes)
        return _summarize(self._bits().view(bool), np.array(self.probs))

    def to_json_dict(self) -> dict:
        return {
            "kind": "bernoulli-joint",
            "n": self.n,
            "atoms": [{"mask": mask, "p": prob} for mask, prob in self.atoms],
        }

    @classmethod
    def from_json_dict(cls, obj: object) -> "JointBernoulli":
        n, raw = _read_document(obj, "bernoulli-joint")
        masks, probs = _gather(
            raw, "mask", "p", _typed_masks, "must be an object", "needs 'mask' and 'p' fields"
        )
        joint = cls.__new__(cls)
        joint._load(n, masks, probs)
        return joint


@dataclass(frozen=True)
class MarginalVector:
    """Marginal success probabilities p_1, ..., p_n.

    Fully determines the law of the independent version (X~_1, ..., X~_n):
    mutually independent Bernoullis with these same marginals.
    """

    p: tuple[float, ...]

    def __init__(self, p: Sequence[float], slack: float = NORMALIZATION_TOL):
        """A value may pass 1 by `slack`, `_summed_slack` if summed."""
        vec = tuple(float(x) for x in p)
        if not vec:
            raise InvalidDistributionError("marginal vector must be nonempty")
        bad = [x for x in vec if not 0.0 <= x <= 1.0 + slack]  # NaN is bad too
        if bad:
            raise InvalidDistributionError(
                f"marginals must lie in [0, 1]; found value {bad[0]!r}"
            )
        object.__setattr__(self, "p", vec)

    @property
    def n(self) -> int:
        return len(self.p)

    @cached_property
    def total(self) -> float:
        """Sum of the marginals, accumulated left to right."""
        return sum(self.p)

    @cached_property
    def prob_none(self) -> float:
        """P(Z~ = 0) = prod_i (1 - p_i), multiplied left to right."""
        return math.prod(1.0 - p for p in self.p)


class JointSummary(NamedTuple):
    """Everything the Bernoulli bounds read from a joint, from one scan.

    `classes[i]` is the column class of variable i (variables that fire on
    the same atoms share one) and `pair_moments` the d x d class matrix of
    P(X_i = 1, X_j = 1).  Over ordered pairs i != j, `h` totals
    max(0, E[X_i X_j] - p_i p_j); `max_excess` and `max_abs_excess` are the
    largest signed and absolute excess (-inf and 0 when n = 1).
    """

    marginals: MarginalVector
    classes: np.ndarray
    pair_moments: np.ndarray
    prob_hit: float
    ez: float
    ez2: float
    h: float
    max_excess: float
    max_abs_excess: float


def _summed_slack(terms: int) -> float:
    """The package's one slack rule: how far, relative to max(1, magnitude),
    a computed value may miss its exact value after `terms` roundings.

    Each rounding moves a value by at most u = 2^-53 of its magnitude, and
    k of them by at most gamma_k = k u / (1 - k u), which is at most
    k 2^-52 while k u <= 1/2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, sections 3.1 and 4.2; a left-to-right sum of k + 1 terms
    rounds k times).  So 2^-52 a term is twice the first-order bound, and
    the spare half covers the second-order terms.  NORMALIZATION_TOL is the
    floor: a table's true mass may miss 1 by that much, and no verdict on a
    small joint takes less slack than that.  Every caller derives `terms`
    from the joint in its docstring; a summed marginal, for one, may pass 1
    by `_summed_slack(atoms)`.
    """
    return NORMALIZATION_TOL + terms * 2.0**-52


def _scaled_slack(terms: int, scale: float) -> float:
    """`_summed_slack(terms)` in units of `scale`, plus one subnormal
    spacing, ulp(0.0) = 2^-1074, per rounding: below the normal range a
    rounding's error is absolute, up to half that spacing, at any scale."""
    return _summed_slack(terms) * scale + terms * math.ulp(0.0)


def _excess_terms(atoms: int, thresholds: int = 1) -> int:
    """Roundings of one pair's excess E[X_i X_j] - p_i p_j, at one of
    `thresholds` thresholds (a Bernoulli joint has one, t = 0), relative to
    the larger of its two terms: the moment sums at most `atoms` weights,
    and at most `thresholds` level masses more in the threshold sweep; each
    marginal sums `atoms`; the product and the difference round once each.
    That is 3 atoms + thresholds + 1, and one to spare."""
    return 3 * atoms + thresholds + 2


def _size(count: int) -> str:
    """`count` in decimal, or by its power of two where the decimal is past
    Python's int/str digit limit (past about 2^14280 at the default limit)."""
    try:
        return str(count)
    except ValueError:  # name the power of two at or below it
        return f"{'over ' if count & (count - 1) else ''}2^{count.bit_length() - 1}"


def _check_budget(what: str, nbytes: int) -> None:
    if nbytes > SUMMARY_BUDGET:
        raise InvalidDistributionError(
            f"joint too large to summarize: {what} needs {_size(nbytes)} bytes, "
            f"over the budget of {SUMMARY_BUDGET} bytes"
        )


def _check_table(n: int, atoms: int) -> None:
    """Check the Bernoulli table of `atoms` masks over n variables against
    the budget before any atom is made.  Each atom is charged its mask
    three times, as an int (30 bits in 4 bytes) and in the two packed
    tables (ceil(n/8) bytes each) that `permute_variables` makes, and
    ATOM_OBJECT_BYTES for its Python objects, which covers the objects of
    a block of `JointBernoulli._packed` too.  A build packs no table, as
    the load keeps only the ints, so the figure over-charges a build."""
    per_atom = 4 * ((n + 29) // 30) + 2 * ((n + 7) // 8) + ATOM_OBJECT_BYTES
    _check_budget(f"the table of {_size(atoms)} atoms over {n} variables", atoms * per_atom)


def _check_values(n: int, atoms: int) -> None:
    """Check the nonneg table of `atoms` rows of n values against the
    budget before any row is made: VALUE_BYTES a value and
    ATOM_OBJECT_BYTES an atom."""
    _check_budget(f"the {atoms} x {n} value table", atoms * (ATOM_OBJECT_BYTES + n * VALUE_BYTES))


def _blocks(what: str, start: int, stop: int, nbytes: int) -> Iterator[slice]:
    """range(start, stop) in slices of as many items, `nbytes` each, as fit
    SUMMARY_BUDGET; `what` names an item that alone is over."""
    _check_budget(what, nbytes)
    step = SUMMARY_BUDGET // nbytes
    return (slice(at, min(at + step, stop)) for at in range(start, stop, step))


def _key_bytes(n: int, atoms: int) -> int:
    """The n column keys `_summarize` makes, one bytes object a variable
    holding its bit of every atom: 65 bytes of object and a byte per 8
    atoms each."""
    return n * (atoms // 8 + 65)


def _column_classes(keys: list[bytes]) -> tuple[np.ndarray, list[int]]:
    """Classes of equal `keys`, numbered by first appearance so distinct
    columns keep their order: each column's class, each class's first column."""
    first: dict[bytes, int] = {}
    for column, key in enumerate(keys):
        first.setdefault(key, column)
    rank = dict(zip(first, range(len(first))))
    return np.array([rank[key] for key in keys]), list(first.values())


def _summarize(bits: np.ndarray, weights: np.ndarray) -> JointSummary:
    """One scan of an atoms x n boolean table weighted by atom probability.

    Every sum (marginals, pair moments, P(Z > 0), E Z, E Z^2) runs left to
    right in atom order through np.cumsum, on one thread, so each equals the
    plain loop over the table, bit for bit.  Pair data is per column class
    (`_column_classes`); the k_a variables of class a make k_a (k_a - 1)
    ordered pairs, each with moment p_a.
    """
    keys = [col.tobytes() for col in np.packbits(bits, axis=0).T]
    classes, first = _column_classes(keys)
    atoms, d = len(weights), len(first)
    # The peak, in bytes: the column keys; the d x atoms boolean columns;
    # z, the three atom-level terms and a temporary; the pair loop's worst
    # step, which holds row block a - 1 while it builds block a (d - a
    # booleans, then floats, on each atom where class a fires, the indices
    # and weights it selects and the cast buffer of their product); and six
    # d x d matrices.
    hits = np.array([int.from_bytes(keys[at], "little").bit_count() for at in first])
    cells = (d - np.arange(d)) * hits
    step = 8 * np.concatenate([[0], cells[:-1]]) + 9 * cells + 16 * hits
    _check_budget(
        f"the tables of {d} column classes over {atoms} atoms",
        _key_bytes(len(keys), atoms) + atoms * (d + 48) + int(step.max()) + CAST_BUFFER
        + 48 * d * d,
    )
    k = np.bincount(classes)
    columns = np.ascontiguousarray(bits[:, first].T)

    # Each atom's hit count as an exact integer row count; a float mat-vec
    # gives the same values but wakes a BLAS worker thread.
    z = np.count_nonzero(bits, axis=1).astype(np.float64)
    terms = (weights * (z > 0), weights * z, weights * (z * z))
    prob_hit, ez, ez2 = (np.cumsum(column)[-1] for column in terms)

    # Row a, from column a on, sums the atoms where class a fires, in atom
    # order, with one cumsum for the whole row: the 0.0 terms (where class b
    # does not fire) leave a left-to-right sum as it is.  Each cell is the
    # plain loop over the atoms where both fire, bit for bit, and the
    # diagonal is p.
    m = np.zeros((d, d))
    for a in range(d):
        fired = columns[a]
        rows = np.compress(fired, columns[a:], axis=1) * weights[fired]
        if rows.shape[1]:
            m[a, a:] = m[a:, a] = np.cumsum(rows, axis=1, out=rows)[:, -1]
    m.setflags(write=False)
    p = m.diagonal()
    excess = m - np.outer(p, p)
    pairs = np.outer(k, k) - np.diag(k)  # ordered pairs per class pair
    paired = excess[pairs > 0]
    return JointSummary(
        MarginalVector(p[classes].tolist(), _summed_slack(atoms)), classes, m,
        float(prob_hit), float(ez), float(ez2), float((pairs * np.maximum(excess, 0.0)).sum()),
        float(paired.max(initial=-math.inf)), float(np.abs(paired).max(initial=0.0)),
    )


def marginals(joint: JointBernoulli) -> MarginalVector:
    """P(X_i = 1) for each variable."""
    return joint.summary.marginals


def prob_hit(joint: JointBernoulli) -> float:
    """P(Z > 0): total mass off the zero mask, i.e. E[max_i X_i]."""
    return joint.summary.prob_hit


def prob_hit_independent(marginal: MarginalVector) -> float:
    """P(Z~ > 0) = 1 - prod_i (1 - p_i) for the independent version."""
    return 1.0 - marginal.prob_none


def moments_of_z(joint: JointBernoulli) -> tuple[float, float]:
    """(E[Z], E[Z^2]) where Z is the number of variables that fire."""
    return joint.summary.ez, joint.summary.ez2


def is_pairwise_independent(joint: JointBernoulli) -> bool:
    """True iff |P(X_i=1, X_j=1) - p_i p_j| <= tau for every pair i != j, with
    `bounds.main_lower_check`'s tau, which every exactly pairwise independent
    law passes: each computed excess is within (3 atoms + 2) u < tau of exact."""
    return joint.summary.max_abs_excess <= _summed_slack(_excess_terms(len(joint.masks)))


class _GuideTable:
    """Inverse CDF over a cumulative mass table, by guide table (Chen and
    Asau 1974; Devroye 1986, section III.2.4).

    `indices(u)` equals min(searchsorted(cum, u, "right"), len(cum) - 1)
    index for index, for every u in [0, 1): the first atom whose cumulative
    mass exceeds u, or the last atom if rounding leaves u above the total.
    With m a power of two at least the atom count, u m is exact, so bucket
    b = floor(u m) can start at the answer for u = b/m; a short vectorised
    forward scan finishes.  Draws still moving after GUIDE_SCAN_STEPS
    steps, in buckets crowded with tiny atoms, finish by bisection.
    """

    def __init__(self, cum: np.ndarray):
        self.cum = cum
        self.last = len(cum) - 1
        self.buckets = 1 << self.last.bit_length()
        starts = np.arange(self.buckets) / self.buckets
        self.guide = np.minimum(np.searchsorted(cum, starts, "right"), self.last)

    def indices(self, u: np.ndarray) -> np.ndarray:
        cum, last = self.cum, self.last
        idx = self.guide[(u * self.buckets).astype(np.intp)]
        moving = np.flatnonzero((idx < last) & (cum[idx] <= u))
        for _ in range(GUIDE_SCAN_STEPS):
            idx[moving] += 1
            moving = moving[(idx[moving] < last) & (cum[idx[moving]] <= u[moving])]
        idx[moving] = np.minimum(np.searchsorted(cum, u[moving], "right"), last)
        return idx


def _sample_indices(joint: JointBernoulli, seed: int, count: int) -> Iterator[np.ndarray]:
    """Atom indices of `count` inverse-CDF draws, SAMPLE_CHUNK at a time.

    u comes from PCG64, which gives the same stream in chunks as in one
    call, so the chunk size changes no draw; the cumulative masses are
    summed left to right in table order.
    """
    table = _GuideTable(np.cumsum(joint.probs))
    rng = np.random.default_rng(seed)
    for start in range(0, count, SAMPLE_CHUNK):
        yield table.indices(rng.random(min(SAMPLE_CHUNK, count - start)))


def sample(joint: JointBernoulli, seed: int, count: int) -> list[int]:
    """Draw `count` atom masks by inverse CDF over the ascending-mask table.

    The inverse CDF is a guide-table search (`_GuideTable`), and u is drawn
    SAMPLE_CHUNK at a time by `_sample_indices`, the kernel the `sample`
    command streams from; only the returned list grows with `count`.  The
    draws equal one bisection over one PCG64 stream, draw for draw, so they
    are deterministic given the seed; disjoint seeds give independent
    streams, which is how parallel sampling should split work.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    masks = np.array(joint.masks, dtype=object)
    draws: list[int] = []
    for idx in _sample_indices(joint, seed, count):
        draws += masks[idx].tolist()
    return draws


def permute_variables(joint: JointBernoulli, perm: Sequence[int]) -> JointBernoulli:
    """Relabel variables: new variable perm[i] is old variable i.

    The table is charged before it is made.  Bit i of the packed table
    (`_packed`) moves to bit perm[i] of a second one, one variable at a
    time, so no atoms x n bit table is held."""
    if sorted(perm) != list(range(joint.n)):
        raise ValueError(f"perm must be a permutation of 0..{joint.n - 1}")
    _check_table(joint.n, len(joint.masks))
    table = joint._packed()
    moved = np.zeros((len(table), (joint.n + 7) // 8), dtype=np.uint8)
    for i, j in enumerate(map(int, perm[: 8 * table.shape[1]])):  # later ones never fire
        moved[:, j >> 3] |= ((table[:, i >> 3] >> (i & 7)) & 1) << (j & 7)
    masks = [int.from_bytes(row, "little") for row in moved]
    del table, moved  # the load path's peak comes next, and the charge has no room for both
    return JointBernoulli(joint.n, zip(masks, joint.probs))

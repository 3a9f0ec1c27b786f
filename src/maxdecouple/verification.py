"""Randomized property battery over every module's invariants.

The battery drives randomized instances (joints, nonnegative joints,
marginal vectors) plus the deterministic named families through every
universal and conditional inequality in the package.  All randomness flows
from one seed through spawned child streams, so a given (seed, trials)
pair always produces byte-identical results; a failing instance is
serialized as JSON so it can be replayed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bounds, continuous, optimize
from .constructions import (
    affine_hash,
    comonotone,
    conjectured_extremal,
    expand_exchangeable,
    one_hot_uniform,
    product,
    xor_parity,
)
from .continuous import NonnegJoint
from .dist import (
    JointBernoulli,
    MarginalVector,
    _summed_slack,
    is_pairwise_independent,
    marginals,
    moments_of_z,
    permute_variables,
    prob_hit,
    prob_hit_independent,
    sample,
)
from .errors import InvariantError

MAX_COUNTEREXAMPLES = 3


@dataclass
class PropertyResult:
    name: str
    passes: int = 0
    failures: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    @property
    def total(self) -> int:
        return self.passes + self.failures

    def record(self, ok: bool, instance: str | None = None) -> None:
        if ok:
            self.passes += 1
        else:
            self.failures += 1
            if instance and len(self.counterexamples) < MAX_COUNTEREXAMPLES:
                self.counterexamples.append(instance)


def random_joint(rng: np.random.Generator) -> JointBernoulli:
    """Sparse random joint of up to 10 variables and 16 atoms, any dependence."""
    n = int(rng.integers(1, 11))
    size = 1 << n
    support = int(rng.integers(1, min(size, 16) + 1))
    masks = rng.choice(size, size=support, replace=False)
    weights = rng.random(support) + 1e-3  # keep atoms away from zero mass
    probs = weights / weights.sum()
    return JointBernoulli(n, {int(m): float(p) for m, p in zip(masks, probs)})


def random_nonneg_joint(rng: np.random.Generator) -> NonnegJoint:
    """Nonneg joint of up to 6 variables and 8 atoms; lattice values force ties."""
    n = int(rng.integers(1, 7))
    support = int(rng.integers(1, 9))
    rows = []
    for _ in range(support):
        values = tuple(
            float(rng.integers(0, 4)) * 0.5
            if rng.random() < 0.5
            else float(rng.uniform(0.0, 3.0))
            for _ in range(n)
        )
        rows.append(values)
    weights = rng.random(support) + 1e-3
    probs = weights / weights.sum()
    return NonnegJoint(n, [(v, float(p)) for v, p in zip(rows, probs)])


def random_marginals(rng: np.random.Generator) -> MarginalVector:
    n = int(rng.integers(1, 21))
    return MarginalVector([float(x) for x in rng.random(n)])


def _joint_json(joint: JointBernoulli | NonnegJoint) -> str:
    return json.dumps(joint.to_json_dict(), separators=(",", ":"))


def _ordered_pairs(joint: JointBernoulli) -> np.ndarray:
    """Ordered pairs i != j of variables per class pair of `joint.summary`:
    k_a k_b across two classes, k_a (k_a - 1) within one."""
    k = np.bincount(joint.summary.classes)
    return np.outer(k, k) - np.diag(k)


def _check_joint_properties(
    joint: JointBernoulli, rng: np.random.Generator, tallies: dict[str, PropertyResult]
) -> None:
    doc = _joint_json(joint)
    report = bounds.full_report(joint)
    m = report.M
    ez, ez2 = moments_of_z(joint)
    # The eta verdict's count bounds each identity below: the second-moment
    # one rounds 3 atoms + n + n^2 + 3 times, the others at most 2r + 1,
    # r = `bounds._roundings`.
    slack = _summed_slack(6 * bounds._roundings(len(joint.masks), joint.n) + joint.n**2)

    tallies["prob-hit-range-and-union-bound"].record(
        0.0 <= m and bounds.holds(m, 1.0, slack) and bounds.holds(m, ez, slack), doc
    )

    # E[Z^2] recomputed from the pair moments must match the atom scan.
    pair_total = (_ordered_pairs(joint) * joint.summary.pair_moments).sum()
    recomposed = sum(marginals(joint).p) + float(pair_total)
    tallies["second-moment-identity"].record(
        bounds.holds(ez2, recomposed, slack) and bounds.holds(recomposed, ez2, slack), doc
    )

    tallies["pinelis-universal"].record(report.verdicts["pinelis"], doc)
    tallies["paley-zygmund-universal"].record(report.verdicts["paley_zygmund"], doc)
    tallies["eta-bound-universal"].record(report.verdicts["eta_lower"], doc)
    tallies["main-bound-under-negative-covariance"].record(
        report.verdicts["main_lower"], doc
    )
    tallies["ratio-cap"].record(bounds.holds(report.M_tilde, joint.n * m, slack), doc)

    relabeled = permute_variables(joint, [int(x) for x in rng.permutation(joint.n)])
    tallies["pairwise-flag-permutation-invariant"].record(
        is_pairwise_independent(joint) == is_pairwise_independent(relabeled), doc
    )

    # The report's C and eta_lower are the right-hand sides of
    # `main_lower_check` and `eta_lower_check`: with H = 0 they are the
    # same product, 0.5 * M~, bit for bit.
    tallies["eta-reduces-to-main-when-h-zero"].record(
        report.H != 0.0 or report.eta_lower == report.C, doc
    )

    check = continuous.decoupling_check_cont(continuous.bernoulli_embedding(joint))
    agreed = (
        check.emax == m
        and check.emax_ind == report.M_tilde
        and check.upper_holds == report.verdicts["pinelis"]
        and check.pairwise_ok == report.verdicts["main_lower_applicable"]
    )
    tallies["bernoulli-embedding-commutes"].record(agreed, doc)


def _strictly_increasing_map(rng: np.random.Generator):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.0, 1.0))
        return lambda v: a * v + b
    if kind == 1:
        return lambda v: v * v
    return lambda v: v / (1.0 + v)


def _check_nonneg_properties(
    joint: NonnegJoint, rng: np.random.Generator, tallies: dict[str, PropertyResult]
) -> None:
    doc = _joint_json(joint)
    try:
        check = continuous.decoupling_check_cont(joint)
    except InvariantError:
        # expected_max's internal tail-integral cross-check tripped
        tallies["layer-cake-identity"].record(False, doc)
        return
    tallies["layer-cake-identity"].record(True, doc)
    tallies["continuous-upper-universal"].record(check.upper_holds, doc)
    tallies["continuous-lower-under-orthant"].record(
        check.lower_holds if check.pairwise_ok else True, doc
    )

    f = _strictly_increasing_map(rng)
    mapped = NonnegJoint(
        joint.n, [(tuple(f(v) for v in vec), p) for vec, p in joint.atoms]
    )
    same = continuous.pairwise_orthant_ok(mapped) == check.pairwise_ok
    delta = float(rng.uniform(0.4, 1.1))
    floored = NonnegJoint(
        joint.n,
        [
            (tuple(math.floor(v / delta) * delta for v in vec), p)
            for vec, p in joint.atoms
        ],
    )
    weak_ok = (not check.pairwise_ok) or continuous.pairwise_orthant_ok(floored)
    tallies["monotone-transform-preserves-orthant-flag"].record(same and weak_ok, doc)


def _check_family_properties(tallies: dict[str, PropertyResult]) -> None:
    """The named families, the maximally positively dependent ones among
    them, each built once; every property records its joints in a fixed
    order."""
    extremal = [conjectured_extremal(n) for n in range(3, 13)]
    xor = [xor_parity(k) for k in range(1, 5)]
    hashes = [affine_hash(q, q, m) for q, m in ((2, 1), (3, 1), (3, 2), (5, 2), (7, 3))]
    one_hot = [one_hot_uniform(n) for n in (1, 2, 3, 8, 16)]
    universal = [
        *extremal, *xor, *hashes, affine_hash(11, 11, 4), affine_hash(13, 13, 5), *one_hot,
        *(comonotone(n, eps) for n, eps in ((2, 0.1), (8, 1e-6), (5, 0.0), (5, 1.0), (3, 0.5))),
        product(MarginalVector((0.3, 0.7))), product(MarginalVector((0.5,) * 4)),
    ]
    pairwise = [
        *extremal, *xor, *hashes, *(affine_hash(8, q, m) for q, m in ((11, 4), (13, 5), (31, 11))),
        product(MarginalVector((0.25, 0.5, 0.75))),
    ]

    for joint in universal:
        tallies["families-universal-verdicts"].record(
            bounds.full_report(joint).universal_ok, _joint_json(joint)
        )
    for joint in pairwise:
        doc = _joint_json(joint)
        tallies["families-pairwise-independent"].record(
            is_pairwise_independent(joint), doc
        )
        main = bounds.main_lower_check(joint)
        tallies["families-half-lower-bound"].record(main.applicable and main.holds, doc)
    for n, joint in enumerate(extremal, 3):
        # Off 1/(n - 1) by the roundings of the target, P(Z = 0) (two) and P(Z = 2),
        # and under ulp(P(Z = 2)) = u in each of n - 1 atoms summed exactly: n + 3.
        target = 1.0 / (n - 1)
        tallies["extremal-marginals"].record(
            max(abs(x - target) for x in marginals(joint).p) <= _summed_slack(n + 3),
            _joint_json(joint),
        )
    for joint in one_hot:
        tallies["one-hot-hit-probability-exactly-one"].record(
            prob_hit(joint) == 1.0, _joint_json(joint)
        )


def _certified(n: int, p: Fraction):
    """`optimize.full_optimum`, or None if its certificate fails."""
    try:
        return optimize.full_optimum(n, p)
    except InvariantError:
        return None


def _check_lp_properties(tallies: dict[str, PropertyResult]) -> None:
    for n in (2, 3, 4, 5, 6):
        candidates = [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(1, n - 1)]
        for p in dict.fromkeys(candidates):
            tag = f'{{"lp":{{"n":{n},"p":"{p}"}}}}'
            joint = product(MarginalVector((float(p),) * n))
            marg = marginals(joint).p
            paired = joint.summary.pair_moments[_ordered_pairs(joint) > 0]
            pf, p2f = float(p), float(p) * float(p)
            # An atom rounds n products, and 1 - p moves each sum by (n - 1) u more;
            # a moment sums up to `atoms` of them, p^2 rounds twice: atoms + 2n + 1.
            slack = _summed_slack(len(joint.masks) + 2 * n + 1)
            marg_ok = max(abs(x - pf) for x in marg) <= slack
            feasible = marg_ok and bool((abs(paired - p2f) <= slack).all())
            certified = _certified(n, p) is not None
            tallies["lp-product-feasibility"].record(feasible and certified, tag)

    for n in (3, 4, 5):
        for p in (Fraction(1, n - 1), Fraction(3, 10)):
            exch = optimize.exchangeable_optimum(n, p)
            full = _certified(n, p)
            tag = f'{{"lp":{{"n":{n},"p":"{p}"}}}}'
            tallies["lp-reduction-soundness"].record(
                full is not None and full.objective_exact == exch.objective_exact, tag
            )
            witness = expand_exchangeable(n, exch.weights_exact)
            # Each class's atoms sum exactly to its float total, which
            # rounds the exact weight once (at most n + 1 of them);
            # prob_hit sums the atoms left to right, fewer roundings
            # than there are atoms; the objective rounds once.
            roundtrip = _summed_slack(len(witness.masks) + n + 2)
            tallies["lp-witness-roundtrip"].record(
                bounds.holds(abs(prob_hit(witness) - exch.objective), 0.0, roundtrip)
                and is_pairwise_independent(witness),
                tag,
            )
            s = n * float(p)
            pz = s * s / (s + s * s) if s > 0 else 0.0
            half = 0.5 * prob_hit_independent(MarginalVector((float(p),) * n))
            # pz rounds p, s, s^2, s + s^2 and the quotient: 5 times.
            # In half, p's rounding moves 1 - P by at most u, as
            # n p (1 - p)^(n-1) <= 1; 1 - p's enters n times, and the
            # n - 1 products and 1 - P round once each: 2n + 1 in all.
            # The objective rounds once more.
            tallies["lp-objective-bound-consistency"].record(
                bounds.holds(pz, exch.objective, _summed_slack(2 * n + 2))
                and bounds.holds(half, exch.objective, _summed_slack(2 * n + 2)),
                tag,
            )


def _check_sampling(tallies: dict[str, PropertyResult]) -> None:
    joint = conjectured_extremal(4)
    first = sample(joint, seed=7, count=2000)
    second = sample(joint, seed=7, count=2000)
    tallies["sample-reproducible"].record(first == second, _joint_json(joint))
    point = JointBernoulli(2, {1: 1.0})
    tallies["sample-point-mass"].record(
        sample(point, seed=0, count=50) == [1] * 50, _joint_json(point)
    )


PROPERTY_NAMES = (
    "prob-hit-range-and-union-bound",
    "second-moment-identity",
    "pinelis-universal",
    "paley-zygmund-universal",
    "eta-bound-universal",
    "main-bound-under-negative-covariance",
    "ratio-cap",
    "pairwise-flag-permutation-invariant",
    "eta-reduces-to-main-when-h-zero",
    "bernoulli-embedding-commutes",
    "g-nonnegative",
    "layer-cake-identity",
    "continuous-upper-universal",
    "continuous-lower-under-orthant",
    "monotone-transform-preserves-orthant-flag",
    "families-universal-verdicts",
    "families-pairwise-independent",
    "families-half-lower-bound",
    "extremal-marginals",
    "one-hot-hit-probability-exactly-one",
    "lp-product-feasibility",
    "lp-reduction-soundness",
    "lp-witness-roundtrip",
    "lp-objective-bound-consistency",
    "sample-reproducible",
    "sample-point-mass",
)


def run_battery(seed: int, trials: int) -> list[PropertyResult]:
    """Run every property `trials` times (randomized ones) and tally."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    tallies = {name: PropertyResult(name) for name in PROPERTY_NAMES}
    seq = np.random.SeedSequence(seed)
    joint_rng, nonneg_rng, marg_rng = (
        np.random.default_rng(s) for s in seq.spawn(3)
    )

    for _ in range(trials):
        _check_joint_properties(random_joint(joint_rng), joint_rng, tallies)
    for _ in range(trials):
        _check_nonneg_properties(random_nonneg_joint(nonneg_rng), nonneg_rng, tallies)
    for _ in range(trials):
        marg = random_marginals(marg_rng)
        g, _ = bounds.g_function(marg)
        tallies["g-nonnegative"].record(
            bounds.holds(0.0, g, _summed_slack(bounds._g_terms(0, marg.n))),
            json.dumps({"kind": "marginals", "p": list(marg.p)}),
        )

    _check_family_properties(tallies)
    _check_lp_properties(tallies)
    _check_sampling(tallies)
    return [tallies[name] for name in PROPERTY_NAMES]


def format_battery(seed: int, trials: int, results: list[PropertyResult]) -> str:
    """Human-readable, byte-deterministic battery summary."""
    width = max(len(r.name) for r in results)
    lines = [f"verification battery: seed={seed} trials={trials}"]
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        lines.append(f"{status} {r.name.ljust(width)} {r.passes}/{r.total}")
        for doc in r.counterexamples:
            lines.append(f"     counterexample: {doc}")
    bad = sum(1 for r in results if not r.ok)
    total = sum(r.total for r in results)
    if bad:
        lines.append(f"{bad} properties FAILED out of {len(results)} ({total} checks)")
    else:
        lines.append(f"all {len(results)} properties passed ({total} checks)")
    return "\n".join(lines) + "\n"

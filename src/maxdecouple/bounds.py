"""Decoupling inequalities between a joint Bernoulli family and its
independent version.

Let M = P(Z > 0) for the joint and M~ = P(Z~ > 0) for independent copies
with the same marginals.  The bounds computed here:

  upper:        M <= c * M~           with c = e/(e-1), for every joint;
  lower:        M >= M~ / 2           under pairwise independence, or the
                                      weaker condition E[X_i X_j] <= p_i p_j
                                      (negative pairwise covariance);
  corrected:    M >= (1 - H/(B+H)) * M~ / 2   for every joint, where H
                totals the positive-part excess correlations and B = S + S^2
                with S the sum of marginals.

The lower bound runs through Paley-Zygmund applied to Z, which is why the
report also carries (E Z)^2 / E[Z^2] and the nonnegative factorization
certificate G (see `g_function`).

Every check reads the joint's cached `summary` (`dist.JointSummary`), so a
report scans the atom table once, however many checks it runs.  Every
verdict, and the negative-covariance test, takes its slack from the one
rule `dist._summed_slack`, with the roundings each check derives below from
the joint's atoms and variables n, and those of a pair's excess counted by
`dist._excess_terms`; u = 2^-53 and F = `dist._summed_slack(0)`, the
rule's floor, throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .dist import JointBernoulli, MarginalVector, _excess_terms, _summed_slack
from .dist import prob_hit_independent

# Optimal constant in the upper decoupling bound.  Never hard-code a decimal
# truncation of these; all comparisons derive from math.e at full precision.
PINELIS_CONSTANT = math.e / (math.e - 1.0)

# Half the upper constant, the ratio limit of `conjectured_extremal`.  Not
# the best lower constant: pairwise independent three-hot laws at
# p = 2/(n-1) go below it from n = 17 on (0.789941 at n = 17).
CONJECTURED_LOWER_CONSTANT = math.e / (2.0 * (math.e - 1.0))


def holds(lhs: float, rhs: float, slack: float, scale: float = 0.0) -> bool:
    """lhs <= rhs up to slack * max(1, scale, |lhs|, |rhs|): the one verdict
    rule of the package.  `slack` is `dist._summed_slack` of the roundings
    both sides carry, relative to the larger side (F = S*G reaches 1.1e6 on
    comonotone(1500, 0.7)); `scale` bounds the magnitude the roundings act
    on where that can exceed both sides, as the largest value does for a
    tail integral."""
    return lhs <= rhs + slack * max(1.0, scale, abs(lhs), abs(rhs))


def _roundings(atoms: int, n: int) -> int:
    """r = atoms + 2n: each scalar a report reads from the summary of a
    joint with that many atoms over n variables is within
    r u max(1, |value|) of its exact value.  M, E Z, E Z^2 and each
    marginal are left-to-right sums of at most `atoms` terms, and S adds n
    of them.  P = prod(1 - p_i) rounds 2n - 1 times on values at most 1;
    the marginals' errors, at most atoms u p_i each, move it by at most
    atoms u P(Z~ = 1) <= atoms u; and M~ = 1 - P rounds once more."""
    return atoms + 2 * n


def _upper_terms(atoms: int, n: int, thresholds: int = 1) -> int:
    """Roundings of M <= c M~ and of M~/2 <= M, or of their expectations
    over `thresholds` thresholds, with r = `_roundings`: M~, or its tail
    integral in units of the largest value, is within
    (r + thresholds + 1) u of exact (each interval's length and term round
    once, and the sum once per interval); c < 2 doubles that and adds 4 u
    for c itself and the product; and M, or the direct E max, adds
    atoms u <= r u."""
    return 3 * _roundings(atoms, n) + 2 * thresholds + 6


def _g_terms(atoms: int, n: int) -> int:
    """Roundings of the verdict G >= 0.  G >= 0 holds exactly for the
    computed marginals once each is at most 1; a summed marginal may pass 1
    by eps <= `_summed_slack(atoms)`, which lowers G by at most eps (1 + eps).
    The 2n - 1 roundings of S and P and the four of G, each weighted by
    the factor it meets, come to at most (10n + 4) u max(1, |G|), as
    |G| >= S - 1 bounds S by 2 max(1, |G|)."""
    return 2 * atoms + 10 * n + 4


class InequalityCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


class MainLowerCheck(NamedTuple):
    lhs: float
    rhs: float
    applicable: bool
    holds: bool


class GFactorization(NamedTuple):
    g: float
    f: float


class BoundReport(NamedTuple):
    """Every scalar the bound battery produces for one joint.

    `report` prints `_asdict()`, so the field names are the JSON keys and
    the CSV header.  `verdicts` maps each inequality to its boolean
    outcome; `universal_ok` folds together the verdicts that must hold for
    every valid joint, so a False there means a malformed input or a
    library bug, never a legitimately failing bound.
    """

    M: float
    M_tilde: float
    S: float
    P_prod: float
    G: float
    F: float
    A: float
    B: float
    C: float
    H: float
    pz_lower: float
    pinelis_rhs: float
    eta_lower: float
    verdicts: dict[str, bool]

    # Verdicts that hold for every valid joint, with no dependence assumption.
    _UNIVERSAL_VERDICTS = (
        "pinelis",
        "paley_zygmund",
        "eta_lower",
        "g_nonnegative",
        "factorization",
        "moment_implication",
        "main_lower",
    )

    @property
    def universal_ok(self) -> bool:
        return all(self.verdicts[name] for name in self._UNIVERSAL_VERDICTS)


def pinelis_upper_check(joint: JointBernoulli) -> InequalityCheck:
    """Check P(Z > 0) <= c * P(Z~ > 0) with c = e/(e-1).

    Holds for every joint regardless of dependence; a False verdict means
    the input is corrupt or there is a bug.  Slack: `_upper_terms`.
    """
    lhs = joint.summary.prob_hit
    rhs = PINELIS_CONSTANT * prob_hit_independent(joint.summary.marginals)
    slack = _summed_slack(_upper_terms(len(joint.masks), joint.n))
    return InequalityCheck(lhs, rhs, holds(lhs, rhs, slack))


def paley_zygmund_lower(joint: JointBernoulli) -> float:
    """(E Z)^2 / E[Z^2], a lower bound on P(Z > 0) valid for every joint."""
    ez, ez2 = joint.summary.ez, joint.summary.ez2
    if ez2 <= 0.0:
        return 0.0
    return (ez * ez) / ez2


def main_lower_check(joint: JointBernoulli) -> MainLowerCheck:
    """Check P(Z > 0) >= P(Z~ > 0) / 2 under negative pairwise covariance.

    `applicable` reports whether every pair satisfies
    E[X_i X_j] - p_i p_j <= tau, with tau = `_summed_slack` of
    `_excess_terms`: the excess of a pairwise independent law rounds to at
    most that.  When applicable is True the bound is guaranteed, so holds
    must be True; when it is False no claim is made and `holds` merely
    reports the raw comparison.

    The slack is `_summed_slack(r)` + n (n - 1) tau, r = `_roundings`, and
    with it applicable implies holds.  Each computed excess is within
    (3 atoms + 2) u < tau - F of the exact one, so applicable bounds every
    exact excess by 2 tau - F, and H, which sums n (n - 1) of them
    clipped, by n (n - 1) (2 tau - F).  The eta-corrected bound
    then gives M >= M~/2 - (M~/2) H/(B + H) >= M~/2 - H/2 exactly, as
    M~ <= S <= B.  As computed, M is within atoms u and M~/2 within r u/2,
    so the computed sides differ by at most
    n (n - 1) (tau - F/2) + 1.5 r u, under the slack; the spare
    n (n - 1) F/2 covers a table whose mass misses 1 by up to F.
    """
    tau = _summed_slack(_excess_terms(len(joint.masks)))
    applicable = joint.summary.max_excess <= tau
    lhs = joint.summary.prob_hit
    rhs = 0.5 * prob_hit_independent(joint.summary.marginals)
    slack = _summed_slack(_roundings(len(joint.masks), joint.n)) + joint.n * (joint.n - 1) * tau
    return MainLowerCheck(lhs, rhs, applicable, holds(rhs, lhs, slack))


def eta_lower_check(joint: JointBernoulli) -> InequalityCheck:
    """Check P(Z > 0) >= (1 - H/(B+H)) * P(Z~ > 0) / 2 for any joint.

    H totals the clipped excess correlations over ordered pairs and
    B = S + S^2.  When B + H = 0 (all marginals zero) both sides vanish and
    the right-hand side is defined as 0.

    Slack: 6r + n^2 roundings, r = `_roundings`.  Each excess is within
    (3 atoms + 2) u of the larger of E[X_i X_j] and p_i p_j, and over the
    ordered pairs those sum to at most E[Z^2] - E Z + S^2 <= 2 (B + H), so
    H, which rounds n^2 + 1 times more, is within
    (6 atoms + n^2 + 5) u (B + H).  B is within (2 atoms + 2n + 2) u B, so
    H/(B + H) is within (8 atoms + 2n + n^2 + 9) u after its two roundings;
    the right-hand side is then within (4.5 atoms + 2n + n^2/2 + 6) u, and
    M adds atoms u, which is at most (6r + n^2) u.
    """
    summary = joint.summary
    s = summary.marginals.total
    b = s + s * s
    h = summary.h
    if b + h == 0.0:
        rhs = 0.0
    else:
        rhs = 0.5 * (1.0 - h / (b + h)) * prob_hit_independent(summary.marginals)
    lhs = summary.prob_hit
    slack = _summed_slack(6 * _roundings(len(joint.masks), joint.n) + joint.n * joint.n)
    return InequalityCheck(lhs, rhs, holds(rhs, lhs, slack))


def g_function(marginal: MarginalVector) -> GFactorization:
    """Nonnegativity certificate for the halved lower bound.

    G = S + P + S*P - 1 with S the marginal sum and P = prod(1 - p_i), and
    F = S*G.  G >= 0 for every marginal vector in [0,1]^n: when S >= 1 each
    remaining term is nonnegative, and when S < 1 the elementary bound
    P >= 1 - S gives G >= S(1 - S) >= 0.  F >= 0 is exactly what makes the
    Paley-Zygmund route beat half of P(Z~ > 0).
    """
    s = marginal.total
    p_prod = marginal.prob_none
    g = s + p_prod + s * p_prod - 1.0
    return GFactorization(g, s * g)


def full_report(joint: JointBernoulli) -> BoundReport:
    """Evaluate every bound on one joint and collect the scalar evidence.

    The slacks of the verdicts not derived in their own checks:
    paley_zygmund 4r, r = `_roundings`, as (E Z)^2 / E[Z^2] rounds
    3 atoms + 2 times and M atoms times; g_nonnegative `_g_terms`;
    factorization 80, as both forms are evaluated from the same S and P,
    so only their own eleven roundings count, which come to at most
    (10 S^2 + 5S + 3|F|) u, under 80 u max(1, |F|) as |F| >= S^2/2 when
    S >= 2; moment_implication is exact arithmetic on the computed
    scalars: a premise within the floor gives a conclusion within it,
    after eight more roundings of values at most 1.
    """
    summary = joint.summary
    p = summary.marginals
    s = p.total
    p_prod = p.prob_none

    m = summary.prob_hit
    mtilde = prob_hit_independent(p)
    g, f = g_function(p)
    pz = paley_zygmund_lower(joint)
    h = summary.h

    upper = pinelis_upper_check(joint)
    lower = main_lower_check(joint)
    eta = eta_lower_check(joint)

    a = s * s
    b = s + a
    c = lower.rhs

    # F also has a direct polynomial form, 2S^2 - (S + S^2)(1 - P); agreement
    # with S*G is the factorization identity, checked as a genuine dual route.
    f_direct = 2.0 * s * s - (s + s * s) * (1.0 - p_prod)

    # The arithmetic implication behind the eta correction: A/B >= C forces
    # A/(B+H) >= C * (1 - H/(B+H)).  Checked on the computed scalars.
    if b > 0.0 and holds(c, a / b, _summed_slack(0)):
        implication_ok = holds(c * (1.0 - h / (b + h)), a / (b + h), _summed_slack(8))
    else:
        implication_ok = True

    verdicts = {
        "pinelis": upper.holds,
        "paley_zygmund": holds(pz, m, _summed_slack(4 * _roundings(len(joint.masks), joint.n))),
        "main_lower_applicable": lower.applicable,
        "main_lower": lower.holds if lower.applicable else True,
        "eta_lower": eta.holds,
        "g_nonnegative": holds(0.0, g, _summed_slack(_g_terms(len(joint.masks), joint.n))),
        "factorization": holds(f_direct, f, _summed_slack(80))
        and holds(f, f_direct, _summed_slack(80)),
        "moment_implication": implication_ok,
    }
    return BoundReport(
        M=m,
        M_tilde=mtilde,
        S=s,
        P_prod=p_prod,
        G=g,
        F=f,
        A=a,
        B=b,
        C=c,
        H=h,
        pz_lower=pz,
        pinelis_rhs=upper.rhs,
        eta_lower=eta.rhs,
        verdicts=verdicts,
    )

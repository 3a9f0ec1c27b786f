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
report scans the atom table once, however many checks it runs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .dist import JointBernoulli, MarginalVector, _check_tolerance, prob_hit_independent

# Optimal constant in the upper decoupling bound.  Never hard-code a decimal
# truncation of these; all comparisons derive from math.e at full precision.
PINELIS_CONSTANT = math.e / (math.e - 1.0)

# Half the upper constant, the ratio limit of `conjectured_extremal`.  Not
# the best lower constant: pairwise independent three-hot laws at
# p = 2/(n-1) go below it from n = 17 on (0.789941 at n = 17).
CONJECTURED_LOWER_CONSTANT = math.e / (2.0 * (math.e - 1.0))

# Slack of every inequality verdict, relative to the larger compared term
# (floored at 1) and read only by `holds`: rounding moves a term by a few
# ulps of its magnitude, and F = S*G reaches 1.1e6 on comonotone(1500, 0.7).
VERDICT_SLACK = 1e-12

# Default tolerance for the negative-covariance applicability test.
DEFAULT_COVARIANCE_TOL = 1e-12


def holds(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to VERDICT_SLACK * max(1, |lhs|, |rhs|): the one
    verdict rule of the package."""
    return lhs <= rhs + VERDICT_SLACK * max(1.0, abs(lhs), abs(rhs))


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


@dataclass(frozen=True)
class BoundReport:
    """Every scalar the bound battery produces for one joint.

    Field names match the JSON serialization exactly.  `verdicts` maps each
    inequality to its boolean outcome; `universal_ok` folds together the
    verdicts that must hold for every valid joint, so a False there means a
    malformed input or a library bug, never a legitimately failing bound.
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

    def to_json_dict(self) -> dict:
        return asdict(self)


def pinelis_upper_check(joint: JointBernoulli) -> InequalityCheck:
    """Check P(Z > 0) <= c * P(Z~ > 0) with c = e/(e-1).

    Holds for every joint regardless of dependence; a False verdict means
    the input is corrupt or there is a bug.
    """
    lhs = joint.summary.prob_hit
    rhs = PINELIS_CONSTANT * prob_hit_independent(joint.summary.marginals)
    return InequalityCheck(lhs, rhs, holds(lhs, rhs))


def paley_zygmund_lower(joint: JointBernoulli) -> float:
    """(E Z)^2 / E[Z^2], a lower bound on P(Z > 0) valid for every joint."""
    ez, ez2 = joint.summary.ez, joint.summary.ez2
    if ez2 <= 0.0:
        return 0.0
    return (ez * ez) / ez2


def main_lower_check(
    joint: JointBernoulli, tol: float = DEFAULT_COVARIANCE_TOL
) -> MainLowerCheck:
    """Check P(Z > 0) >= P(Z~ > 0) / 2 under negative pairwise covariance.

    `applicable` reports whether every pair satisfies
    E[X_i X_j] - p_i p_j <= tol (pairwise independence passes a fortiori).
    When applicable is True the bound is guaranteed, so holds must be True;
    when it is False no claim is made and `holds` merely reports the raw
    comparison.  A NaN `tol` raises ValueError.
    """
    _check_tolerance(tol)
    applicable = joint.summary.max_excess <= tol
    lhs = joint.summary.prob_hit
    rhs = 0.5 * prob_hit_independent(joint.summary.marginals)
    return MainLowerCheck(lhs, rhs, applicable, holds(rhs, lhs))


def eta_lower_check(joint: JointBernoulli) -> InequalityCheck:
    """Check P(Z > 0) >= (1 - H/(B+H)) * P(Z~ > 0) / 2 for any joint.

    H totals the clipped excess correlations over ordered pairs and
    B = S + S^2.  When B + H = 0 (all marginals zero) both sides vanish and
    the right-hand side is defined as 0.
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
    return InequalityCheck(lhs, rhs, holds(rhs, lhs))


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


def full_report(
    joint: JointBernoulli, tol: float = DEFAULT_COVARIANCE_TOL
) -> BoundReport:
    """Evaluate every bound on one joint and collect the scalar evidence."""
    summary = joint.summary
    p = summary.marginals
    s = p.total
    p_prod = p.prob_none

    m = summary.prob_hit
    mtilde = prob_hit_independent(p)
    g, f = g_function(p)
    pz = paley_zygmund_lower(joint)
    h = summary.h

    a = s * s
    b = s + s * s
    c = 0.5 * mtilde

    upper = pinelis_upper_check(joint)
    lower = main_lower_check(joint, tol)
    eta = eta_lower_check(joint)

    # F also has a direct polynomial form, 2S^2 - (S + S^2)(1 - P); agreement
    # with S*G is the factorization identity, checked as a genuine dual route.
    f_direct = 2.0 * s * s - (s + s * s) * (1.0 - p_prod)

    # The arithmetic implication behind the eta correction: A/B >= C forces
    # A/(B+H) >= C * (1 - H/(B+H)).  Checked on the computed scalars.
    if b > 0.0 and holds(c, a / b):
        implication_ok = holds(c * (1.0 - h / (b + h)), a / (b + h))
    else:
        implication_ok = True

    verdicts = {
        "pinelis": upper.holds,
        "paley_zygmund": holds(pz, m),
        "main_lower_applicable": lower.applicable,
        "main_lower": lower.holds if lower.applicable else True,
        "eta_lower": eta.holds,
        "g_nonnegative": holds(0.0, g),
        "factorization": holds(f_direct, f) and holds(f, f_direct),
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

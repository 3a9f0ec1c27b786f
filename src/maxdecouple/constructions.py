"""Canonical joint distributions: tightness examples, counterexamples, and
exact pairwise-independent families.

All builders return validated `JointBernoulli` tables, charged by
`dist._check_table` before they are enumerated where they can be large.
The exchangeable laws (one_hot_uniform, conjectured_extremal,
expand_exchangeable) are built by `_hamming_law`, whose `_even_spread`
cuts each Hamming-weight class into whole quanta, so that every sum of
the shares is exact and they add up to the class mass exactly.  The
affine-hash families here and in `continuous` share one cell list,
`_affine_cells`.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .dist import JointBernoulli, MarginalVector, _check_table


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def _affine_cells(n: int, q: int, charge) -> Iterator[tuple[int, ...]]:
    """Charge the q^2 cells of min(n, q) values with `charge`, then check
    that q is prime and 1 <= n <= q, all at the call, and give the hash
    values ((a + b*i) mod q for i < n) of each cell (a, b), a-major.  The
    charge comes first, as trial division takes sqrt(q) steps; an n past
    q is refused for itself, so it is charged as q."""
    charge(min(n, q), q * q)
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not 1 <= n <= q:
        raise ValueError(f"need 1 <= n <= q, got n={n}, q={q}")
    return (tuple((a + b * i) % q for i in range(n)) for a in range(q) for b in range(q))


def _even_spread(masks: Sequence[int], total: float) -> list[tuple[int, float]]:
    """`total` over the A `masks` in whole quanta q = ulp(total), as
    (mask, share) pairs: mask k takes floor((k + 1) N/A) - floor(k N/A)
    of the N = total/q quanta.  Every sum of shares, in any order, is then
    a multiple of q no larger than total, so it is exact: the shares add
    up to `total` exactly, in a left-to-right sum and in math.fsum alike,
    and each is within one quantum of total/A."""
    quantum, size = math.ulp(total), len(masks)
    count = int(total / quantum)
    return [(mask, ((k + 1) * count // size - k * count // size) * quantum)
            for k, mask in enumerate(masks)]


def _hamming_law(n: int, classes: dict[int, float]) -> JointBernoulli:
    """The exchangeable law with mass `classes[k]` on Hamming weight k,
    spread over the C(n, k) masks of each weight by `_even_spread`, its
    atoms charged by `dist._check_table` before any is made.  They reach
    `JointBernoulli` as a list: a dict keyed by the C(n, 2) two-hot masks,
    which share at most 1,891 hash values (an int hashes mod 2^61 - 1), is
    quadratic to build."""
    classes = {k: mass for k, mass in classes.items() if mass != 0.0}
    _check_table(n, sum(math.comb(n, k) for k in classes))
    atoms = []
    for k, mass in classes.items():
        masks = [sum(1 << i for i in bits) for bits in combinations(range(n), k)]
        atoms += _even_spread(masks, mass)
    return JointBernoulli(n, atoms)


def one_hot_uniform(n: int) -> JointBernoulli:
    """Equal mass 1/n on each one-hot mask: exactly one variable fires.

    Marginals are all 1/n and P(Z > 0) = 1 exactly.  As n grows the
    independent version has P(Z~ > 0) = 1 - (1 - 1/n)^n -> 1 - 1/e, which is
    what makes the upper decoupling constant e/(e-1) unimprovable.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return _hamming_law(n, {1: 1.0})


def conjectured_extremal(n: int) -> JointBernoulli:
    """The pairwise-independent law of least P(Z>0) with marginals 1/(n-1).

    Marginals are all 1/(n-1); the hit count Z is supported on {0, 2} with
    P(Z=0) = 1/2 - 1/(2(n-1)), and P(Z=2) spread uniformly over all two-hot
    masks.  The exchangeable spreading makes every pair moment equal
    P(Z=2)/C(n,2) = 1/(n-1)^2 = p_i p_j, i.e. exact pairwise independence.
    As n grows, P(Z>0)/P(Z~>0) -> e/(2(e-1)); the three-hot law at
    p = 2/(n-1) goes below that from n = 17, so this is no global minimum.

    n = 2 is permitted but degenerate (P(Z=0) = 0, a point mass on {1,1}).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p_zero = 0.5 - 1.0 / (2.0 * (n - 1))
    return _hamming_law(n, {0: p_zero, 2: 1.0 - p_zero})


def expand_exchangeable(n: int, weights) -> JointBernoulli:
    """Spread each weight class uniformly over its masks (`_hamming_law`):
    `weights[k]` is the mass on Hamming weight k, k = 0..n.  The inverse
    of collapsing a joint to Hamming-weight totals; used to round-trip
    exchangeable witnesses through the atom-level toolkit."""
    if len(weights) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} weights, got {len(weights)}")
    return _hamming_law(n, {k: float(w) for k, w in enumerate(weights)})


def comonotone(n: int, eps: float) -> JointBernoulli:
    """All variables equal: everything fires with probability eps, else nothing.

    The maximally positively dependent family.  P(Z > 0) = eps while
    P(Z~ > 0) = 1 - (1-eps)^n = n*eps + O(eps^2), so the ratio of the
    independent to the dependent hit probability climbs to n as eps -> 0,
    which is the worst possible ratio.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    _check_table(n, 2)
    full = (1 << n) - 1
    if eps == 0.0:
        return JointBernoulli(n, {0: 1.0})
    if eps == 1.0:
        return JointBernoulli(n, {full: 1.0})
    return JointBernoulli(n, {0: 1.0 - eps, full: eps})


def affine_hash(n: int, q: int, m: int) -> JointBernoulli:
    """Exact pairwise-independent thresholds of an affine hash family.

    Draw (a, b) uniformly from {0..q-1}^2 with q prime and set X_i = 1 iff
    (a + b*i) mod q < m.  For i != j the pair of hash values is uniform on
    the q^2 pairs (the 2x2 map is invertible mod q since i != j), so every
    pair of variables is exactly independent with marginals m/q.
    """
    cells = _affine_cells(n, q, _check_table)
    if not 0 <= m <= q:
        raise ValueError(f"need 0 <= m <= q, got m={m}")
    counts: dict[int, int] = {}
    for cell in cells:
        mask = sum(1 << i for i, h in enumerate(cell) if h < m)
        counts[mask] = counts.get(mask, 0) + 1
    return JointBernoulli(n, {mask: c / (q * q) for mask, c in counts.items()})


def xor_parity(k: int) -> JointBernoulli:
    """Parity bits over all nonempty subsets of k fair coins.

    n = 2^k - 1 variables indexed by nonempty subsets T of {1..k}; variable
    T is the parity of the coins in T.  Any two distinct parities differ by
    a third parity, which is itself a fair coin independent of either, so
    the family is exactly pairwise independent with marginals 1/2 despite
    being fully determined by only k random bits.
    """
    if not 1 <= k <= 4:
        raise ValueError(f"need 1 <= k <= 4, got {k}")
    share = 2.0 ** -k
    atoms = {}
    for u in range(1 << k):
        mask = 0
        for t in range(1, 1 << k):
            if (u & t).bit_count() & 1:
                mask |= 1 << (t - 1)
        atoms[mask] = share
    return JointBernoulli((1 << k) - 1, atoms)


def product(marginal: MarginalVector) -> JointBernoulli:
    """The fully independent joint with the given marginals.

    This is the explicit law of the independent version (X~_1, ..., X~_n),
    materialized over all 2^n outcomes, which are charged first; exact-zero
    atoms are dropped.
    """
    n = marginal.n
    _check_table(n, 1 << n)
    probs = np.array([1.0])
    for p in marginal.p:
        probs = np.concatenate([probs * (1.0 - p), probs * p])
    atoms = {mask: float(pr) for mask, pr in enumerate(probs) if pr != 0.0}
    return JointBernoulli(n, atoms)

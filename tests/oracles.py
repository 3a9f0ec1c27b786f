"""Brute-force enumeration oracles used to freeze expected test values.

Everything here is deliberately naive: plain dicts, itertools, no numpy,
and no imports from the package under test.  The oracles recompute each
quantity from first principles (full enumeration of outcomes, or the
general rational simplex of `exact_simplex`), so a test that compares
library output against an oracle exercises two independent code paths.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np

from exact_simplex import solve_exact


def oracle_marginals(n: int, atoms: dict[int, float]) -> list[float]:
    """P(X_i = 1) by scanning every atom's bit i (bit 0 = first variable)."""
    out = []
    for i in range(n):
        total = 0.0
        for mask in sorted(atoms):
            if (mask >> i) & 1:
                total += atoms[mask]
        out.append(total)
    return out


def oracle_second_moments(n: int, atoms: dict[int, float]) -> list[list[float]]:
    """E[X_i X_j] for all pairs, by full atom scan."""
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = 0.0
            for mask in sorted(atoms):
                if ((mask >> i) & 1) and ((mask >> j) & 1):
                    total += atoms[mask]
            m[i][j] = total
    return m


def pair_moment_matrix(joint) -> list[list[float]]:
    """The library's pair data, `summary.pair_moments` over column classes,
    expanded to the n x n matrix of E[X_i X_j].  Not an oracle: it lets a
    test compare the library's pair moments with the oracles entry by entry,
    and it is the only n x n expansion of them."""
    moments = joint.summary.pair_moments.tolist()
    classes = joint.summary.classes.tolist()
    return [[moments[a][b] for b in classes] for a in classes]


def oracle_prob_hit(atoms: dict[int, float]) -> float:
    """P(at least one variable is 1) = total mass off the zero mask."""
    return sum(atoms[mask] for mask in sorted(atoms) if mask != 0)


def oracle_moments_z(atoms: dict[int, float]) -> tuple[float, float]:
    """(E[Z], E[Z^2]) for Z = number of set bits, by atom scan."""
    ez = 0.0
    ez2 = 0.0
    for mask in sorted(atoms):
        k = bin(mask).count("1")
        ez += k * atoms[mask]
        ez2 += k * k * atoms[mask]
    return ez, ez2


def oracle_prob_hit_independent(p: list[float]) -> float:
    """P(max of independent Bernoullis > 0) by enumerating all 2^n outcomes.

    Intentionally does NOT use the closed form 1 - prod(1 - p_i); the whole
    point is an independent route.
    """
    n = len(p)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        if not any(bits):
            continue
        prob = 1.0
        for i, b in enumerate(bits):
            prob *= p[i] if b else (1.0 - p[i])
        total += prob
    return total


def oracle_eta(n: int, atoms: dict[int, float]) -> tuple[list[list[float]], float]:
    """Positive-part excess correlations and their full double sum."""
    p = oracle_marginals(n, atoms)
    m = oracle_second_moments(n, atoms)
    eta = [[0.0] * n for _ in range(n)]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            eta[i][j] = max(0.0, m[i][j] - p[i] * p[j])
            total += eta[i][j]
    return eta, total


def oracle_expected_max(atoms: list[tuple[tuple[float, ...], float]]) -> float:
    """E[max_i X_i] for a discrete joint on nonnegative vectors, directly."""
    return sum(prob * max(values) for values, prob in atoms)


def oracle_expected_max_independent(
    atoms: list[tuple[tuple[float, ...], float]],
) -> float:
    """E[max] of the independent version, by enumerating the product law.

    Extracts each coordinate's marginal, then walks the full cartesian
    product of the marginal supports.  Exponential in n: keep n small.
    """
    if not atoms:
        return 0.0
    n = len(atoms[0][0])
    marginals: list[dict[float, float]] = []
    for i in range(n):
        law: dict[float, float] = {}
        for values, prob in atoms:
            law[values[i]] = law.get(values[i], 0.0) + prob
        marginals.append(law)
    total = 0.0
    for combo in itertools.product(*(sorted(law) for law in marginals)):
        prob = 1.0
        for i, v in enumerate(combo):
            prob *= marginals[i][v]
        total += prob * max(combo)
    return total


def oracle_pairwise_orthant_ok(
    atoms: list[tuple[tuple[float, ...], float]], slack: float
) -> bool:
    """Thresholded negative dependence by brute force: for every pair
    i < j and every support threshold t (zero included),
    P(X_i > t, X_j > t) <= P(X_i > t) P(X_j > t) + slack.

    Each marginal survival comes from a suffix sum over that coordinate's
    sorted support, and each joint survival from a full atom scan at every
    (i, j, t), so the cost is n^2 x grid x atoms.
    """
    n = len(atoms[0][0])
    survivals = []
    for i in range(n):
        law: dict[float, float] = {}
        for values, prob in atoms:
            law[values[i]] = law.get(values[i], 0.0) + prob
        support = sorted(law)
        suffix = [0.0] * (len(support) + 1)
        for k in range(len(support) - 1, -1, -1):
            suffix[k] = law[support[k]] + suffix[k + 1]
        survivals.append((support, suffix))
    grid = sorted({0.0}.union(*(values for values, _ in atoms)))
    for i in range(n):
        for j in range(i + 1, n):
            for t in grid:
                both = 0.0
                for values, prob in atoms:
                    if values[i] > t and values[j] > t:
                        both += prob
                si = survivals[i][1][bisect.bisect_right(survivals[i][0], t)]
                sj = survivals[j][1][bisect.bisect_right(survivals[j][0], t)]
                if both > si * sj + slack:
                    return False
    return True


def oracle_exchangeable_weights(n: int, atoms: dict[int, float]) -> list[float]:
    """Total probability per Hamming weight class, w_0 .. w_n."""
    w = [0.0] * (n + 1)
    for mask in sorted(atoms):
        w[bin(mask).count("1")] += atoms[mask]
    return w


def oracle_lp_vertex_minimum(
    n: int,
    p: Fraction,
    equality: bool,
) -> Fraction:
    """Exact minimum of P(Z>0) over exchangeable weight vectors, by vertex
    enumeration.

    The feasible set lives in n+1 weight variables with two or three active
    moment constraints; every vertex has at most three nonzero weights, so
    trying all supports of size <= 3 and solving the resulting linear systems
    in exact rationals enumerates every candidate optimum.  O(n^3) supports:
    only usable for small n, which is exactly what an oracle is for.
    """
    one = Fraction(1)
    mu1 = n * p
    mu2 = n * (n - 1) * p * p
    ks = list(range(n + 1))
    best: Fraction | None = None

    def consider(weights: dict[int, Fraction]) -> None:
        nonlocal best
        if any(w < 0 for w in weights.values()):
            return
        s0 = sum(weights.values())
        s1 = sum(k * w for k, w in weights.items())
        s2 = sum(k * (k - 1) * w for k, w in weights.items())
        if s0 != one or s1 != mu1:
            return
        if equality:
            if s2 != mu2:
                return
        elif s2 > mu2:
            return
        objective = one - weights.get(0, Fraction(0))
        if best is None or objective < best:
            best = objective

    for support in itertools.chain(
        itertools.combinations(ks, 1),
        itertools.combinations(ks, 2),
        itertools.combinations(ks, 3),
    ):
        # Solve sum w = 1, sum k w = mu1 (+ sum k(k-1) w = mu2 if it fits)
        # on the chosen support; under-determined systems are skipped since
        # their optima are attained at vertices covered by smaller supports.
        if len(support) == 1:
            (k,) = support
            consider({k: one})
            continue
        if len(support) == 2:
            k1, k2 = support
            det = Fraction(k2 - k1)
            w1 = (k2 * one - mu1) / det
            w2 = (mu1 - k1 * one) / det
            consider({k1: w1, k2: w2})
            continue
        k1, k2, k3 = support
        # 3x3 system via Cramer's rule.
        rows = [
            (one, one, one, one),
            (Fraction(k1), Fraction(k2), Fraction(k3), mu1),
            (
                Fraction(k1 * (k1 - 1)),
                Fraction(k2 * (k2 - 1)),
                Fraction(k3 * (k3 - 1)),
                mu2,
            ),
        ]
        det = _det3([[rows[r][c] for c in range(3)] for r in range(3)])
        if det == 0:
            continue
        ws = []
        for col in range(3):
            mat = [[rows[r][c] for c in range(3)] for r in range(3)]
            for r in range(3):
                mat[r][col] = rows[r][3]
            ws.append(_det3(mat) / det)
        consider({k1: ws[0], k2: ws[1], k3: ws[2]})

    if best is None:
        raise ValueError("oracle LP infeasible -- generator bug")
    return best


def oracle_full_lp_rows(n: int, p: Fraction):
    """The atom-level program of `build_full_lp`, by a per-mask loop.

    Returns (c, marginal_rows, b_marginal, pair_rows, b_pair).  Each row is
    the ascending list of atoms (masks) it sums with coefficient 1:
    marginal row 0 is total mass, row 1 + i is P(X_i = 1); pair row r is
    E[X_i X_j] for the r-th pair (i, j), i < j, in lexicographic order.
    """
    size = 1 << n
    pairs = list(itertools.combinations(range(n), 2))
    pair_row = {pair: r for r, pair in enumerate(pairs)}
    marginal_rows: list[list[int]] = [[] for _ in range(1 + n)]
    pair_rows: list[list[int]] = [[] for _ in pairs]
    for mask in range(size):
        marginal_rows[0].append(mask)
        bits = [i for i in range(n) if (mask >> i) & 1]
        for i in bits:
            marginal_rows[1 + i].append(mask)
        for pair in itertools.combinations(bits, 2):
            pair_rows[pair_row[pair]].append(mask)
    c = [0.0] + [1.0] * (size - 1)
    b_marginal = [1.0] + [float(p)] * n
    b_pair = [float(p * p)] * len(pairs)
    return c, marginal_rows, b_marginal, pair_rows, b_pair


def exchangeable_lp_rows(n: int, p: Fraction, equality: bool):
    """The exchangeable program over w_k = P(Z = k), k = 0..n, as rows for
    `solve_exact`: (objective, eq rows, ub rows), maximizing w_0.

    Rows: total mass one, first falling moment sum k w_k = n p, and second
    falling moment sum k(k-1) w_k = n(n-1) p^2 (an upper bound unless
    `equality`).
    """
    ks = range(n + 1)
    objective = tuple(Fraction(1 if k == 0 else 0) for k in ks)
    eq = [
        (tuple(Fraction(1) for _ in ks), Fraction(1)),
        (tuple(Fraction(k) for k in ks), n * p),
    ]
    second = (tuple(Fraction(k * (k - 1)) for k in ks), n * (n - 1) * p * p)
    ub = []
    (eq if equality else ub).append(second)
    return objective, tuple(eq), tuple(ub)


def oracle_exchangeable_simplex(
    n: int, p: Fraction, equality: bool
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact (min P(Z>0), optimal weights) of the exchangeable program,
    solved by the general rational simplex."""
    objective, eq, ub = exchangeable_lp_rows(n, p, equality)
    result = solve_exact(objective, eq_constraints=eq, ub_constraints=ub)
    if result.status != "optimal":
        raise ValueError(f"oracle LP reported {result.status} -- generator bug")
    return 1 - result.value, result.x


def oracle_exchangeable_optimum(
    n: int, p: Fraction
) -> tuple[float, Fraction, tuple[Fraction, ...]]:
    """(objective, objective_exact, weights_exact) of the sharp
    Dawson-Sankoff optimum in `Fraction` arithmetic, from the falling
    moments S1 = n p and 2 S2 = n(n-1) p^2: with k = 1 + floor((n-1) p),
    w_(k+1) = (2 S2 - (k-1) S1)/(k+1), w_k = (S1 - (k+1) w_(k+1))/k and
    w_0 = 1 - w_k - w_(k+1); all mass on Z = 0 at p = 0."""
    support = {0: Fraction(1)}
    if p != 0:
        s1 = n * p
        s2_twice = n * (n - 1) * p * p
        k = 1 + math.floor((n - 1) * p)
        upper = (s2_twice - (k - 1) * s1) / (k + 1)
        support[k] = (s1 - (k + 1) * upper) / k
        if k < n:  # at p = 1, k = n and the weight on n + 1 is zero
            support[k + 1] = upper
        support[0] = 1 - support[k] - upper
    weights = [Fraction(0)] * (n + 1)
    for z, w in support.items():
        weights[z] = w
    objective_exact = 1 - weights[0]
    return float(objective_exact), objective_exact, tuple(weights)


def _det3(m: list[list[Fraction]]) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


# --- Reference joint loaders ------------------------------------------------
# The per-atom loops that read and checked joints before loading became one
# vectorised pass per kind.  They are kept here, messages and all, so that a
# differential test can hold the vectorised loader to them: the same atoms,
# or the same first offending atom named in the same words.  The one change
# is the empty atom list, now refused by name for both kinds.


class OracleReject(ValueError):
    """An input the reference loader refuses, with the package's message."""


def _oracle_number(value, what: str) -> float:
    """A number (numpy's too, not a bool) as a float, an int past the float
    range as inf of its sign."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise OracleReject(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _oracle_check_unit_mass(probs) -> None:
    if not probs:
        raise OracleReject("atom list must be nonempty")
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        raise OracleReject(
            f"probabilities sum to {total!r}, deviation {total - 1.0!r} "
            f"exceeds tolerance 1e-12"
        )


def _oracle_bernoulli_fields(pairs) -> list:
    """Each (mask, p) pair, in input order: the mask an integer (numpy's
    too, not a bool), then p a number, read as a float."""
    out = []
    for idx, (mask, prob) in enumerate(pairs):
        if not isinstance(mask, (int, np.integer)) or isinstance(mask, bool):
            raise OracleReject(f"atoms[{idx}].mask must be an integer")
        out.append((int(mask), _oracle_number(prob, f"atoms[{idx}].p")))
    return out


def oracle_bernoulli_atoms(n: int, atoms) -> tuple[tuple[int, float], ...]:
    """`JointBernoulli(n, atoms).atoms`: check the field types in input
    order, sort by mask, then check each atom in that order for a repeated
    mask, its range and its probability."""
    pairs = _oracle_bernoulli_fields(atoms.items() if isinstance(atoms, dict) else atoms)
    pairs.sort(key=lambda kv: kv[0])
    out = []
    last_mask = None
    for mask, prob in pairs:
        if mask == last_mask:
            raise OracleReject(f"duplicate atom mask {mask}")
        if mask < 0 or mask >> n:
            raise OracleReject(
                f"atom mask {mask} out of range for n={n} (need 0 <= mask < 2^n)"
            )
        if not math.isfinite(prob) or prob < 0.0:
            raise OracleReject(f"atom mask {mask} has invalid probability {prob!r}")
        out.append((mask, prob))
        last_mask = mask
    _oracle_check_unit_mass([prob for _, prob in out])
    return tuple(out)


def oracle_bernoulli_from_json(obj: dict) -> tuple[tuple[int, float], ...]:
    """`JointBernoulli.from_json_dict(obj).atoms` for a document whose kind,
    n and atom list are well formed: each atom an object with both fields,
    in file order, after the field types of the atoms before it."""
    pairs = []
    for idx, entry in enumerate(obj["atoms"]):
        if not isinstance(entry, dict) or "mask" not in entry or "p" not in entry:
            _oracle_bernoulli_fields(pairs)
            if not isinstance(entry, dict):
                raise OracleReject(f"atoms[{idx}] must be an object")
            raise OracleReject(f"atoms[{idx}] needs 'mask' and 'p' fields")
        pairs.append((entry["mask"], entry["p"]))
    return oracle_bernoulli_atoms(obj["n"], pairs)


def _oracle_finite_nonneg(x: float, what: str) -> float:
    if not (x >= 0.0 and x < float("inf")):
        raise OracleReject(f"{what} must be finite and >= 0, got {x!r}")
    return x


def _oracle_nonneg_fields(atoms) -> list:
    """Each (values, p) atom, in input order: the values a list, a tuple or
    a 1-D numpy array, each value a number, then p a number; all read as
    floats."""
    out = []
    for idx, (values, prob) in enumerate(atoms):
        if not isinstance(values, (list, tuple)) and not (
            isinstance(values, np.ndarray) and values.ndim == 1
        ):
            raise OracleReject(f"atoms[{idx}].values must be a list")
        vec = [_oracle_number(v, f"atoms[{idx}].values[{k}]") for k, v in enumerate(values)]
        out.append((vec, _oracle_number(prob, f"atoms[{idx}].p")))
    return out


def oracle_nonneg_atoms(n: int, atoms) -> tuple:
    """`NonnegJoint(n, atoms).atoms`: the field types of every atom in
    construction order, then each atom in that order: its values, their
    count, its probability."""
    rows = []
    for idx, (values, prob) in enumerate(_oracle_nonneg_fields(atoms)):
        vec = tuple(
            _oracle_finite_nonneg(v, f"atoms[{idx}].values[{k}]")
            for k, v in enumerate(values)
        )
        if len(vec) != n:
            raise OracleReject(f"atoms[{idx}] has {len(vec)} values, expected n={n}")
        rows.append((vec, _oracle_finite_nonneg(prob, f"atoms[{idx}].p")))
    _oracle_check_unit_mass([prob for _, prob in rows])
    return tuple(rows)


def oracle_nonneg_from_json(obj: dict) -> tuple:
    """`NonnegJoint.from_json_dict(obj).atoms`: each atom an object with both
    fields, in file order, after the field types of the atoms before it."""
    rows = []
    for idx, entry in enumerate(obj["atoms"]):
        if not isinstance(entry, dict) or "values" not in entry or "p" not in entry:
            _oracle_nonneg_fields(rows)
            raise OracleReject(f"atoms[{idx}] must be an object with 'values' and 'p'")
        rows.append((entry["values"], entry["p"]))
    return oracle_nonneg_atoms(obj["n"], rows)

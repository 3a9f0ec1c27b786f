"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (plus the reported-but-not-asserted conjecture evidence from
the LP sweep).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import oracles
from maxdecouple import (
    CONJECTURED_LOWER_CONSTANT,
    PINELIS_CONSTANT,
    JointBernoulli,
    MarginalVector,
    affine_hash,
    bernoulli_embedding,
    comonotone,
    conjecture_sweep,
    conjectured_extremal,
    decoupling_check_cont,
    eta_lower_check,
    exchangeable_optimum,
    expected_max,
    expected_max_independent,
    full_optimum,
    g_function,
    main_lower_check,
    marginals,
    moments_of_z,
    one_hot_uniform,
    paley_zygmund_lower,
    permute_variables,
    pinelis_upper_check,
    prob_hit,
    prob_hit_independent,
    product,
    sample,
    xor_parity,
)
from maxdecouple.verification import random_joint, random_nonneg_joint

SEED = 0
N_RANDOM_JOINTS = 10_000


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL — {description}")
        raise
    print(f"[criterion {number:2d}] PASS — {description}")


@pytest.fixture(scope="module")
def joint_batch():
    rng = np.random.default_rng(SEED)
    return [random_joint(rng) for _ in range(N_RANDOM_JOINTS)]


def test_criterion_01_pinelis_constant_tightness():
    with criterion(1, "one-hot ratio equals 1/(1-(1-1/n)^n); -> e/(e-1) at n=1e6"):
        # Small n: identity checked on the actual joint.
        for n in range(1, 13):
            j = one_hot_uniform(n)
            ratio = prob_hit(j) / prob_hit_independent(marginals(j))
            closed = 1.0 / (1.0 - (1.0 - 1.0 / n) ** n) if n > 1 else 1.0
            assert abs(ratio - closed) <= 1e-12
        # Large n via the closed-form marginal product, timed.
        start = time.perf_counter()
        n = 10**6
        mtilde = prob_hit_independent(MarginalVector((1.0 / n,) * n))
        ratio = 1.0 / mtilde  # P(Z > 0) = 1 exactly for the one-hot family
        elapsed = time.perf_counter() - start
        assert abs(ratio - PINELIS_CONSTANT) <= 1e-5
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_universal_upper_bound(joint_batch):
    with criterion(2, f"P(Z>0) <= c*P(Z~>0) on {N_RANDOM_JOINTS} random joints"):
        start = time.perf_counter()
        for j in joint_batch:
            check = pinelis_upper_check(j)
            assert check.lhs <= check.rhs + 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_03_half_lower_bound_on_exact_families():
    with criterion(3, "half lower bound + PZ floor on every exact PI family"):
        families = [conjectured_extremal(n) for n in range(3, 25)]
        families += [xor_parity(k) for k in range(1, 5)]
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for m in sorted({0, 1, q // 2, q - 1, q}):
                families.append(affine_hash(q, q, m))
        assert len(families) > 70
        for j in families:
            m_hit = prob_hit(j)
            mtilde = prob_hit_independent(marginals(j))
            assert m_hit >= 0.5 * mtilde - 1e-12
            assert paley_zygmund_lower(j) <= m_hit + 1e-12


def test_criterion_04_conjectured_extremal_exactness():
    with criterion(4, "extremal(3): M=0.75, M~=0.875, ratio 6/7, exact pair moments"):
        j = conjectured_extremal(3)
        atoms = dict(j.atoms)

        # Library values.
        assert prob_hit(j) == 0.75
        mtilde = prob_hit_independent(marginals(j))
        assert mtilde == 0.875
        assert prob_hit(j) / mtilde == pytest.approx(6 / 7, abs=1e-15)

        # Independent oracle enumeration agrees.
        assert oracles.oracle_prob_hit(atoms) == 0.75
        assert oracles.oracle_marginals(3, atoms) == [0.5, 0.5, 0.5]
        assert oracles.oracle_prob_hit_independent([0.5] * 3) == pytest.approx(
            0.875, abs=1e-15
        )
        oracle_m = oracles.oracle_second_moments(3, atoms)
        p = marginals(j).p
        m = oracles.pair_moment_matrix(j)
        for i in range(3):
            for k in range(3):
                if i != k:
                    assert abs(m[i][k] - p[i] * p[k]) <= 1e-12
                    assert abs(oracle_m[i][k] - 0.25) <= 1e-15
        assert moments_of_z(j) == oracles.oracle_moments_z(atoms)


def _wide_joints():
    rng = random.Random(SEED)
    perm = list(range(40))
    rng.shuffle(perm)
    yield "product12", product(MarginalVector([0.05 + 0.07 * i for i in range(12)]))
    yield "extremal40-permuted", permute_variables(conjectured_extremal(40), perm)
    yield "two-atom2000", JointBernoulli(2000, {0: 0.375, rng.getrandbits(2000): 0.625})


@pytest.mark.parametrize("j", [pytest.param(j, id=name) for name, j in _wide_joints()])
def test_z_moments_exact_on_wide_joints(j):
    # The one-scan summary's integer hit counts give the atom scan's
    # left-to-right sums bit for bit, at sizes past the n = 3 case above.
    atoms = dict(j.atoms)
    assert moments_of_z(j) == oracles.oracle_moments_z(atoms)
    assert prob_hit(j) == oracles.oracle_prob_hit(atoms)


def test_criterion_05_counterexample_ratio(joint_batch):
    with criterion(5, "comonotone(8,1e-6): M~/M -> 8; ratio cap M~ <= n*M everywhere"):
        j = comonotone(8, 1e-6)
        m_hit = prob_hit(j)
        mtilde = prob_hit_independent(marginals(j))
        assert abs(mtilde / m_hit - 8.0) <= 1e-3
        for joint in joint_batch:
            assert prob_hit_independent(marginals(joint)) <= joint.n * prob_hit(
                joint
            ) + 1e-12


def test_criterion_06_g_nonnegativity():
    with criterion(6, "min G >= -1e-12 over 1e5 random marginal vectors (n <= 20)"):
        start = time.perf_counter()
        rng = np.random.default_rng(SEED + 6)
        worst = math.inf
        for _ in range(100_000):
            n = int(rng.integers(1, 21))
            g, _ = g_function(MarginalVector([float(x) for x in rng.random(n)]))
            worst = min(worst, g)
        elapsed = time.perf_counter() - start
        assert worst >= -1e-12, f"min G = {worst!r}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_07_eta_bound_universality(joint_batch):
    with criterion(7, "eta-corrected lower bound on all random joints + hand value"):
        for j in joint_batch:
            check = eta_lower_check(j)
            assert check.lhs >= check.rhs - 1e-12
        check = eta_lower_check(comonotone(2, 0.1))
        # S = 0.2, B = 0.24, H = 0.18: rhs = 0.5*(1 - 0.18/0.42)*0.19 = 0.38/7
        assert check.rhs == pytest.approx(0.054286, abs=1e-6)
        assert check.rhs == pytest.approx(0.38 / 7, abs=1e-12)
        assert check.lhs == 0.1
        assert check.rhs <= check.lhs


def test_criterion_08_lp_sandwich_and_sweep():
    with criterion(8, "full LP and exchangeable optimum agree; sweep n<=200 sane and timed"):
        for n in (3, 4, 5):
            p = Fraction(1, n - 1)
            full = full_optimum(n, p)
            exch = exchangeable_optimum(n, p)
            assert full.objective_exact == exch.objective_exact

            mtilde = prob_hit_independent(MarginalVector((float(p),) * n))
            s = n * float(p)
            pz_floor = s * s / (s + s * s)
            lower = max(pz_floor, 0.5 * mtilde)
            upper = 0.5 + 0.5 / (n - 1)
            assert lower - 1e-9 <= exch.objective <= upper + 1e-9

        start = time.perf_counter()
        rows = conjecture_sweep(3, 200, reduction="exchangeable")
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        for row in rows:
            assert row["status"] == "optimal"
            assert row["lp_ratio"] >= 0.5 - 1e-9
        tail = rows[-1]
        # Reported, not asserted: how close the optimal ratio sits to the
        # conjectured limiting constant e/(2(e-1)).
        print(
            f"\n[criterion  8] report: lp_ratio(n=200) = {tail['lp_ratio']:.9f}, "
            f"e/(2(e-1)) = {CONJECTURED_LOWER_CONSTANT:.9f}, "
            f"difference = {tail['lp_ratio'] - CONJECTURED_LOWER_CONSTANT:+.2e}, "
            f"least lp_ratio = {min(row['lp_ratio'] for row in rows):.9f}"
        )


def test_criterion_09_continuous_layer_cake(joint_batch):
    with criterion(9, "layer-cake identity, c-upper, conditional half-lower, embedding"):
        rng = np.random.default_rng(SEED + 9)
        for _ in range(1000):
            j = random_nonneg_joint(rng)
            direct = expected_max(j)
            grid = sorted({0.0} | {v for vec, _ in j.atoms for v in vec})
            layered = 0.0
            for t, t_next in zip(grid, grid[1:]):
                surv = sum(p for vec, p in j.atoms if max(vec) > t)
                layered += (t_next - t) * surv
            assert abs(direct - layered) <= 1e-10
            check = decoupling_check_cont(j)
            assert check.upper_holds
            if check.pairwise_ok:
                assert check.lower_holds

        for joint in joint_batch[:500]:
            embedded = bernoulli_embedding(joint)
            assert expected_max(embedded) == prob_hit(joint)
            assert expected_max_independent(embedded) == prob_hit_independent(
                marginals(joint)
            )
            check = decoupling_check_cont(embedded)
            assert check.upper_holds == pinelis_upper_check(joint).holds
            assert check.pairwise_ok == main_lower_check(joint).applicable


def test_criterion_10_monte_carlo_consistency():
    with criterion(10, "1e6-draw estimate of P(Z>0) within 3 sigma for >= 99/100 seeds"):
        j = conjectured_extremal(5)
        exact = prob_hit(j)
        assert exact == 0.625
        count = 10**6
        sigma = math.sqrt(exact * (1.0 - exact) / count)
        good = 0
        for seed in range(100):
            draws = sample(j, seed=seed, count=count)
            hits = count - draws.count(0)
            if abs(hits / count - exact) <= 3.0 * sigma:
                good += 1
        assert good >= 99, f"only {good}/100 seeds within 3 sigma"

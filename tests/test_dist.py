"""Core distribution type and operation tests, checked against the
brute-force oracles wherever a value is not pinned by hand."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxdecouple import (
    InvalidDistributionError,
    JointBernoulli,
    MarginalVector,
    comonotone,
    conjectured_extremal,
    is_pairwise_independent,
    main_lower_check,
    marginals,
    moments_of_z,
    one_hot_uniform,
    permute_variables,
    prob_hit,
    prob_hit_independent,
    product,
    sample,
)
from maxdecouple import dist


def random_sparse_joint(rng, max_n=10, max_support=16):
    n = int(rng.integers(1, max_n + 1))
    size = 1 << n
    support = int(rng.integers(1, min(size, max_support) + 1))
    masks = rng.choice(size, size=support, replace=False)
    weights = rng.random(support) + 1e-3
    probs = weights / weights.sum()
    return JointBernoulli(n, {int(m): float(p) for m, p in zip(masks, probs)})


def with_zero_mass_atoms(rng, joint, count):
    """`joint` plus up to `count` atoms of mass 0.0 at masks it lacks."""
    free = sorted(set(range(1 << joint.n)) - set(joint.masks))
    extra = rng.choice(free, size=min(count, len(free)), replace=False) if free else []
    return JointBernoulli(joint.n, dict(joint.atoms) | {int(m): 0.0 for m in extra})


def assert_left_to_right_pair_moments(joint):
    """The pair moments and marginals are the plain loop over the atoms in
    ascending mask order, bit for bit."""
    atoms = dict(joint.atoms)
    assert oracles.pair_moment_matrix(joint) == oracles.oracle_second_moments(joint.n, atoms)
    assert list(marginals(joint).p) == oracles.oracle_marginals(joint.n, atoms)


def duplicate_variables(rng, joint):
    """Copy the bits of some variables into new ones, so that several
    variables fire on exactly the same atoms (column classes of size > 1)."""
    extra = [int(s) for s in rng.integers(0, joint.n, size=int(rng.integers(1, 6)))]
    source = list(range(joint.n)) + extra
    rng.shuffle(source)
    table = {
        sum(((mask >> s) & 1) << i for i, s in enumerate(source)): prob
        for mask, prob in joint.atoms
    }
    return JointBernoulli(len(source), table)


class TestJointBernoulliType:
    def test_atoms_sorted_ascending(self):
        j = JointBernoulli(2, {2: 0.25, 0: 0.5, 3: 0.25})
        assert j.masks == (0, 2, 3)

    def test_rejects_negative_probability(self):
        with pytest.raises(InvalidDistributionError, match="invalid probability"):
            JointBernoulli(1, {0: 1.5, 1: -0.5})

    def test_rejects_bad_normalization(self):
        with pytest.raises(InvalidDistributionError, match="deviation"):
            JointBernoulli(2, {0: 0.5, 1: 0.4})

    def test_rejects_mask_out_of_range(self):
        with pytest.raises(InvalidDistributionError, match="out of range"):
            JointBernoulli(2, {4: 1.0})

    def test_rejects_duplicate_masks(self):
        with pytest.raises(InvalidDistributionError, match="duplicate"):
            JointBernoulli(2, [(1, 0.5), (1, 0.5)])

    def test_rejects_zero_variables(self):
        with pytest.raises(InvalidDistributionError):
            JointBernoulli(0, {0: 1.0})

    def test_accepts_tolerated_normalization_slack(self):
        JointBernoulli(1, {0: 0.5, 1: 0.5 + 0.9e-12})

    def test_sparse_atoms_allow_large_n(self):
        j = JointBernoulli(100, {0: 0.5, (1 << 100) - 1: 0.5})
        assert prob_hit(j) == 0.5

    def test_json_round_trip(self):
        j = conjectured_extremal(4)
        doc = json.loads(json.dumps(j.to_json_dict()))
        assert JointBernoulli.from_json_dict(doc) == j

    def test_json_rejects_wrong_kind(self):
        with pytest.raises(InvalidDistributionError, match="kind"):
            JointBernoulli.from_json_dict({"kind": "nope", "n": 1, "atoms": []})

    def test_json_names_bad_field(self):
        doc = {"kind": "bernoulli-joint", "n": 2, "atoms": [{"mask": 1.5, "p": 1.0}]}
        with pytest.raises(InvalidDistributionError, match=r"atoms\[0\]\.mask"):
            JointBernoulli.from_json_dict(doc)


class TestMarginalVector:
    def test_total_is_left_to_right_sum(self):
        values = (0.1, 0.2, 0.3, 0.4)
        assert MarginalVector(values).total == sum(values)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidDistributionError):
            MarginalVector([0.5, 1.1])
        with pytest.raises(InvalidDistributionError):
            MarginalVector([-0.1])

    def test_rejects_nan_naming_it(self):
        for values in ([0.5, math.nan], [math.nan, 0.5]):
            with pytest.raises(InvalidDistributionError, match="found value nan$"):
                MarginalVector(values)

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistributionError):
            MarginalVector([])


class TestMarginals:
    def test_deterministic_pair(self):
        j = JointBernoulli(2, {0b11: 1.0})
        assert marginals(j).p == (1.0, 1.0)

    def test_one_hot_pair(self):
        j = JointBernoulli(2, {0b01: 0.5, 0b10: 0.5})
        assert marginals(j).p == (0.5, 0.5)

    def test_extremal_three_matches_oracle(self):
        j = conjectured_extremal(3)
        expected = oracles.oracle_marginals(3, dict(j.atoms))
        assert marginals(j).p == tuple(expected)
        assert marginals(j).p == pytest.approx((0.5, 0.5, 0.5), abs=1e-15)


class TestSecondMoments:
    def test_comonotone_pair(self):
        j = comonotone(2, 0.1)
        assert oracles.pair_moment_matrix(j)[0][1] == 0.1

    def test_independent_product(self):
        j = product(MarginalVector([0.5, 0.5]))
        assert oracles.pair_moment_matrix(j)[0][1] == 0.25

    def test_extremal_three_pairwise_product(self):
        j = conjectured_extremal(3)
        m = oracles.pair_moment_matrix(j)
        assert m == oracles.oracle_second_moments(3, dict(j.atoms))
        for i in range(3):
            for k in range(3):
                if i != k:
                    assert m[i][k] == pytest.approx(0.25, abs=1e-15)

    @settings(deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**31 - 1), duplicate=st.booleans(), zeros=st.integers(0, 3))
    def test_equal_the_left_to_right_loop(self, seed, duplicate, zeros):
        rng = np.random.default_rng(seed)
        j = random_sparse_joint(rng, max_n=9, max_support=40)
        if duplicate:
            j = duplicate_variables(rng, j)
        assert_left_to_right_pair_moments(with_zero_mass_atoms(rng, j, zeros))

    def test_equal_the_left_to_right_loop_on_named_joints(self):
        rng = np.random.default_rng(31)
        joints = [
            product(MarginalVector(rng.uniform(0.05, 0.95, size=12).tolist())),
            with_zero_mass_atoms(rng, duplicate_variables(rng, random_sparse_joint(rng)), 4),
            JointBernoulli(1, {0: 0.3, 1: 0.7}),  # n = 1
            JointBernoulli(1, {1: 1.0}),
            comonotone(7, 0.3),  # d = 1: every variable fires on the same atoms
            JointBernoulli(3, {0: 1.0, 5: 0.0}),  # one class fires only on a zero mass
        ]
        assert len(set(joints[4].summary.classes.tolist())) == 1
        for j in joints:
            assert_left_to_right_pair_moments(j)

    def test_diagonal_is_marginal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            j = random_sparse_joint(rng)
            assert tuple(np.diag(oracles.pair_moment_matrix(j))) == marginals(j).p


class TestProbHit:
    def test_zero_joint(self):
        assert prob_hit(JointBernoulli(3, {0: 1.0})) == 0.0

    def test_one_hot_is_one_exactly(self):
        for n in (1, 2, 3, 6, 7, 11, 13, 24):
            assert prob_hit(one_hot_uniform(n)) == 1.0

    def test_extremal_three(self):
        assert prob_hit(conjectured_extremal(3)) == 0.75


class TestProbHitIndependent:
    def test_half_half(self):
        assert prob_hit_independent(MarginalVector([0.5, 0.5])) == 0.75

    def test_three_halves(self):
        assert prob_hit_independent(MarginalVector([0.5] * 3)) == 0.875

    def test_limit_matches_one_minus_inverse_e(self):
        n = 10**6
        p = MarginalVector((1.0 / n,) * n)
        assert abs(prob_hit_independent(p) - (1.0 - 1.0 / math.e)) < 1e-6

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = [float(x) for x in rng.random(int(rng.integers(1, 7)))]
            got = prob_hit_independent(MarginalVector(p))
            assert got == pytest.approx(oracles.oracle_prob_hit_independent(p), abs=1e-12)


class TestMomentsOfZ:
    def test_deterministic_pair(self):
        assert moments_of_z(JointBernoulli(2, {0b11: 1.0})) == (2.0, 4.0)

    def test_extremal_three(self):
        ez, ez2 = moments_of_z(conjectured_extremal(3))
        assert ez == pytest.approx(1.5, abs=1e-15)
        assert ez2 == pytest.approx(3.0, abs=1e-15)

    def test_comonotone_eight(self):
        ez, ez2 = moments_of_z(comonotone(8, 0.1))
        assert ez == pytest.approx(0.8, abs=1e-15)
        assert ez2 == pytest.approx(6.4, abs=1e-15)

    def test_second_moment_identity_randomized(self):
        # E[Z^2] must equal sum(p) + 2 * sum of pair moments on any joint.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            j = random_sparse_joint(rng)
            _, ez2 = moments_of_z(j)
            p = marginals(j).p
            m = oracles.pair_moment_matrix(j)
            recomposed = sum(p) + 2.0 * sum(
                m[i][k] for i in range(j.n) for k in range(i + 1, j.n)
            )
            assert abs(ez2 - recomposed) <= 1e-10

    def test_union_bound_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            j = random_sparse_joint(rng)
            hit = prob_hit(j)
            assert 0.0 <= hit <= 1.0 + 1e-12
            assert hit <= moments_of_z(j)[0] + 1e-12


class TestPairwiseIndependence:
    def test_product_is_pairwise_independent(self):
        j = product(MarginalVector([0.3, 0.7]))
        assert is_pairwise_independent(j)
        assert j.summary.max_abs_excess <= 1e-12

    def test_comonotone_is_not(self):
        assert not is_pairwise_independent(comonotone(2, 0.1))

    def test_extremal_five(self):
        j = conjectured_extremal(5)
        assert is_pairwise_independent(j)
        assert j.summary.max_abs_excess <= 1e-12

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**31 - 1), permseed=st.integers(0, 2**31 - 1))
    def test_invariant_under_relabeling(self, seed, permseed):
        j = random_sparse_joint(np.random.default_rng(seed))
        perm = [int(x) for x in np.random.default_rng(permseed).permutation(j.n)]
        relabeled = permute_variables(j, perm)
        assert is_pairwise_independent(j) == is_pairwise_independent(relabeled)


class TestEtaMatrix:
    """The positive-part excess: `summary.h` totals it over ordered pairs,
    and `summary.max_excess` is the largest signed excess."""

    def test_pairwise_independent_gives_zero(self):
        summary = product(MarginalVector([0.3, 0.7, 0.5])).summary
        assert summary.h == 0.0
        assert summary.max_excess <= 0.0

    def test_comonotone_pair(self):
        summary = comonotone(2, 0.1).summary
        assert summary.max_excess == pytest.approx(0.09, abs=1e-15)
        assert summary.h == pytest.approx(0.18, abs=1e-15)

    def test_negative_correlation_clips_to_zero(self):
        j = JointBernoulli(2, {0b01: 0.5, 0b10: 0.5})
        assert j.summary.max_excess == -0.25
        assert j.summary.h == 0.0

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            j = random_sparse_joint(rng, max_n=6)
            _, oracle_total = oracles.oracle_eta(j.n, dict(j.atoms))
            assert j.summary.h == pytest.approx(oracle_total, abs=1e-12)


class TestColumnClasses:
    def test_duplicated_variables_match_oracles(self):
        rng = np.random.default_rng(29)
        for _ in range(150):
            j = duplicate_variables(rng, random_sparse_joint(rng, max_n=5))
            assert len(set(j.summary.classes.tolist())) < j.n
            atoms = dict(j.atoms)
            p = oracles.oracle_marginals(j.n, atoms)
            m = oracles.oracle_second_moments(j.n, atoms)
            assert oracles.pair_moment_matrix(j) == m
            _, oracle_total = oracles.oracle_eta(j.n, atoms)
            assert j.summary.h == pytest.approx(oracle_total, abs=1e-12)
            gaps = [
                m[a][b] - p[a] * p[b]
                for a in range(j.n)
                for b in range(j.n)
                if a != b
            ]
            tau = dist._summed_slack(3 * len(j.masks) + 3)
            assert is_pairwise_independent(j) == all(abs(g) <= tau for g in gaps)
            assert main_lower_check(j).applicable == all(g <= tau for g in gaps)

    def test_classes_follow_first_appearance(self):
        j = JointBernoulli(5, {0b00000: 0.5, 0b10110: 0.25, 0b01001: 0.25})
        assert j.summary.classes.tolist() == [0, 1, 1, 0, 1]
        assert j.summary.pair_moments.shape == (2, 2)
        assert oracles.pair_moment_matrix(j)[1][4] == 0.25
        assert oracles.pair_moment_matrix(j)[0][1] == 0.0


class TestSample:
    def test_point_mass(self):
        draws = sample(JointBernoulli(1, {1: 1.0}), seed=3, count=5)
        assert draws == [1, 1, 1, 1, 1]

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            sample(JointBernoulli(1, {1: 1.0}), seed=0, count=0)

    def test_fair_coin_hit_fraction(self):
        j = product(MarginalVector([0.5, 0.5]))
        draws = sample(j, seed=41, count=10**6)
        hits = sum(1 for mask in draws if mask) / len(draws)
        sigma = math.sqrt(0.75 * 0.25 / 10**6)
        assert abs(hits - 0.75) <= 3 * sigma

    def test_same_seed_same_stream(self):
        j = conjectured_extremal(4)
        assert sample(j, seed=9, count=4000) == sample(j, seed=9, count=4000)

    def test_empirical_masses_match_atoms(self):
        j = conjectured_extremal(3)
        draws = sample(j, seed=2, count=200_000)
        for mask, prob in j.atoms:
            freq = draws.count(mask) / len(draws)
            assert abs(freq - prob) < 5e-3


def random_cumulative_masses(rng):
    """Cumulative masses of a random table as `_sample_indices` builds them:
    equal masses (cumulative masses on or next to k/atoms), zero-mass
    atoms, one atom, totals a little under or over 1, and runs of tiny
    atoms packed into one guide bucket."""
    atoms = int(rng.choice([1, 2, 3, int(rng.integers(4, 64)), int(rng.integers(64, 3000))]))
    weights = rng.random(atoms) ** rng.choice([0, 1, 4, 40])
    weights[rng.random(atoms) < rng.choice([0.0, 0.3])] = 0.0
    if not weights.any():
        weights[int(rng.integers(atoms))] = 1.0
    if atoms > 8 and rng.random() < 0.3:
        weights[: atoms // 2] = 1e-12  # a crowded bucket
    probs = weights / weights.sum()
    return np.cumsum(probs * (1.0 + rng.choice([0.0, -5e-13, 5e-13])))


def boundary_draws(rng, cum, buckets):
    """u in [0, 1) on and next to every cumulative mass and bucket start."""
    edges = np.concatenate([cum, np.arange(buckets) / buckets, [0.0, 1.0]])
    near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    u = np.concatenate([near, rng.random(2000)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestGuideTable:
    def test_matches_clamped_searchsorted(self):
        rng = np.random.default_rng(120)
        for _ in range(3000):
            cum = random_cumulative_masses(rng)
            table = dist._GuideTable(cum)
            u = boundary_draws(rng, cum, table.buckets)
            expect = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
            assert np.array_equal(table.indices(u), expect)

    def test_clamps_draws_above_a_short_total(self):
        cum = np.cumsum([0.25, 0.0, 0.75 - 1e-12, 0.0])
        u = np.array([cum[-1], np.nextafter(1.0, 0.0), 0.25, 0.0])
        assert dist._GuideTable(cum).indices(u).tolist() == [3, 3, 2, 0]

    def test_chunked_stream_equals_one_call(self):
        # PCG64 gives the same u in chunks as in one call, so the draws
        # are those of a single searchsorted over the whole stream.
        j = random_sparse_joint(np.random.default_rng(121), max_n=12, max_support=300)
        count = 3 * dist.SAMPLE_CHUNK + 7
        u = np.random.default_rng(17).random(count)
        cum = np.cumsum(np.array(j.probs))
        idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        assert sample(j, seed=17, count=count) == [j.masks[i] for i in idx]


class TestPermuteVariables:
    def test_swap_pair(self):
        j = JointBernoulli(2, {0b01: 0.3, 0b10: 0.2, 0b11: 0.5})
        swapped = permute_variables(j, [1, 0])
        assert dict(swapped.atoms) == {0b10: 0.3, 0b01: 0.2, 0b11: 0.5}

    def test_moves_each_bit_to_its_new_variable(self):
        # Wide masks over n not a multiple of 8, masks narrower than n, and
        # a permutation given as a numpy array.
        rng = np.random.default_rng(11)
        for n in (1, 7, 8, 9, 30, 61, 200):
            for high in (n, max(1, n // 3)):
                masks = {int(''.join(map(str, rng.integers(0, 2, high))), 2) for _ in range(20)}
                joint = JointBernoulli(n, {m: 1 / len(masks) for m in masks})
                perm = rng.permutation(n)
                moved = {sum(1 << int(perm[i]) for i in range(n) if m >> i & 1): p
                         for m, p in joint.atoms}
                assert dict(permute_variables(joint, perm).atoms) == moved

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_variables(JointBernoulli(2, {0: 1.0}), [0, 0])

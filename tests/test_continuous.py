"""Nonnegative finite-support joints: tail-integral identities, decoupling
checks, the real-valued hash family, and the 0/1 embedding."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from maxdecouple import (
    InvalidDistributionError,
    NonnegJoint,
    PINELIS_CONSTANT,
    affine_hash,
    affine_hash_values,
    bernoulli_embedding,
    comonotone,
    conjectured_extremal,
    decoupling_check_cont,
    expected_max,
    expected_max_independent,
    main_lower_check,
    marginals,
    pairwise_orthant_ok,
    pinelis_upper_check,
    prob_hit,
    prob_hit_independent,
    product,
    MarginalVector,
)
from maxdecouple import continuous, dist
from maxdecouple.bounds import holds
from maxdecouple.cli import EXIT_OK, main
from maxdecouple.continuous import ContinuousCheck
from maxdecouple.errors import InvariantError
from test_dist import random_sparse_joint


def random_nonneg(rng, max_n=6, max_support=8):
    n = int(rng.integers(1, max_n + 1))
    support = int(rng.integers(1, max_support + 1))
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


COMONOTONE_PAIR = NonnegJoint(2, [((1.0, 1.0), 0.5), ((2.0, 2.0), 0.5)])


class TestNonnegJointType:
    def test_rejects_negative_value(self):
        with pytest.raises(InvalidDistributionError, match="values"):
            NonnegJoint(1, [((-1.0,), 1.0)])

    def test_rejects_bad_normalization(self):
        with pytest.raises(InvalidDistributionError, match="deviation"):
            NonnegJoint(1, [((1.0,), 0.9)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidDistributionError, match="expected n=2"):
            NonnegJoint(2, [((1.0,), 1.0)])

    def test_rejects_infinite_value(self):
        with pytest.raises(InvalidDistributionError):
            NonnegJoint(1, [((math.inf,), 1.0)])

    def test_json_round_trip(self):
        doc = json.loads(json.dumps(COMONOTONE_PAIR.to_json_dict()))
        assert NonnegJoint.from_json_dict(doc) == COMONOTONE_PAIR


class TestExpectedMax:
    def test_point_mass(self):
        assert expected_max(NonnegJoint(2, [((2.0, 5.0), 1.0)])) == 5.0

    def test_constant_maximum(self):
        j = NonnegJoint(2, [((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5)])
        assert expected_max(j) == 1.0

    def test_embedding_equals_hit_probability_exactly(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            joint = random_sparse_joint(rng, max_n=8)
            assert expected_max(bernoulli_embedding(joint)) == prob_hit(joint)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            j = random_nonneg(rng)
            assert expected_max(j) == pytest.approx(
                oracles.oracle_expected_max(list(j.atoms)), abs=1e-12
            )


class TestExpectedMaxIndependent:
    def test_independent_input_self_consistent(self):
        # A joint already independent equals its own independent version.
        base = product(MarginalVector([0.4, 0.7]))
        j = bernoulli_embedding(base)
        assert abs(expected_max_independent(j) - expected_max(j)) <= 1e-10

    def test_embedding_equals_closed_form_exactly(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            joint = random_sparse_joint(rng, max_n=8)
            embedded = bernoulli_embedding(joint)
            assert expected_max_independent(embedded) == prob_hit_independent(
                marginals(joint)
            )

    def test_comonotone_pair_hand_values(self):
        assert expected_max(COMONOTONE_PAIR) == 1.5
        assert expected_max_independent(COMONOTONE_PAIR) == pytest.approx(
            1.75, abs=1e-12
        )

    def test_matches_product_enumeration_oracle(self):
        rng = np.random.default_rng(54)
        for _ in range(200):
            j = random_nonneg(rng, max_n=4, max_support=6)
            assert expected_max_independent(j) == pytest.approx(
                oracles.oracle_expected_max_independent(list(j.atoms)), abs=1e-10
            )


class TestDecouplingCheck:
    def test_comonotone_pair(self):
        check = decoupling_check_cont(COMONOTONE_PAIR)
        assert check.emax == 1.5
        assert check.upper_holds  # 1.5 <= c * 1.75
        assert not check.pairwise_ok  # perfectly positively dependent
        assert 1.5 <= PINELIS_CONSTANT * check.emax_ind + 1e-10

    def test_point_mass(self):
        check = decoupling_check_cont(NonnegJoint(3, [((1.0, 2.0, 0.5), 1.0)]))
        assert check.emax == check.emax_ind
        assert check.upper_holds and check.lower_holds

    def test_affine_hash_values_family(self):
        tables = [tuple(float(v) for v in range(5)) for _ in range(4)]
        j = affine_hash_values(4, 5, tables)
        check = decoupling_check_cont(j)
        assert check.pairwise_ok
        assert check.lower_holds and check.upper_holds

    def test_universal_upper_randomized(self):
        rng = np.random.default_rng(55)
        for _ in range(500):
            check = decoupling_check_cont(random_nonneg(rng))
            assert check.upper_holds
            if check.pairwise_ok:
                assert check.lower_holds


class TestAffineHashValues:
    def test_identity_tables_q3(self):
        tables = [(0.0, 1.0, 2.0)] * 3
        j = affine_hash_values(3, 3, tables)
        assert len(j.atoms) == 9
        assert all(prob == pytest.approx(1 / 9, abs=1e-15) for _, prob in j.atoms)
        for i in range(3):
            law = {}
            for vec, prob in j.atoms:
                law[vec[i]] = law.get(vec[i], 0.0) + prob
            assert law == pytest.approx({0.0: 1 / 3, 1.0: 1 / 3, 2.0: 1 / 3})

    def test_constant_tables_point_mass(self):
        j = affine_hash_values(2, 3, [(1.5,) * 3, (0.5,) * 3])
        assert j.atoms == (((1.5, 0.5), 1.0),)

    def test_threshold_tables_reduce_to_bernoulli_family(self):
        q, m, n = 5, 2, 4
        tables = [tuple(1.0 if v < m else 0.0 for v in range(q))] * n
        j = affine_hash_values(n, q, tables)
        base = affine_hash(n, q, m)
        assert expected_max(j) == pytest.approx(prob_hit(base), abs=1e-12)
        assert expected_max_independent(j) == pytest.approx(
            prob_hit_independent(marginals(base)), abs=1e-12
        )

    def test_pairwise_independent_in_orthant_sense(self):
        tables = [tuple(float((3 * v + i) % 7) for v in range(7)) for i in range(5)]
        j = affine_hash_values(5, 7, tables)
        assert pairwise_orthant_ok(j)

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidDistributionError):
            affine_hash_values(2, 3, [(0.0, 1.0, 2.0), (0.0, -1.0, 2.0)])

    @pytest.mark.parametrize(
        "entry, fault",
        [
            (10**400, "must be finite and >= 0, got inf"),
            (-(10**400), "must be finite and >= 0, got -inf"),
            (float("nan"), "must be finite and >= 0, got nan"),
            (-1, "must be finite and >= 0, got -1.0"),
            ("1", "must be a number"),
            (True, "must be a number"),
            (None, "must be a number"),
        ],
        ids=["huge", "huge-negative", "nan", "negative", "string", "bool", "null"],
    )
    def test_tables_are_checked_by_the_load_rules(self, entry, fault):
        # The load path's wording, naming the table and the position in it.
        with pytest.raises(InvalidDistributionError, match=f"^value_maps\\[1\\]\\[2\\] {fault}$"):
            affine_hash_values(2, 3, [(0.0, 1.0, 2.0), (0.0, 1.0, entry)])
        doc = {"kind": "nonneg-joint", "n": 2, "atoms": [{"values": [0.0, entry], "p": 1.0}]}
        with pytest.raises(InvalidDistributionError, match=f"^atoms\\[0\\].values\\[1\\] {fault}$"):
            NonnegJoint.from_json_dict(doc)
        with pytest.raises(InvalidDistributionError, match=f"^value_maps\\[0\\]\\[0\\] {fault}$"):
            affine_hash_values(1, 2, [[entry, 1.0]])

    def test_tables_take_numpy_numbers(self):
        tables = [np.arange(3), np.array([0.5, 1.5, 2.5])]
        plain = affine_hash_values(2, 3, [[0, 1, 2], [0.5, 1.5, 2.5]])
        assert affine_hash_values(2, 3, tables).atoms == plain.atoms

    def test_rejects_bad_table_length(self):
        with pytest.raises(ValueError, match="^value table 0 must have length q=3$"):
            affine_hash_values(2, 3, [(0.0, 1.0), (0.0, 1.0, 2.0)])
        # One table too few or too many.
        for tables in ([(0.0, 1.0, 2.0)], [(0.0, 1.0, 2.0)] * 3):
            with pytest.raises(ValueError, match=rf"^need one value table per variable \(2\), got {len(tables)}$"):
                affine_hash_values(2, 3, tables)

    def test_rejects_composite_q(self):
        with pytest.raises(ValueError):
            affine_hash_values(2, 4, [(0.0,) * 4, (1.0,) * 4])

    def test_q_and_n_are_checked_before_the_tables(self):
        with pytest.raises(ValueError, match="^q must be prime, got 4$"):
            affine_hash_values(2, 4, [(0.0,) * 3])
        with pytest.raises(ValueError, match=r"^need 1 <= n <= q, got n=4, q=3$"):
            affine_hash_values(4, 3, [(0.0,) * 2])

    def test_threshold_tables_have_the_embedded_atoms(self):
        # The same hash cells: 0/1 tables h < m give the embedded Bernoulli
        # family atom for atom, probabilities included.
        for n, q, m in [(1, 2, 1), (3, 5, 2), (4, 5, 0), (6, 7, 3), (7, 11, 4), (5, 13, 13)]:
            embedded = bernoulli_embedding(affine_hash(n, q, m))
            tables = [tuple(1.0 if h < m else 0.0 for h in range(q))] * n
            assert sorted(embedded.atoms) == list(affine_hash_values(n, q, tables).atoms)


class TestLayerCake:
    def test_randomized_tail_integral_identity(self):
        # The only way to see the identity fail is an InvariantError from the
        # built-in cross-check; also recompute independently here.
        rng = np.random.default_rng(56)
        for _ in range(1000):
            j = random_nonneg(rng)
            direct = expected_max(j)
            grid = sorted({0.0} | {v for vec, _ in j.atoms for v in vec})
            layered = 0.0
            for t, t_next in zip(grid, grid[1:]):
                surv = sum(p for vec, p in j.atoms if max(vec) > t)
                layered += (t_next - t) * surv
            assert abs(direct - layered) <= 1e-10

    def test_cross_check_slack_scales_with_values(self):
        # Values near 1e9 make the two sums differ in their last ulps, far
        # above any absolute slack; the cross-check must still accept them.
        rng = np.random.default_rng(57)
        for _ in range(200):
            weights = rng.random(int(rng.integers(2, 5))) + 0.1
            probs = weights / weights.sum()
            atoms = [
                (tuple(float(v) for v in rng.uniform(0.5e9, 1.5e9, 3)), float(p))
                for p in probs
            ]
            direct = oracles.oracle_expected_max(atoms)
            assert expected_max(NonnegJoint(3, atoms)) == pytest.approx(direct, rel=1e-15)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_subnormal_values_report(self, tmp_path, fmt):
        # Each 0.5 x 5e-324 of the direct sum rounds to 0, and the layered
        # sum keeps 5e-324: an absolute error that no slack relative to the
        # largest value covers.
        doc = {"kind": "nonneg-joint", "n": 2, "atoms": [
            {"values": [5e-324, 0.0], "p": 0.5}, {"values": [0.0, 5e-324], "p": 0.5}]}
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--in", str(path), "--format", fmt]) == EXIT_OK

    @pytest.mark.parametrize("scale", [5e-324, 1e-322, 1e-318])
    def test_cross_check_accepts_subnormal_values(self, scale):
        # Values k x scale, k <= 6, on up to 5 atoms over up to 4 variables.
        rng = np.random.default_rng(58)
        for _ in range(300):
            n, support = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            weights = rng.random(support) + 0.01
            values = (rng.integers(0, 7, (support, n)) * scale).tolist()
            joint = NonnegJoint(n, list(zip(values, (weights / weights.sum()).tolist())))
            assert decoupling_check_cont(joint).universal_ok, joint.atoms

    def test_cross_check_still_rejects_a_real_mismatch(self, monkeypatch):
        from maxdecouple import continuous

        layer_cake = continuous._layer_cake_expected_max
        monkeypatch.setattr(
            continuous,
            "_layer_cake_expected_max",
            lambda joint, grid: layer_cake(joint, grid) * (1 + 1e-9),
        )
        with pytest.raises(InvariantError, match="tail-integral cross-check failed"):
            expected_max(NonnegJoint(2, [((1e9, 2e9), 0.5), ((3e9, 0.0), 0.5)]))


class TestUniversalOk:
    def test_lower_bound_counts_only_under_the_orthant_condition(self):
        # Fields: emax, emax_ind, upper_holds, pairwise_ok, lower_holds.
        assert ContinuousCheck(1.0, 1.0, True, True, True).universal_ok
        assert ContinuousCheck(1.0, 3.0, True, False, False).universal_ok
        assert not ContinuousCheck(1.0, 3.0, True, True, False).universal_ok
        assert not ContinuousCheck(2.0, 1.0, False, False, True).universal_ok


class TestEmbeddingVerdictAgreement:
    def test_checks_commute_with_embedding(self):
        instances = [
            conjectured_extremal(4),
            comonotone(5, 0.2),
            product(MarginalVector([0.3, 0.7, 0.5])),
            affine_hash(3, 5, 2),
        ]
        rng = np.random.default_rng(57)
        instances += [random_sparse_joint(rng, max_n=6) for _ in range(200)]
        for joint in instances:
            embedded = bernoulli_embedding(joint)
            check = decoupling_check_cont(embedded)
            assert check.emax == prob_hit(joint)
            assert check.emax_ind == prob_hit_independent(marginals(joint))
            assert check.upper_holds == pinelis_upper_check(joint).holds
            assert check.pairwise_ok == main_lower_check(joint).applicable


def lattice_nonneg(rng):
    """Values on {0, 1, 2, 3}, so thresholds and values tie everywhere."""
    n = int(rng.integers(2, 6))
    support = int(rng.integers(1, 11))
    rows = {tuple(float(v) for v in rng.integers(0, 4, size=n)) for _ in range(support)}
    weights = rng.random(len(rows)) + 1e-3
    probs = weights / weights.sum()
    return NonnegJoint(n, [(v, float(p)) for v, p in zip(sorted(rows), probs)])


class TestOrthantAgainstOracle:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(61)
        verdicts = []
        for k in range(360):
            if k % 3 == 0:
                joint = random_nonneg(rng)
            elif k % 3 == 1:
                joint = lattice_nonneg(rng)
            else:
                # Pairwise independent: every excess sits at rounding level.
                q = int(rng.choice([3, 5, 7]))
                n = int(rng.integers(2, q + 1))
                tables = [[float(v) for v in rng.integers(0, 3, size=q)] for _ in range(n)]
                joint = affine_hash_values(n, q, tables)
            got = pairwise_orthant_ok(joint)
            want = oracles.oracle_pairwise_orthant_ok(list(joint.atoms), orthant_tau(joint))
            assert got == want
            verdicts.append(got)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_rounding_heavy_independent_law_passes(self):
        # Two independent fair coins, whose (1, 1) cell comes in 100,000
        # pieces just under half an ulp of 1/4, after a (1, 0) atom of 1/4:
        # P(X_1 > 0) loses every piece, P(X_1 > 0, X_2 > 0) none, so the
        # computed excess passes the floor though the exact one is 0.
        k, eps = 100_000, 2.0**-55 - 2.0**-60
        atoms = [((1.0, 0.0), 0.25), *[((1.0, 1.0), eps)] * k,
                 ((1.0, 1.0), 0.25 - k * eps), ((0.0, 1.0), 0.25), ((0.0, 0.0), 0.25)]
        joint = NonnegJoint(2, atoms)
        assert Fraction(0.25 - k * eps) + k * Fraction(eps) == Fraction(1, 4)  # every cell 1/4
        (excess,) = joint._thresholds.max_excess
        assert dist.NORMALIZATION_TOL < excess <= orthant_tau(joint) - dist.NORMALIZATION_TOL
        assert pairwise_orthant_ok(joint)
        assert decoupling_check_cont(joint).universal_ok

    def test_sweep_makes_no_summarize_call(self, monkeypatch):
        def refuse(bits, weights):
            raise AssertionError("the threshold sweep called dist._summarize")

        monkeypatch.setattr(dist, "_summarize", refuse)
        assert not hasattr(continuous, "_summarize")
        rng = np.random.default_rng(62)
        joints = [random_nonneg(rng) for _ in range(40)] + [lattice_nonneg(rng) for _ in range(40)]
        joints.append(bernoulli_embedding(random_sparse_joint(rng)))
        for joint in joints:
            fresh = NonnegJoint(joint.n, joint.atoms)
            decoupling_check_cont(fresh)
            expected_max(fresh)


def one_threshold_sweep(joint):
    """P(max > t) and P(max~ > t) at each threshold below the largest, one
    threshold at a time by plain loops in atom order."""
    grid = sorted({0.0}.union(*(values for values, _ in joint.atoms)))
    hit, hit_independent = [], []
    for t in grid[:-1]:
        total = 0.0
        p = [0.0] * joint.n
        for values, prob in joint.atoms:
            if max(values) > t:
                total += prob
            for i, v in enumerate(values):
                if v > t:
                    p[i] += prob
        hit.append(total)
        hit_independent.append(1.0 - math.prod(1.0 - x for x in p))
    return grid, hit, hit_independent


def sweep_joints(rng):
    yield from (random_nonneg(rng) for _ in range(60))
    yield from (lattice_nonneg(rng) for _ in range(60))
    for q, n in ((5, 4), (7, 7), (11, 9)):
        values = rng.permutation(np.arange(1, n * q + 1)) * 0.5
        yield affine_hash_values(n, q, [values[i * q:(i + 1) * q] for i in range(n)])
        values = rng.integers(0, 3, size=n * q)
        yield affine_hash_values(n, q, [values[i * q:(i + 1) * q] for i in range(n)])


class TestThresholdSweep:
    def test_hit_probabilities_equal_one_threshold_reference(self):
        for joint in sweep_joints(np.random.default_rng(63)):
            sweep = joint._thresholds
            grid, hit, hit_independent = one_threshold_sweep(joint)
            assert sweep.grid == grid
            assert sweep.hit == hit
            assert sweep.hit_independent == hit_independent

    def test_max_excess_within_rounding_of_exact(self):
        rng = np.random.default_rng(64)
        joints = list(sweep_joints(rng)) + sweep_edge_cases(rng)
        for joint in joints:
            got = joint._thresholds.max_excess
            want = exact_max_excess(joint)
            assert len(got) == len(want)
            slack = Fraction(4 * len(joint.atoms), 2**52)
            for g, w in zip(got, want):
                if w is None:
                    assert g == -math.inf
                else:
                    assert abs(Fraction(g) - w) <= slack

    def test_forced_blocks_match_one_block_exactly(self, monkeypatch):
        joints = list(sweep_joints(np.random.default_rng(65)))
        joints += sweep_edge_cases(np.random.default_rng(66))
        whole = [tuple(joint._thresholds) for joint in joints]
        blocks = []

        def recording(what, start, stop, nbytes):
            parts = list(dist._blocks(what, start, stop, nbytes))
            blocks.append((what.split(" of ")[0], [p.stop - p.start for p in parts]))
            return parts

        monkeypatch.setattr(continuous, "_blocks", recording)
        split = {"one threshold": 0, "one class pair": 0}
        for joint, one in zip(joints, whole):
            atoms, n, cuts = len(joint.atoms), joint.n, len(one[0]) - 1
            # The largest smallest block: one column, threshold or class pair.
            budget = max(25 * atoms, 24 * (2 * n + 1), 8 * (2 * atoms + 3 * cuts + 3))
            monkeypatch.setattr(dist, "SUMMARY_BUDGET", budget)
            blocks.clear()
            assert tuple(NonnegJoint(n, joint.atoms)._thresholds) == one
            for kind in split:
                split[kind] += any(len(sizes) > 1 for what, sizes in blocks if what == kind)
        assert min(split.values()) > len(joints) // 2

    def test_wide_joint_reports_in_blocks(self, tmp_path, capsys):
        # 3 atoms over 600 distinct random columns: 179,700 class pairs over
        # 1,801 ranks, whose pair tables in one piece would take 2.6 GB.
        rng = np.random.default_rng(67)
        weights = [0.2, 0.3, 0.5]
        joint = NonnegJoint(600, list(zip(rng.random((3, 600)).tolist(), weights)))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(joint.to_json_dict()))
        assert main(["report", "--in", str(path)]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got == reference_check(joint)._asdict()


def sweep_edge_cases(rng):
    """Duplicate columns, n = 1, one atom, an all-zero column, all values equal."""
    base = random_nonneg(rng, max_n=4)
    rows = [(values + values[:2], p) for values, p in base.atoms]
    lattice = lattice_nonneg(rng)
    return [
        NonnegJoint(base.n + min(2, base.n), rows),
        NonnegJoint(1, [((float(v),), 0.25) for v in (0.5, 2.0, 1.0, 3.5)]),
        NonnegJoint(4, [((1.0, 0.0, 2.5, 1.0), 1.0)]),
        NonnegJoint(lattice.n + 1, [(values + (0.0,), p) for values, p in lattice.atoms]),
        NonnegJoint(3, [((1.5, 1.5, 1.5), 0.375), ((1.5, 1.5, 1.5), 0.625)]),
        NonnegJoint(2, [((0.0, 0.0), 1.0)]),
    ]


def exact_max_excess(joint):
    """max over i != j of P(X_i > t, X_j > t) - P(X_i > t) P(X_j > t) at each
    threshold below the largest value, in exact rationals (None when n = 1)."""
    grid = sorted({0.0}.union(*(values for values, _ in joint.atoms)))
    out = []
    for t in grid[:-1]:
        rows = [([v > t for v in values], Fraction(p)) for values, p in joint.atoms]
        single = [sum(p for fired, p in rows if fired[i]) for i in range(joint.n)]
        out.append(max(
            (sum(p for fired, p in rows if fired[i] and fired[j]) - single[i] * single[j]
             for i in range(joint.n) for j in range(joint.n) if i != j),
            default=None,
        ))
    return out


def orthant_tau(joint):
    """The orthant test's slack: the rule at 3 atoms + thresholds + 2."""
    cuts = len({0.0}.union(*(values for values, _ in joint.atoms))) - 1
    return dist._summed_slack(3 * len(joint.atoms) + cuts + 2)


def reference_check(joint):
    """The continuous check from one threshold at a time: the marginals
    summed over the atoms in order, and the Bernoulli summary of the
    threshold's indicator table for the largest pair excess."""
    values, weights = joint._values, joint._weights
    grid = sorted({0.0}.union(values.ravel().tolist()))
    hit_independent, excess = [], []
    for t in grid[:-1]:
        fired = values > t
        p = np.zeros(joint.n)
        for row, w in zip(fired, weights.tolist()):
            p += np.where(row, w, 0.0)
        hit_independent.append(1.0 - math.prod((1.0 - p).tolist()))
        excess.append(dist._summarize(fired, weights).max_excess)
    emax, emax_ind = 0.0, 0.0
    for vec, prob in joint.atoms:
        emax += prob * max(vec)
    for t, t_next, s in zip(grid, grid[1:], hit_independent):
        emax_ind += (t_next - t) * s
    # Both verdicts take the rule at 3 (atoms + 2n) + 2 thresholds + 6, in
    # units of the largest value; the lower one n (n - 1) tau more.
    n, tau = joint.n, orthant_tau(joint)
    slack = dist._summed_slack(3 * (len(weights) + 2 * n) + 2 * (len(grid) - 1) + 6)
    return ContinuousCheck(
        emax, emax_ind, holds(emax, PINELIS_CONSTANT * emax_ind, slack, grid[-1]),
        all(e <= tau for e in excess),
        holds(0.5 * emax_ind, emax, slack + n * (n - 1) * tau, grid[-1]),
    )


class TestMonotoneTransformInvariance:
    def test_strictly_increasing_map_preserves_verdict(self):
        rng = np.random.default_rng(58)
        maps = [
            lambda v: 2.0 * v + 0.25,
            lambda v: v * v,
            lambda v: v / (1.0 + v),
            lambda v: math.sqrt(v),
        ]
        for _ in range(250):
            j = random_nonneg(rng)
            before = pairwise_orthant_ok(j)
            f = maps[int(rng.integers(0, len(maps)))]
            mapped = NonnegJoint(
                j.n, [(tuple(f(v) for v in vec), p) for vec, p in j.atoms]
            )
            assert pairwise_orthant_ok(mapped) == before

    def test_weakly_nondecreasing_map_preserves_pass(self):
        rng = np.random.default_rng(59)
        for _ in range(250):
            j = random_nonneg(rng)
            if not pairwise_orthant_ok(j):
                continue
            delta = float(rng.uniform(0.4, 1.2))
            floored = NonnegJoint(
                j.n,
                [
                    (tuple(math.floor(v / delta) * delta for v in vec), p)
                    for vec, p in j.atoms
                ],
            )
            assert pairwise_orthant_ok(floored)

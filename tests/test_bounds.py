"""Bound checks: hand-pinned example values, oracle cross-checks, and
randomized universality sweeps."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from maxdecouple import (
    CONJECTURED_LOWER_CONSTANT,
    PINELIS_CONSTANT,
    InvalidDistributionError,
    JointBernoulli,
    MarginalVector,
    bernoulli_embedding,
    comonotone,
    conjectured_extremal,
    eta_lower_check,
    full_report,
    g_function,
    main_lower_check,
    one_hot_uniform,
    pairwise_orthant_ok,
    paley_zygmund_lower,
    pinelis_upper_check,
    prob_hit,
    prob_hit_independent,
    permute_variables,
    product,
)
from maxdecouple import bounds, dist
from test_dist import duplicate_variables, random_sparse_joint


class TestConstants:
    def test_upper_constant_from_e(self):
        assert PINELIS_CONSTANT == math.e / (math.e - 1.0)
        assert abs(PINELIS_CONSTANT - 1.5819767) < 1e-7

    def test_lower_constant_is_half(self):
        assert CONJECTURED_LOWER_CONSTANT == PINELIS_CONSTANT / 2.0
        assert abs(CONJECTURED_LOWER_CONSTANT - 0.79099) < 1e-5


class TestPinelisUpper:
    def test_one_hot_pair(self):
        check = pinelis_upper_check(one_hot_uniform(2))
        assert check.lhs == 1.0
        assert check.rhs == pytest.approx(PINELIS_CONSTANT * 0.75, abs=1e-15)
        assert check.rhs == pytest.approx(1.18648, abs=1e-5)
        assert check.holds

    def test_degenerate_zero_joint(self):
        check = pinelis_upper_check(JointBernoulli(2, {0: 1.0}))
        assert check == (0.0, 0.0, True)

    def test_one_hot_ratio_approaches_constant(self):
        # ratio = P(Z>0) / P(Z~>0) = 1 / (1 - (1-1/n)^n) increases to c.
        previous = 0.0
        for n in (10, 100, 10**4, 10**6):
            p = MarginalVector((1.0 / n,) * n)
            ratio = 1.0 / prob_hit_independent(p)
            assert previous < ratio < PINELIS_CONSTANT
            previous = ratio
        assert abs(ratio - PINELIS_CONSTANT) < 1e-5

    def test_universal_on_randomized_joints(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            assert pinelis_upper_check(random_sparse_joint(rng)).holds


class TestPaleyZygmund:
    def test_extremal_three_is_tight(self):
        j = conjectured_extremal(3)
        ez, ez2 = oracles.oracle_moments_z(dict(j.atoms))
        assert (ez, ez2) == (1.5, 3.0)
        assert paley_zygmund_lower(j) == pytest.approx(0.75, abs=1e-15)
        assert paley_zygmund_lower(j) == pytest.approx(prob_hit(j), abs=1e-15)

    def test_deterministic_joint(self):
        assert paley_zygmund_lower(JointBernoulli(2, {0b11: 1.0})) == 1.0

    def test_comonotone_eight_is_tight(self):
        j = comonotone(8, 0.1)
        assert paley_zygmund_lower(j) == pytest.approx(0.1, abs=1e-15)
        assert prob_hit(j) == 0.1

    def test_zero_mass_case(self):
        assert paley_zygmund_lower(JointBernoulli(2, {0: 1.0})) == 0.0

    def test_never_exceeds_hit_probability(self):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            j = random_sparse_joint(rng)
            assert paley_zygmund_lower(j) <= prob_hit(j) + 1e-12


class TestMainLower:
    def test_extremal_three(self):
        check = main_lower_check(conjectured_extremal(3))
        assert check.lhs == 0.75
        assert check.rhs == pytest.approx(0.4375, abs=1e-15)
        assert check.applicable and check.holds

    def test_one_hot_four_negative_covariance(self):
        check = main_lower_check(one_hot_uniform(4))
        assert check.applicable  # pair moments are 0 < 1/16
        assert check.lhs == 1.0
        assert check.rhs == pytest.approx(0.5 * (1 - (3 / 4) ** 4), abs=1e-15)
        assert check.rhs == pytest.approx(0.34180, abs=1e-5)
        assert check.holds

    def test_comonotone_not_applicable(self):
        check = main_lower_check(comonotone(8, 1e-3))
        assert not check.applicable

    def test_holds_whenever_applicable_randomized(self):
        rng = np.random.default_rng(103)
        seen_applicable = 0
        for _ in range(1000):
            check = main_lower_check(random_sparse_joint(rng))
            if check.applicable:
                seen_applicable += 1
                assert check.holds
        assert seen_applicable > 0


class TestEtaLower:
    def test_reduces_to_half_bound_for_pairwise_independent(self):
        j = product(MarginalVector([0.2, 0.6, 0.4]))
        eta = eta_lower_check(j)
        main = main_lower_check(j)
        assert eta.rhs == main.rhs

    def test_comonotone_pair_hand_values(self):
        # S = 0.2, B = 0.24, H = 0.18, M~ = 0.19: rhs = 0.5*(1 - 0.18/0.42)*0.19
        eta = eta_lower_check(comonotone(2, 0.1))
        assert eta.rhs == pytest.approx(0.38 / 7.0, abs=1e-12)
        assert eta.rhs == pytest.approx(0.054286, abs=1e-6)
        assert eta.lhs == 0.1
        assert eta.holds

    def test_degenerate_zero_joint(self):
        assert eta_lower_check(JointBernoulli(2, {0: 1.0})) == (0.0, 0.0, True)

    def test_universal_on_randomized_joints(self):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            assert eta_lower_check(random_sparse_joint(rng)).holds


class TestGFunction:
    def test_single_half(self):
        g, f = g_function(MarginalVector([0.5]))
        assert g == pytest.approx(0.25, abs=1e-15)
        assert f == pytest.approx(0.125, abs=1e-15)

    def test_vanishing_product(self):
        g, f = g_function(MarginalVector([1.0, 1.0]))
        assert (g, f) == (1.0, 2.0)

    def test_nonnegative_on_random_vectors(self):
        rng = np.random.default_rng(105)
        worst = math.inf
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            g, _ = g_function(MarginalVector([float(x) for x in rng.random(n)]))
            worst = min(worst, g)
        assert worst >= -1e-12

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20)
    )
    def test_nonnegative_hypothesis(self, p):
        g, f = g_function(MarginalVector(p))
        assert g >= -1e-12
        assert f >= -1e-12


class TestFullReport:
    def test_extremal_three_fields(self):
        report = full_report(conjectured_extremal(3))
        assert report.M == 0.75
        assert report.M_tilde == 0.875
        assert report.S == 1.5
        assert report.H == 0.0
        assert report.A == pytest.approx(2.25, abs=1e-15)
        assert report.B == pytest.approx(3.75, abs=1e-15)
        assert report.C == 0.4375
        assert report.pz_lower == pytest.approx(0.75, abs=1e-15)
        assert report.universal_ok
        assert all(report.verdicts.values())

    def test_product_equals_its_independent_version(self):
        report = full_report(product(MarginalVector([0.3, 0.7])))
        assert report.M == pytest.approx(0.79, abs=1e-12)
        assert report.M == pytest.approx(report.M_tilde, abs=1e-12)

    def test_comonotone_ratio_approaches_n(self):
        report = full_report(comonotone(8, 1e-6))
        assert report.M_tilde / report.M == pytest.approx(8.0, abs=1e-3)
        assert not report.verdicts["main_lower_applicable"]
        assert report.universal_ok  # conditional bound vacuous, universals hold

    def test_factorization_identity(self):
        rng = np.random.default_rng(106)
        for _ in range(500):
            n = int(rng.integers(1, 15))
            p = MarginalVector([float(x) for x in rng.random(n)])
            s = p.total
            prod_term = math.prod(1.0 - x for x in p.p)
            g, f = g_function(p)
            direct = 2.0 * s * s - (s + s * s) * (1.0 - prod_term)
            assert abs(f - direct) <= 1e-10

    def test_ratio_cap_randomized(self):
        rng = np.random.default_rng(107)
        for _ in range(1000):
            j = random_sparse_joint(rng)
            report = full_report(j)
            assert report.M_tilde <= j.n * report.M + 1e-12

    def test_one_sum_and_one_product_per_report(self, monkeypatch):
        # S = sum p_i and P = prod (1 - p_i) are formed once per joint, and
        # every check and the report read them.
        calls = {"sum": 0, "prod": 0}

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(dist, "sum", counted("sum", sum), raising=False)
        monkeypatch.setattr(math, "prod", counted("prod", math.prod))
        report = full_report(conjectured_extremal(12))
        assert calls == {"sum": 1, "prod": 1}
        assert report.C == main_lower_check(conjectured_extremal(12)).rhs

    def test_json_field_names(self):
        payload = full_report(conjectured_extremal(3))._asdict()
        assert list(payload) == [
            "M",
            "M_tilde",
            "S",
            "P_prod",
            "G",
            "F",
            "A",
            "B",
            "C",
            "H",
            "pz_lower",
            "pinelis_rhs",
            "eta_lower",
            "verdicts",
        ]

    def test_moment_implication_verdict(self):
        rng = np.random.default_rng(108)
        for _ in range(300):
            report = full_report(random_sparse_joint(rng))
            assert report.verdicts["moment_implication"]

    def test_one_summary_per_joint(self, monkeypatch):
        calls = []
        summarize = dist._summarize

        def counting(bits, weights):
            calls.append(bits.shape)
            return summarize(bits, weights)

        monkeypatch.setattr(dist, "_summarize", counting)
        rng = np.random.default_rng(109)
        joints = [product(MarginalVector([0.3, 0.7, 0.5])), comonotone(4, 0.2)]
        joints += [random_sparse_joint(rng) for _ in range(20)]
        joints += [duplicate_variables(rng, random_sparse_joint(rng)) for _ in range(20)]
        for j in joints:
            full_report(j)
            main_lower_check(j)
            eta_lower_check(j)
        assert calls == [(len(j.atoms), j.n) for j in joints]

    def test_wide_two_atom_joint(self):
        # One pair matrix over n = 50,000 variables would take 20 GB; the
        # summary keeps two column classes (fired and idle), so it is 2 x 2.
        n, q = 50_000, 0.3
        rng = np.random.default_rng(110)
        fired = {0, n - 1} | {int(i) for i in rng.choice(n, size=38, replace=False)}
        c = len(fired)
        j = JointBernoulli(n, {0: 1.0 - q, sum(1 << i for i in fired): q})
        tracemalloc.start()
        try:
            report = full_report(j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert j.summary.pair_moments.shape == (2, 2)
        assert report.M == q
        assert report.H == pytest.approx(c * (c - 1) * q * (1 - q), rel=1e-12)
        assert report.verdicts["main_lower_applicable"] is False
        assert report.universal_ok
        assert peak < 64 * 2**20


def wide_random_joints(count, seed=1):
    """Valid joints of 2-5 random atoms over 500 to 14,000 variables: S
    reaches the thousands, so F = S*G reaches 10^7."""
    rng = random.Random(seed)
    joints = []
    for _ in range(count):
        n = rng.choice((500, 2000, 8000, 14000))
        size = rng.randint(2, 5)
        masks = set()
        while len(masks) < size:
            masks.add(rng.getrandbits(n))
        weights = [rng.random() + 1e-3 for _ in masks]
        total = sum(weights)
        joints.append(JointBernoulli(n, {m: w / total for m, w in zip(sorted(masks), weights)}))
    return joints


def inflate_f(monkeypatch, factor):
    """Make `full_report` see F = S*G off by `factor`."""
    real = bounds.g_function
    monkeypatch.setattr(
        bounds, "g_function", lambda p: real(p)._replace(f=real(p).f * factor)
    )


class TestScaleAwareVerdicts:
    def test_holds_is_relative_to_the_larger_term(self):
        floor = dist._summed_slack(0)
        assert bounds.holds(1.0 + 0.5e-12, 1.0, floor) and not bounds.holds(1.0 + 2e-12, 1.0, floor)
        assert bounds.holds(1e6 + 0.5e-6, 1e6, floor) and not bounds.holds(1e6 + 2e-6, 1e6, floor)
        # Below 1 the slack stays absolute: G = -0.5e-12 is rounding.
        assert bounds.holds(0.0, -0.5e-12, floor) and not bounds.holds(0.0, -2e-12, floor)

    def test_wide_joints_are_universal_ok(self):
        # F is about 1.1e6 for the first joint; rounding alone moves it
        # past a fixed slack of 1e-10.
        joints = [comonotone(1500, 0.7), comonotone(2500, 0.3)]
        for j in joints + wide_random_joints(60):
            report = full_report(j)
            assert report.universal_ok, (j.n, report.F, report.verdicts)

    def test_relative_error_in_f_is_still_a_violation(self, monkeypatch):
        inflate_f(monkeypatch, 1 + 1e-9)
        for j in (conjectured_extremal(3), comonotone(1500, 0.7)):
            report = full_report(j)
            assert not report.verdicts["factorization"] and not report.universal_ok

    def test_slack_follows_the_length_of_the_sums(self):
        # A small joint keeps the floor; 34,221 atoms add 2^-52 each.
        assert dist._summed_slack(0) == dist.NORMALIZATION_TOL == 1e-12
        assert dist._summed_slack(34_221) == pytest.approx(8.6e-12, rel=1e-2)
        assert dist._summed_slack(3 * 2**21 + 3) < 1.5e-9
        # A scale past both sides widens the slack, and never narrows it.
        slack = dist._summed_slack(10)
        assert not bounds.holds(1.0 + 1e-11, 1.0, slack)
        assert bounds.holds(1.0 + 1e-11, 1.0, slack, scale=1e2)
        assert bounds.holds(1e6 + 1e-7, 1e6, slack, scale=0.5)

    def test_real_gap_of_1e9_still_fails(self, monkeypatch):
        # Z is 0 or 2 on conjectured_extremal and 1 on one-hot, so
        # Paley-Zygmund is an equality there, up to rounding.
        for j in (conjectured_extremal(5), one_hot_uniform(3)):
            assert full_report(j).verdicts["paley_zygmund"]
        real = bounds.paley_zygmund_lower
        monkeypatch.setattr(bounds, "paley_zygmund_lower", lambda j: real(j) + 1e-9)
        for j in (conjectured_extremal(5), one_hot_uniform(3)):
            report = full_report(j)
            assert not report.verdicts["paley_zygmund"] and not report.universal_ok

    def test_real_pair_excess_of_1e9_still_fails(self):
        # p_1 = p_2 = 1/2 and P(X_1 = X_2 = 1) = 1/4 + 1e-9.
        e = 1e-9
        j = JointBernoulli(2, {0b00: 0.25 + e, 0b01: 0.25 - e, 0b10: 0.25 - e, 0b11: 0.25 + e})
        assert j.summary.max_excess == pytest.approx(e, rel=1e-6)
        assert not main_lower_check(j).applicable
        assert not full_report(j).verdicts["main_lower_applicable"]
        assert not pairwise_orthant_ok(bernoulli_embedding(j))


def distinct_columns_joint(atoms, n):
    """`atoms` equal atoms over n variables whose columns all differ:
    variable i fires on the atoms given by the bits of i + 1."""
    bits = ((np.arange(1, n + 1)[None, :] >> np.arange(atoms)[:, None]) & 1).astype(np.uint8)
    masks = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in bits]
    return JointBernoulli(n, {mask: 1.0 / atoms for mask in masks})


def bits_charge(atoms, n):
    """What `JointBernoulli.summary` charges for `_bits`: the atoms x n bit
    table, a packed table of ceil(n/8) bytes an atom, and one block of
    SAMPLE_CHUNK masks at ATOM_OBJECT_BYTES each."""
    return atoms * (n + (n + 7) // 8) + min(atoms, dist.SAMPLE_CHUNK) * dist.ATOM_OBJECT_BYTES


class TestMemoryBudget:
    def traced_peak_of_rejection(self, joint, match):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidDistributionError, match=match):
                full_report(joint)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    def test_many_distinct_columns_rejected_before_pair_data(self):
        # 100,000 column classes would need 480 GB of d x d matrices; the
        # 17 x 100,000 bit table (1.7 MB) is the largest array built.
        joint = distinct_columns_joint(17, 100_000)
        peak = self.traced_peak_of_rejection(
            joint, "tables of 100000 column classes over 17 atoms needs 4800"
        )
        assert peak < 64 * 2**20

    @staticmethod
    def always_on_first(atoms, n):
        """`atoms` distinct random atoms over n variables, the first of
        which fires on every atom: the largest row block `_summarize` can
        build, d x atoms, comes first."""
        rng = random.Random(7)
        masks = set()
        while len(masks) < atoms:
            masks.add(rng.getrandbits(n - 1) << 1 | 1)
        return JointBernoulli(n, {mask: 1.0 / atoms for mask in masks})

    @pytest.mark.parametrize("name", ["product15", "extremal100-permuted", "always-on"])
    def test_summary_charge_bounds_the_peak(self, monkeypatch, name):
        # On CPython 3.11 and numpy 2.4 the peaks are 0.87, 0.76 and 0.88
        # of the charge; the always-on column, whose row block spans every
        # atom, is the tightest.  The charge counts numpy's allocations, so
        # if a new Python or numpy fails a case, re-measure them.
        if name == "product15":
            joint = product(MarginalVector([0.05 + 0.03 * i for i in range(15)]))
        elif name == "extremal100-permuted":
            perm = list(range(100))
            random.Random(3).shuffle(perm)
            joint = permute_variables(conjectured_extremal(100), perm)
        else:
            joint = self.always_on_first(3000, 41)
        bits, weights = joint._bits().view(bool), np.array(joint.probs)
        charged = []
        monkeypatch.setattr(dist, "_check_budget", lambda what, nbytes: charged.append(nbytes))
        gc.collect()
        tracemalloc.start()
        try:
            summary = dist._summarize(bits, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.classes.max() + 1 == joint.n  # every column its own class
        assert len(charged) == 1 and peak <= charged[0], (peak, charged)

    def test_one_hot_rejected_before_bit_table(self):
        # One-hot over n variables needs an n x n bit table: 1.1 GB here.
        n = 33_000
        assert n * n > dist.SUMMARY_BUDGET
        joint = one_hot_uniform(n)
        charge = bits_charge(n, n)
        peak = self.traced_peak_of_rejection(
            joint, f"the {n} x {n} bit table, its packed table and one block of packed masks "
                   f"needs {charge} bytes")
        assert peak < 2**20

    def test_column_keys_charged_before_bit_table(self, monkeypatch):
        # Two atoms over 10,000 variables: a 23 kB bit table, but 650 kB of
        # column keys, one bytes object a variable.  The keys are charged
        # with the bit table, so the table is never made.
        joint = JointBernoulli(10_000, {0: 0.5, (1 << 10_000) - 1: 0.5})
        assert bits_charge(2, 10_000) <= 100_000
        monkeypatch.setattr(dist, "SUMMARY_BUDGET", 100_000)

        def refuse(self):
            raise AssertionError("_bits ran before the key charge")

        monkeypatch.setattr(JointBernoulli, "_bits", refuse)
        with pytest.raises(InvalidDistributionError, match=(
                "^joint too large to summarize: the 10000 column keys of 2 atoms needs 650000 "
                "bytes, over the budget of 100000 bytes$")):
            full_report(joint)

    def test_bits_charge_bounds_the_peak(self, monkeypatch):
        # `_bits` packs the masks a block at a time into one table, so at
        # n = 18 its peak (about 9.3 MB on CPython 3.11) stays within what
        # `summary` charges for it: the 4.7 MB bit table, the 0.8 MB packed
        # table and one block.  Packed in one piece, it peaked at 33.5 MB.
        joint = product(MarginalVector([0.3] * 18))
        charged = []
        monkeypatch.setattr(dist, "_check_budget", lambda what, nbytes: charged.append(nbytes))
        monkeypatch.setattr(dist, "_summarize", lambda bits, weights: None)
        joint.summary
        assert charged == [bits_charge(1 << 18, 18)]
        gc.collect()
        tracemalloc.start()
        try:
            bits = joint._bits()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits.shape == (1 << 18, 18)
        assert peak <= charged[0], (peak, charged)

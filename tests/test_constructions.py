"""Family builders: exact values, validation, and independence guarantees."""

import gc
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from maxdecouple import (
    CONJECTURED_LOWER_CONSTANT,
    InvalidDistributionError,
    MarginalVector,
    affine_hash,
    affine_hash_values,
    bernoulli_embedding,
    comonotone,
    conjectured_extremal,
    exchangeable_optimum,
    expand_exchangeable,
    is_pairwise_independent,
    main_lower_check,
    marginals,
    one_hot_uniform,
    permute_variables,
    prob_hit,
    prob_hit_independent,
    product,
    xor_parity,
)
from maxdecouple import constructions, dist
from maxdecouple.cli import EXIT_USAGE, main


class TestOneHotUniform:
    def test_pair_atoms(self):
        assert dict(one_hot_uniform(2).atoms) == {0b01: 0.5, 0b10: 0.5}

    def test_equals_the_expanded_weight_class_one(self):
        for n in range(1, 41):
            weights = [0.0] * (n + 1)
            weights[1] = 1.0
            assert one_hot_uniform(n).atoms == expand_exchangeable(n, weights).atoms

    def test_hit_probability_exactly_one(self):
        for n in range(1, 201):
            assert prob_hit(one_hot_uniform(n)) == 1.0

    def test_spread_sums_exactly_where_the_charge_admits(self):
        # A residual against the running float sum missed the exact total by
        # -1.0e-12 at n = 40,000, and at n = 105 by 1.02e-12 in the class of
        # three-hot masks, so both builders refused their own tables.
        assert math.fsum(one_hot_uniform(40_000).probs) == 1.0
        weights = exchangeable_optimum(105, Fraction(2, 104)).weights_exact
        joint = expand_exchangeable(105, weights)
        classes = {}
        for mask, p in joint.atoms:
            classes.setdefault(mask.bit_count(), []).append(p)
        totals = {k: math.fsum(probs) for k, probs in classes.items()}
        assert totals == {k: float(w) for k, w in enumerate(weights) if w}
        assert is_pairwise_independent(joint)
        assert joint.summary.max_abs_excess <= 1e-14

    def test_ten_variables_independent_version(self):
        j = one_hot_uniform(10)
        mtilde = prob_hit_independent(marginals(j))
        assert mtilde == pytest.approx(1 - 0.9**10, abs=1e-12)
        assert mtilde == pytest.approx(0.6513216, abs=1e-7)

    def test_marginals_near_uniform(self):
        p = marginals(one_hot_uniform(7)).p
        assert all(abs(x - 1 / 7) < 1e-15 for x in p)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            one_hot_uniform(0)


class TestConjecturedExtremal:
    def test_three_variables_exact_table(self):
        j = conjectured_extremal(3)
        assert dict(j.atoms) == {0: 0.25, 3: 0.25, 5: 0.25, 6: 0.25}

    def test_ratio_three(self):
        j = conjectured_extremal(3)
        ratio = prob_hit(j) / prob_hit_independent(marginals(j))
        assert ratio == pytest.approx(6 / 7, abs=1e-15)
        assert ratio >= 0.5

    def test_pairwise_independent_up_to_24(self):
        for n in range(3, 25):
            joint = conjectured_extremal(n)
            assert is_pairwise_independent(joint)
            assert joint.summary.max_abs_excess <= 1e-12

    def test_marginals_up_to_24(self):
        for n in range(3, 25):
            p = marginals(conjectured_extremal(n)).p
            assert max(abs(x - 1 / (n - 1)) for x in p) <= 1e-12

    def test_equals_the_expanded_weight_classes_zero_and_two(self):
        for n in range(2, 41):
            p_zero = 0.5 - 1.0 / (2.0 * (n - 1))
            weights = [p_zero, 0.0, 1.0 - p_zero] + [0.0] * (n - 2)
            assert conjectured_extremal(n).atoms == expand_exchangeable(n, weights).atoms, n

    def test_pairwise_independent_under_the_slack_rule(self):
        # The two-hot shares are whole quanta of ulp(P(Z=2)), so the pair
        # moments and marginals move by ulps from variable to variable;
        # main_lower still reads the law as pairwise independent.  Every n
        # up to 300 holds (34 s); these take 2 s.
        for n in (*range(2, 41), 61, 62, 100, 150, 200, 250, 299, 300):
            assert main_lower_check(conjectured_extremal(n)).applicable, n

    def test_pair_moment_matches_oracle(self):
        j = conjectured_extremal(4)
        m = oracles.oracle_second_moments(4, dict(j.atoms))
        for i in range(4):
            for k in range(4):
                if i != k:
                    assert m[i][k] == pytest.approx(1 / 9, abs=1e-15)

    def test_large_n_ratio_approaches_conjectured_constant(self):
        j = conjectured_extremal(300)
        ratio = prob_hit(j) / prob_hit_independent(marginals(j))
        assert abs(ratio - CONJECTURED_LOWER_CONSTANT) < 2e-3
        assert ratio > CONJECTURED_LOWER_CONSTANT  # decreases toward the limit

    def test_degenerate_two_permitted(self):
        j = conjectured_extremal(2)
        assert dict(j.atoms) == {0b11: 1.0}

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            conjectured_extremal(1)


class TestComonotone:
    def test_three_variables(self):
        assert dict(comonotone(3, 0.1).atoms) == {0: 0.9, 0b111: 0.1}

    def test_hit_probability_is_eps(self):
        for eps in (0.0, 1e-6, 0.3, 1.0):
            assert prob_hit(comonotone(5, eps)) == eps

    def test_ratio_approaches_n(self):
        for n in (2, 5, 8):
            j = comonotone(n, 1e-7)
            ratio = prob_hit_independent(marginals(j)) / prob_hit(j)
            assert ratio == pytest.approx(n, abs=1e-3)

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError):
            comonotone(3, -0.1)
        with pytest.raises(ValueError):
            comonotone(3, 1.1)
        with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
            comonotone(0, 0.5)


class TestAffineHash:
    def test_q3_m1_exact_values(self):
        j = affine_hash(3, 3, 1)
        assert all(
            prob * 9 == pytest.approx(round(prob * 9), abs=1e-12)
            for _, prob in j.atoms
        )
        assert marginals(j).p == pytest.approx((1 / 3,) * 3, abs=1e-15)
        m = oracles.pair_moment_matrix(j)
        for i in range(3):
            for k in range(3):
                if i != k:
                    assert m[i][k] == pytest.approx(1 / 9, abs=1e-15)

    def test_empty_threshold_is_zero_point_mass(self):
        assert dict(affine_hash(3, 3, 0).atoms) == {0: 1.0}

    def test_full_threshold_is_ones_point_mass(self):
        assert dict(affine_hash(3, 3, 3).atoms) == {0b111: 1.0}

    def test_pairwise_independent_across_primes(self):
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            for m in {0, 1, q // 2, q - 1, q}:
                j = affine_hash(min(q, 6), q, m)
                assert is_pairwise_independent(j), (q, m)
                assert j.summary.max_abs_excess <= 1e-12, (q, m)

    def test_rejects_composite_q(self):
        # Composite, and below the first prime, where is_prime refuses at once.
        for q in (9, 1, 0, -3):
            with pytest.raises(ValueError, match=f"^q must be prime, got {q}$"):
                affine_hash(1, q, 0)

    def test_rejects_n_above_q(self):
        with pytest.raises(ValueError):
            affine_hash(4, 3, 1)

    def test_rejects_m_out_of_range(self):
        with pytest.raises(ValueError):
            affine_hash(3, 3, 4)


class TestXorParity:
    def test_k2_exact(self):
        j = xor_parity(2)
        assert j.n == 3
        assert len(j.atoms) == 4
        assert all(prob == 0.25 for _, prob in j.atoms)
        assert marginals(j).p == (0.5, 0.5, 0.5)
        m = oracles.pair_moment_matrix(j)
        for i in range(3):
            for k in range(3):
                if i != k:
                    assert m[i][k] == 0.25

    def test_k1_single_fair_bit(self):
        assert dict(xor_parity(1).atoms) == {0: 0.5, 1: 0.5}

    def test_hit_probability_k2(self):
        assert prob_hit(xor_parity(2)) == 0.75

    def test_pairwise_independent_all_k(self):
        for k in range(1, 5):
            joint = xor_parity(k)
            assert is_pairwise_independent(joint)
            assert joint.summary.max_abs_excess <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            xor_parity(0)
        with pytest.raises(ValueError):
            xor_parity(5)


class TestProduct:
    def test_half_half(self):
        j = product(MarginalVector([0.5, 0.5]))
        assert dict(j.atoms) == {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}
        assert prob_hit(j) == prob_hit_independent(MarginalVector([0.5, 0.5]))

    def test_atom_is_direct_product(self):
        j = product(MarginalVector([0.3, 0.7]))
        assert dict(j.atoms)[0b10] == 0.7 * 0.7
        assert dict(j.atoms)[0b10] == pytest.approx(0.49, abs=1e-15)

    def test_hit_matches_closed_form_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = MarginalVector([float(x) for x in rng.random(int(rng.integers(1, 9)))])
            assert prob_hit(product(p)) == pytest.approx(
                prob_hit_independent(p), abs=1e-12
            )

    def test_boundary_marginals_drop_zero_atoms(self):
        j = product(MarginalVector([1.0, 0.5]))
        assert dict(j.atoms) == {0b01: 0.5, 0b11: 0.5}

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            product(MarginalVector([0.5] * 25))


class TestFamilySpec:
    # Each family's parameter names, the second field of its
    # `cli.FAMILY_BY_FLAG` entry, as `construct` checks them: every missing
    # and every unused one is named, by its family's flag, with exit 64.
    def check(self, capsys, flags, want):
        assert main(["construct", "--family", *flags]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == f"maxdecouple: usage error: family '{flags[0]}' {want}\n"

    def test_missing_parameter_named(self, capsys):
        cases = [
            (["one-hot"], "n"),
            (["extremal", "--k", "3"], "n"),
            (["comonotone", "--n", "3"], "eps"),
            (["comonotone"], "n, eps"),
            (["affine-hash", "--n", "3", "--m", "2"], "q"),
            (["xor", "--n", "3"], "k"),
            (["product", "--n", "2"], "p"),
        ]
        for flags, missing in cases:
            self.check(capsys, flags, f"needs parameter(s): {missing}")

    def test_unused_parameter_named(self, capsys):
        cases = [
            (["extremal", "--n", "3", "--eps", "0.5"], "eps"),
            (["one-hot", "--n", "3", "--k", "2"], "k"),
            (["comonotone", "--n", "3", "--eps", "0.5", "--q", "5", "--m", "1"], "q, m"),
            (["xor", "--k", "2", "--p", "0.5"], "p"),
            (["product", "--n", "2", "--p", "0.5,0.5"], "n"),
        ]
        for flags, unused in cases:
            self.check(capsys, flags, f"does not use parameter(s): {unused}")


class TestSizeCheck:
    # Each table is sized before its first atom is made, by one of the two
    # charges in `dist`: a Bernoulli atom at 384 bytes plus its mask as an
    # int (4 bytes per 30 bits) and twice packed (ceil(n/8) bytes), a nonneg
    # atom at 384 bytes plus 96 a value.  Under a 1,000-byte budget, so that
    # a builder that enumerated first would still finish; `test_cli` runs
    # the real sizes.
    CASES = (
        (one_hot_uniform, (100,), "the table of 100 atoms over 100 variables needs 42600 bytes"),
        (conjectured_extremal, (40,), "the table of 781 atoms over 40 variables needs 313962 bytes"),
        (comonotone, (10_000, 0.5), "the table of 2 atoms over 10000 variables needs 8440 bytes"),
        (affine_hash, (1, 37, 1), "the table of 1369 atoms over 1 variables needs 533910 bytes"),
        (affine_hash_values, (1, 37, [[1.0] * 37]), "the 1369 x 1 value table needs 657120 bytes"),
        (product, (MarginalVector([0.5] * 3),), "the table of 8 atoms over 3 variables needs 3120 bytes"),
        (expand_exchangeable, (3, [0.25, 0.0, 0.75, 0.0]),
         "the table of 4 atoms over 3 variables needs 1560 bytes"),
        (permute_variables, (one_hot_uniform(3), [2, 0, 1]),
         "the table of 3 atoms over 3 variables needs 1170 bytes"),
        (bernoulli_embedding, (one_hot_uniform(3),), "the 3 x 3 value table needs 2016 bytes"),
    )

    def test_over_the_budget_is_refused(self, monkeypatch):
        monkeypatch.setattr(dist, "SUMMARY_BUDGET", 1000)
        for builder, args, what in self.CASES:
            want = f"^joint too large to summarize: {what}, over the budget of 1000 bytes$"
            with pytest.raises(InvalidDistributionError, match=want):
                builder(*args)

    def test_large_prime_q_is_charged_before_the_primality_test(self, monkeypatch):
        # Trial division of q = 10^18 + 3 would take 5 x 10^8 steps; the q^2
        # cells are refused first, and is_prime never runs.
        q = 10**18 + 3

        def refuse(q):
            raise AssertionError("is_prime ran before the charge")

        monkeypatch.setattr(constructions, "is_prime", refuse)
        for builder, args, what in (
            (affine_hash, (2, q, 1), f"the table of {q * q} atoms over 2 variables"),
            (affine_hash_values, (2, q, [[1.0], [1.0]]), f"the {q * q} x 2 value table"),
        ):
            with pytest.raises(InvalidDistributionError, match=f"^joint too large to summarize: {what} needs"):
                builder(*args)

    def test_refusal_names_any_size(self):
        # 2^15000 and its byte count are past Python's int/str digit limit
        # as decimals, so they are named by their powers of two.
        want = "the table of 2^15000 atoms over 15000 variables needs over 2^15012 bytes"
        with pytest.raises(InvalidDistributionError, match=re.escape(want)):
            product(MarginalVector([0.5] * 15000))

    def test_largest_table_in_the_budget_is_built(self, monkeypatch):
        monkeypatch.setattr(dist, "SUMMARY_BUDGET", (4 + 2 * 2 + 384) * (math.comb(9, 2) + 1))
        assert len(conjectured_extremal(9).atoms) == math.comb(9, 2) + 1
        with pytest.raises(InvalidDistributionError, match="too large"):
            conjectured_extremal(10)

    def test_largest_product_in_the_budget_is_built(self, monkeypatch):
        # The budget admits the full table over 21 variables, 826 MB, and
        # refuses it over 22, 1.65 GB, before any atom is made; `report`
        # summarizes a full-support law up to the same n.  Building n = 21
        # would take about 650 MB, so only its charge is checked here.
        dist._check_table(21, 1 << 21)
        want = "4194304 atoms over 22 variables needs 1652555776 bytes"
        with pytest.raises(InvalidDistributionError, match=want):
            product(MarginalVector([0.5] * 22))
        # At a budget of exactly the 10-variable figure, n = 10 is built.
        monkeypatch.setattr(dist, "SUMMARY_BUDGET", (4 + 2 * 2 + 384) << 10)
        assert len(product(MarginalVector([0.5] * 10)).atoms) == 1 << 10
        with pytest.raises(InvalidDistributionError, match="2048 atoms over 11 variables"):
            product(MarginalVector([0.5] * 11))

    @pytest.mark.parametrize("builder,args", [
        (conjectured_extremal, (40,)), (conjectured_extremal, (300,)),
        (affine_hash, (7, 101, 30)), (affine_hash, (60, 61, 20)),
        (one_hot_uniform, (50,)), (one_hot_uniform, (2000,)),
        *((product, (MarginalVector([0.05 + 0.9 * i / n for i in range(n)]),)) for n in (10, 14, 17)),
        *((expand_exchangeable, (n, exchangeable_optimum(n, p).weights_exact))
          for n, p in ((17, Fraction(1, 8)), (20, Fraction(2, 19)), (16, Fraction(1, 2)))),
        (permute_variables, (conjectured_extremal(40), [(7 * i) % 40 for i in range(40)])),
        (permute_variables, (one_hot_uniform(2000), [(7 * i) % 2000 for i in range(2000)])),
        *((affine_hash_values, (n, q, [[float(1 + (i * q + j) % 997) for j in range(q)]
                                       for i in range(n)]))
          for n, q in ((14, 29), (3, 101), (60, 61))),
        (bernoulli_embedding, (conjectured_extremal(40),)),
        (bernoulli_embedding, (one_hot_uniform(2000),)),
    ])
    def test_checked_figure_bounds_the_peak(self, monkeypatch, builder, args):
        # The peaks are 0.05-0.60 of the checked figure on CPython 3.11 and
        # numpy 2.4; the tightest is expand_exchangeable, at 0.58-0.60.  If
        # a new Python or numpy fails a case, re-measure the charges'
        # figures, dist.ATOM_OBJECT_BYTES and dist.VALUE_BYTES.
        checked = []
        monkeypatch.setattr(dist, "_check_budget", lambda what, nbytes: checked.append(nbytes))
        gc.collect()
        tracemalloc.start()
        try:
            builder(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(checked) == 1 and peak <= checked[0], (peak, checked)

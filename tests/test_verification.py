"""The randomized battery itself: everything passes, output is stable,
and a check that raises is tallied as a failure."""

from fractions import Fraction

import numpy as np
import pytest

from maxdecouple import NonnegJoint, optimize, verification
from maxdecouple.errors import InvariantError


class TestBattery:
    def test_all_properties_pass(self):
        results = verification.run_battery(seed=0, trials=120)
        for result in results:
            assert result.ok, f"{result.name}: {result.counterexamples}"
        assert [r.name for r in results] == list(verification.PROPERTY_NAMES)

    def test_alternate_seed_passes(self):
        results = verification.run_battery(seed=20260809, trials=60)
        assert all(r.ok for r in results)

    def test_deterministic_for_fixed_seed(self):
        first = verification.run_battery(seed=3, trials=25)
        second = verification.run_battery(seed=3, trials=25)
        assert verification.format_battery(3, 25, first) == verification.format_battery(
            3, 25, second
        )

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            verification.run_battery(seed=0, trials=0)

    def test_format_reports_failures_with_instance(self):
        results = verification.run_battery(seed=1, trials=5)
        results[0].record(False, '{"kind":"bernoulli-joint","n":1,"atoms":[]}')
        text = verification.format_battery(1, 5, results)
        assert "FAIL" in text
        assert "counterexample" in text
        assert "properties FAILED" in text


class TestFailureTallies:
    @staticmethod
    def tallies():
        return {name: verification.PropertyResult(name) for name in verification.PROPERTY_NAMES}

    def test_tripped_layer_cake_check_is_a_failure(self, monkeypatch):
        # expected_max's cross-check raises; the joint is the counterexample,
        # and the checks that read its result are skipped.
        def tripped(joint):
            raise InvariantError("layer-cake sum off")

        monkeypatch.setattr(verification.continuous, "decoupling_check_cont", tripped)
        joint = NonnegJoint(2, [((1.0, 2.0), 0.5), ((3.0, 0.0), 0.5)])
        tallies = self.tallies()
        verification._check_nonneg_properties(joint, np.random.default_rng(0), tallies)
        layer = tallies["layer-cake-identity"]
        assert (layer.passes, layer.failures) == (0, 1)
        assert layer.counterexamples == [verification._joint_json(joint)]
        assert tallies["continuous-upper-universal"].total == 0

    def test_failed_certificate_is_a_failure(self, monkeypatch):
        # A dual built from k + 1 proves nothing: `_certified` gives None,
        # and every LP case that reads it fails, named by n and p.
        real = optimize._certificate_dual
        monkeypatch.setattr(optimize, "_certificate_dual", lambda k: real(k + 1))
        assert verification._certified(3, Fraction(1, 2)) is None
        tallies = self.tallies()
        verification._check_lp_properties(tallies)
        soundness = tallies["lp-reduction-soundness"]
        assert (soundness.passes, soundness.failures) == (0, 6)
        assert soundness.counterexamples == [
            '{"lp":{"n":3,"p":"1/2"}}', '{"lp":{"n":3,"p":"3/10"}}', '{"lp":{"n":4,"p":"1/3"}}'
        ]
        assert tallies["lp-product-feasibility"].passes == 0
        assert tallies["lp-witness-roundtrip"].failures == 0


class TestGenerators:
    def test_random_joint_is_valid_and_varied(self):
        import numpy as np

        rng = np.random.default_rng(0)
        sizes = set()
        for _ in range(200):
            j = verification.random_joint(rng)
            sizes.add(j.n)
            total = sum(p for _, p in j.atoms)
            assert abs(total - 1.0) <= 1e-12
        assert len(sizes) > 5

    def test_random_nonneg_joint_has_ties(self):
        import numpy as np

        rng = np.random.default_rng(1)
        tie_seen = False
        for _ in range(100):
            j = verification.random_nonneg_joint(rng)
            flat = [v for vec, _ in j.atoms for v in vec]
            if len(flat) != len(set(flat)):
                tie_seen = True
        assert tie_seen

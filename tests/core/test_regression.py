"""Tests of the non-regression workload (Table I) and reference checking."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.regression import generate_regression_problems
from repro.errors import PortfolioError
from tests.oracles.regression import RegressionSuite


class TestGeneration:
    def test_every_problem_is_complete_and_unique(self):
        problems = list(generate_regression_problems(profile="fast"))
        labels = [label for _, label in problems]
        assert len(labels) == len(set(labels))
        for problem, label in problems:
            assert problem.is_complete
            assert problem.label == label

    def test_paper_and_fast_profiles_have_the_same_combinations(self):
        paper = [label for _, label in generate_regression_problems("paper")]
        fast = [label for _, label in generate_regression_problems("fast")]
        assert paper == fast

    def test_paper_profile_is_heavier(self):
        from repro.cluster.costmodel import paper_cost_model

        model = paper_cost_model()
        paper_cost = sum(
            model.estimate(p) for p, _ in generate_regression_problems("paper")
        )
        fast_cost = sum(
            model.estimate(p) for p, _ in generate_regression_problems("fast")
        )
        assert paper_cost > 50 * fast_cost

    def test_the_paper_example_combination_is_included(self):
        labels = [label for _, label in generate_regression_problems("fast")]
        assert any("heston/american_put/MC_AM_LongstaffSchwartz" in label for label in labels)

    def test_invalid_profile(self):
        with pytest.raises(PortfolioError):
            list(generate_regression_problems(profile="exhaustive"))


class TestRegressionSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return RegressionSuite(profile="fast")

    def test_run_produces_a_price_per_problem(self, suite):
        prices = suite.run()
        assert len(prices) == len(suite)
        assert all(price >= 0 or price == price for price in prices.values())

    def test_reference_roundtrip_has_no_mismatch(self, suite, tmp_path):
        reference_path = tmp_path / "reference.json"
        suite.generate_reference(reference_path)
        mismatches = suite.check_against_reference(reference_path)
        assert mismatches == []

    def test_detects_a_changed_algorithm(self, suite, tmp_path):
        import json

        reference_path = tmp_path / "reference.json"
        reference = suite.generate_reference(reference_path)
        # simulate a code change that shifts one algorithm's output
        corrupted = dict(reference)
        first_key = sorted(corrupted)[0]
        corrupted[first_key] = corrupted[first_key] + 1.0
        reference_path.write_text(json.dumps(corrupted))
        mismatches = suite.check_against_reference(reference_path)
        assert len(mismatches) == 1
        assert mismatches[0].label == first_key
        assert mismatches[0].relative_error > 0

    def test_detects_a_removed_problem(self, suite, tmp_path):
        import json

        reference_path = tmp_path / "reference.json"
        reference = suite.generate_reference(reference_path)
        reference["bs/imaginary/NEW_Method"] = 1.0
        reference_path.write_text(json.dumps(reference))
        mismatches = suite.check_against_reference(reference_path)
        assert any(m.label == "bs/imaginary/NEW_Method" for m in mismatches)

    def test_a_zero_reference_is_compared_exactly(self, suite, tmp_path):
        import json

        reference_path = tmp_path / "reference.json"
        reference = suite.generate_reference(reference_path)
        first_key = sorted(reference)[0]
        reference_path.write_text(json.dumps({first_key: 0.0}))
        [mismatch] = suite.check_against_reference(reference_path, rtol=1e-12, atol=0.0)
        assert mismatch.label == first_key
        assert mismatch.relative_error == float("inf")


class TestCommittedReference:
    """Every registered method's price, pinned across commits.

    ``tests/data/regression_fast.json`` was written by
    ``RegressionSuite("fast").generate_reference`` (JSON floats round-trip
    exactly).  The ``rtol`` only absorbs last-bit BLAS / SIMD differences
    between CPUs; any algorithmic change to a price fails here.  Regenerate
    the file only for a change that is meant to move prices, and say so.
    """

    REFERENCE = Path(__file__).resolve().parents[1] / "data" / "regression_fast.json"

    def test_the_reference_covers_the_suite(self):
        import json

        labels = {problem.label for problem in RegressionSuite(profile="fast").problems}
        assert set(json.loads(self.REFERENCE.read_text())) == labels

    def test_every_price_matches_the_reference(self):
        suite = RegressionSuite(profile="fast")
        assert suite.check_against_reference(self.REFERENCE, rtol=1e-12, atol=0.0) == []

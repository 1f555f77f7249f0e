"""Tests of the digest-keyed result cache (:mod:`repro.pricing.cache`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing import (
    PricingProblem,
    ResultCache,
    model_digest,
    problem_digest,
    stable_digest,
)
from repro.pricing.methods.base import PricingResult
from repro.serial import serialize


def _mc_problem(strike: float = 100.0, seed: int = 0) -> PricingProblem:
    problem = PricingProblem(label=f"cache_K{strike}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("MC_European", n_paths=2_000, seed=seed)
    return problem


def _result(price: float = 10.0) -> PricingResult:
    return PricingResult(
        price=price,
        std_error=0.01,
        confidence_interval=(price - 0.02, price + 0.02),
        method_name="MC_European",
        n_evaluations=2_000,
    )


class TestStableDigest:
    def test_key_order_irrelevant(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest({"b": 2, "a": 1})

    def test_tuples_lists_and_arrays_agree(self):
        assert stable_digest((1.0, 2.0)) == stable_digest([1.0, 2.0])
        assert stable_digest(np.array([1.0, 2.0])) == stable_digest([1.0, 2.0])

    def test_numpy_scalars_agree_with_python(self):
        assert stable_digest(np.float64(0.1)) == stable_digest(0.1)
        assert stable_digest(np.int64(3)) == stable_digest(3)

    def test_distinct_values_distinct_digests(self):
        assert stable_digest({"x": 1.0}) != stable_digest({"x": 1.0000001})

    def test_unsupported_type_raises(self):
        with pytest.raises(PricingError):
            stable_digest({"x": object()})


class TestProblemDigest:
    def test_stable_across_to_params_round_trip(self):
        problem = _mc_problem()
        rebuilt = PricingProblem.from_dict(problem.to_dict())
        assert problem_digest(rebuilt) == problem_digest(problem)

    def test_stable_across_serialization(self):
        problem = _mc_problem()
        rebuilt = serialize(problem).unserialize()
        assert problem_digest(rebuilt) == problem_digest(problem)

    def test_sensitive_to_every_leg(self):
        base = problem_digest(_mc_problem())
        assert problem_digest(_mc_problem(strike=101.0)) != base
        assert problem_digest(_mc_problem(seed=1)) != base
        other_model = _mc_problem()
        other_model.set_model("BlackScholes1D", spot=100.0, rate=0.04, volatility=0.2)
        assert problem_digest(other_model) != base

    def test_an_entry_written_under_another_schema_salt_misses_and_stays(
        self, tmp_path, monkeypatch
    ):
        """A disk cache written by a build with another result / wire layout
        is not trusted -- and not tidied away either: the read that misses
        leaves the stranger's file alone."""
        from repro.pricing import cache as cache_module

        monkeypatch.setattr(cache_module, "CACHE_SCHEMA", cache_module.CACHE_SCHEMA - 1)
        stale = problem_digest(_mc_problem())
        ResultCache(directory=tmp_path).put(stale, _result())
        monkeypatch.undo()

        current = problem_digest(_mc_problem())
        assert current != stale
        cache = ResultCache(directory=tmp_path)
        assert cache.get(current) is None
        assert (tmp_path / f"{stale}.json").exists() and cache.stats.corrupt == 0
        cache.put(current, _result(11.0))
        assert cache.get(current).price == 11.0 and cache.get(stale).price == 10.0

    def test_model_digest_matches_param_digest(self):
        problem = _mc_problem()
        assert problem.model.param_digest() == model_digest(problem.model)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        digest = "d" * 64
        assert cache.get(digest) is None
        cache.put(digest, _result(12.5))
        hit = cache.get(digest)
        assert hit is not None
        assert hit.price == 12.5
        assert hit.std_error == 0.01
        assert hit.confidence_interval == (12.48, 12.52)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", _result(1.0))
        cache.put("b", _result(2.0))
        assert cache.get("a").price == 1.0  # refresh "a": "b" is now LRU
        cache.put("c", _result(3.0))
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a").price == 1.0
        assert cache.get("c").price == 3.0

    def test_max_entries_validated(self):
        with pytest.raises(PricingError):
            ResultCache(max_entries=0)

    def test_refuses_priceless_results(self):
        with pytest.raises(PricingError):
            ResultCache().put("x", {"std_error": 0.1})

    def test_disk_store_round_trip(self, tmp_path):
        first = ResultCache(directory=tmp_path)
        first.put("deadbeef", _result(7.0))
        assert (tmp_path / "deadbeef.json").exists()

        fresh = ResultCache(directory=tmp_path)  # simulates another process
        hit = fresh.get("deadbeef")
        assert hit is not None and hit.price == 7.0
        assert fresh.stats.disk_hits == 1

    def test_clear_keeps_disk(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("cafe", _result(4.0))
        cache.clear()
        assert len(cache) == 0
        assert cache.get("cafe").price == 4.0  # re-read from disk
        assert cache.stats.disk_hits == 1

    def test_contains_and_problem_helpers(self):
        cache = ResultCache()
        problem = _mc_problem()
        assert problem_digest(problem) not in cache
        assert cache.get_problem(problem) is None
        cache.put_problem(problem, _result(9.0))
        assert problem_digest(problem) in cache
        assert cache.get_problem(problem).price == 9.0

    def test_hit_rate(self):
        cache = ResultCache()
        assert cache.stats.hit_rate == 0.0
        cache.put("k", _result())
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_rate == pytest.approx(0.5)

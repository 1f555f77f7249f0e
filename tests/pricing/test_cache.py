"""Tests of the digest-keyed result cache (:mod:`repro.pricing.cache`)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PricingError
from repro.pricing import (
    PricingProblem,
    ResultCache,
    model_digest,
    problem_digest,
    stable_digest,
)
from repro.pricing.methods.base import PricingResult
from repro.serial import serialize, xdr


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
        with pytest.raises(PricingError):
            stable_digest({"x": np.complex128(1j)})  # .item() is no JSON value either

    def test_keys_json_cannot_sort_or_write_raise(self):
        with pytest.raises(PricingError):
            stable_digest({1: "a", "b": 2})
        with pytest.raises(PricingError):
            stable_digest({(1, 2): "a"})


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=8),
)
#: what ``to_params()`` dictionaries are made of: scalars, vectors, matrices
_vectors = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4)
_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
        min_size=1, max_size=3,
    )
)
_trees = st.recursive(
    st.one_of(_leaves, _vectors, _matrices),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


def _is_float_block(value) -> bool:
    """A non-empty vector of floats, or a rectangular matrix of them."""
    if not isinstance(value, list) or not value:
        return False
    if all(type(item) is float for item in value):
        return True
    return (
        all(_is_float_block(row) and type(row[0]) is float for row in value)
        and len({len(row) for row in value}) == 1
    )


def _disguised(value, rng: random.Random, numpy_bools: bool = True):
    """The same content as another producer would spell it: keys inserted in
    another order, tuples for lists, NumPy scalars and arrays for Python's."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _disguised(value[key], rng, numpy_bools) for key in keys}
    if isinstance(value, list):
        if _is_float_block(value) and rng.random() < 0.5:
            return np.array(value)
        items = [_disguised(item, rng, numpy_bools) for item in value]
        return tuple(items) if rng.random() < 0.5 else items
    if rng.random() < 0.5:
        return value
    if isinstance(value, bool):
        return np.bool_(value) if numpy_bools else value
    if isinstance(value, int):
        return np.int64(value)
    if isinstance(value, float):
        return np.float64(value)
    return value


class TestDigestAddressesContent:
    """What the deleted Python walk (``_canonical``) promised, as a property."""

    @settings(max_examples=300, deadline=None)
    @given(tree=_trees, seed=st.integers(0, 2**32 - 1))
    def test_spelling_does_not_change_the_digest(self, tree, seed):
        assert stable_digest(_disguised(tree, random.Random(seed))) == stable_digest(tree)

    @settings(max_examples=200, deadline=None)
    @given(tree=_trees, seed=st.integers(0, 2**32 - 1))
    def test_the_wire_does_not_change_the_digest(self, tree, seed):
        # XDR writes NumPy integers and floats, not ``np.bool_``
        sent = _disguised(tree, random.Random(seed), numpy_bools=False)
        assert stable_digest(xdr.decode(xdr.encode(sent))) == stable_digest(tree)

    @settings(max_examples=50, deadline=None)
    @given(
        spots=st.lists(st.floats(1.0, 1e4), min_size=1, max_size=5),
        vol=st.floats(0.01, 2.0),
        rho=st.floats(0.0, 0.9),
        strike=st.floats(1.0, 1e4),
        as_arrays=st.booleans(),
    )
    def test_a_problem_survives_to_params_xdr_from_params(
        self, spots, vol, rho, strike, as_arrays
    ):
        from repro.pricing import flat_correlation

        d = len(spots)
        correlation = flat_correlation(d, rho)
        problem = PricingProblem(label="digest")
        problem.set_model(
            "BlackScholesND",
            spot=np.array(spots) if as_arrays else spots,
            rate=0.03,
            volatilities=[vol] * d,
            correlation=correlation if as_arrays else correlation.tolist(),
        )
        problem.set_option("BasketPutEuro", strike=strike, maturity=1.0, weights=[1.0 / d] * d)
        problem.set_method("MC_European", n_paths=100, seed=1)
        for rebuilt in (
            PricingProblem.from_dict(problem.to_dict()),
            serialize(problem).unserialize(),
            xdr.decode(xdr.encode(problem)),
        ):
            assert problem_digest(rebuilt) == problem_digest(problem)
            assert model_digest(rebuilt.model) == model_digest(problem.model)


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

    @pytest.mark.parametrize(
        "options",
        [*({"max_entries": bound} for bound in (0, -1, float("nan"), 2.5, 8.0, True, "8")),
         {"directory": ""}, {"directory": "  "}],
        ids=["0", "-1", "nan", "2.5", "8.0", "True", "8", "empty-directory", "blank-directory"],
    )
    def test_options_validated(self, options, tmp_path, monkeypatch):
        """A NaN bound used to build a cache that never evicts, ``2.5`` one
        that held 3 entries; an empty directory was ``Path(".")``, and a run
        wrote one JSON file per result into the working directory."""
        monkeypatch.chdir(tmp_path)
        (field,) = options
        with pytest.raises(PricingError, match=f"ResultCache.{field}"):
            ResultCache(**options)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("price", [None, float("nan"), float("inf")])
    def test_refuses_priceless_results(self, price):
        with pytest.raises(PricingError, match="finite price"):
            ResultCache().put("x", {"price": price, "std_error": 0.1})

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
        cache.put(problem_digest(problem), _result(9.0))
        assert problem_digest(problem) in cache

    def test_hit_rate(self):
        cache = ResultCache()
        assert cache.stats.hit_rate == 0.0
        cache.put("k", _result())
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_rate == pytest.approx(0.5)

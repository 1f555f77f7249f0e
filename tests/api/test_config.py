"""Tests of the frozen configuration objects of the unified API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import BackendSpec, RunConfig, ValuationSession
from repro.api.config import RetryPolicy
from repro.cluster.backends import SequentialBackend
from repro.core.scheduler import ChunkedPolicy, policy_factory
from repro.errors import ValuationError


class TestBackendSpec:
    def test_frozen(self):
        spec = BackendSpec("local", 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "simulated"

    def test_options_mapping_normalised_and_hashable(self):
        spec = BackendSpec("multiprocessing", 2, options={"cache_dir": "a"})
        assert spec.options == (("cache_dir", "a"),)
        assert hash(spec)  # fully frozen specs can key caches

    def test_invalid_worker_count(self):
        with pytest.raises(ValuationError):
            BackendSpec("local", 0)

    @pytest.mark.parametrize("n_workers", [2.5, 2.0, True, "2", float("nan")])
    def test_a_worker_count_is_an_int(self, n_workers):
        """``2.5`` used to run "on 2 workers" and ``True`` on one."""
        with pytest.raises(ValuationError, match="n_workers must be an int"):
            BackendSpec("local", n_workers)
        with pytest.raises(ValuationError, match="n_workers must be an int"):
            ValuationSession(backend="multiprocessing", n_workers=n_workers)

    def test_a_numpy_integer_is_a_worker_count(self):
        import numpy as np

        assert BackendSpec("local", np.int64(2)).n_workers == 2
        assert RetryPolicy(max_attempts=np.int64(3)).max_attempts == 3
        with pytest.raises(ValuationError, match="n_workers must be an int"):
            BackendSpec("local", np.bool_(True))

    def test_coerce_string_validates_against_registry(self):
        spec = BackendSpec.coerce("local", n_workers=3)
        assert isinstance(spec, BackendSpec)
        assert (spec.name, spec.n_workers) == ("local", 3)
        with pytest.raises(ValuationError, match="registered backends"):
            BackendSpec.coerce("warp_drive")

    def test_the_sequential_alias_is_gone(self):
        with pytest.raises(ValuationError, match="unknown backend 'sequential'"):
            BackendSpec.coerce("sequential")
        with pytest.raises(ValuationError, match="unknown backend 'sequential'"):
            ValuationSession(backend="sequential")

    def test_coerce_passes_instances_through(self):
        backend = SequentialBackend()
        assert BackendSpec.coerce(backend) is backend

    def test_coerce_rejects_options_for_instances(self):
        with pytest.raises(ValuationError, match="already-built"):
            BackendSpec.coerce(SequentialBackend(), options={"cache_dir": "b"})

    def test_coerce_merges_options_into_existing_spec(self):
        spec = BackendSpec("multiprocessing", 2, options={"cache_dir": "a"})
        merged = BackendSpec.coerce(spec, options={"cache_dir": "b"})
        assert merged.options == (("cache_dir", "b"),)
        untouched = BackendSpec.coerce(spec, options={"cache_dir": "a"})
        assert untouched is spec

    def test_coerce_resizes_existing_spec(self):
        spec = BackendSpec("simulated", 2)
        resized = BackendSpec.coerce(spec, n_workers=7)
        assert resized.n_workers == 7
        assert resized.name == "simulated"
        assert BackendSpec.coerce(spec, n_workers=2) is spec

    def test_coerce_rejects_other_types(self):
        with pytest.raises(ValuationError):
            BackendSpec.coerce(42)

    def test_create_builds_fresh_backends(self):
        spec = BackendSpec("local", 2)
        first, second = spec.create(), spec.create()
        assert isinstance(first, SequentialBackend)
        assert first is not second
        assert first.n_workers == 2


class TestRetryPolicy:
    @pytest.mark.parametrize("max_attempts", [1.5, 2.0, True, 0, -1])
    def test_max_attempts_is_a_positive_int(self, max_attempts):
        with pytest.raises(ValuationError, match="RetryPolicy.max_attempts"):
            RetryPolicy(max_attempts=max_attempts)

    @pytest.mark.parametrize("field", ["backoff", "backoff_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_backoffs_are_finite(self, field, value):
        """``nan < 0`` is false: a NaN backoff made ``delay(1)`` NaN, a
        ``time.sleep`` error in the middle of a retry."""
        with pytest.raises(ValuationError, match=f"RetryPolicy.{field} must be a finite"):
            RetryPolicy(**{field: value})

    def test_delays_of_a_valid_policy(self):
        policy = RetryPolicy(max_attempts=3, backoff=0.5, backoff_factor=2.0)
        assert [policy.delay(k) for k in (0, 1, 2, 3)] == [0.0, 0.5, 1.0, 2.0]


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.strategy is None  # "the session's strategy"
        assert config.scheduler is None

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValuationError):
            RunConfig(strategy="carrier_pigeon")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValuationError):
            RunConfig(scheduler="fifo")

    def test_policy_factory_builds_fresh_policies(self):
        factory = policy_factory(RunConfig(scheduler="chunked_robin_hood").scheduler)
        first, second = factory(), factory()
        assert isinstance(first, ChunkedPolicy)
        assert first is not second

    def test_the_scheduler_option_channel_is_gone(self):
        # a configured policy is spelled partial(MyPolicy, ...)
        with pytest.raises(TypeError):
            RunConfig(scheduler="chunked_robin_hood", scheduler_options={"k": 4})
        with pytest.raises(TypeError):
            policy_factory("chunked_robin_hood", {"k": 4})

    def test_policy_instance_rejected(self):
        with pytest.raises(ValuationError, match="pass a registered name, the policy class"):
            RunConfig(scheduler=ChunkedPolicy())

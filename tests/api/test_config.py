"""Tests of the unified API's backend recipe and scheduler spelling."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import BackendSpec, ValuationSession
from repro.cluster.backends import SequentialBackend
from repro.core.scheduler import ChunkedPolicy, policy_factory
from repro.errors import ValuationError


class TestBackendSpec:
    def test_frozen(self):
        spec = BackendSpec("local", 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "simulated"

    def test_options_mapping_normalised_and_hashable(self):
        spec = BackendSpec("simulated", 2, options={"churn": "a"})
        assert spec.options == (("churn", "a"),)
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
            BackendSpec.coerce(SequentialBackend(), options={"churn": "b"})

    def test_coerce_merges_options_into_existing_spec(self):
        spec = BackendSpec("simulated", 2, options={"churn": "a"})
        merged = BackendSpec.coerce(spec, options={"churn": "b"})
        assert merged.options == (("churn", "b"),)
        untouched = BackendSpec.coerce(spec, options={"churn": "a"})
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


class TestSchedulerSpelling:
    def test_policy_factory_builds_fresh_policies(self):
        factory = policy_factory("chunked_robin_hood")
        first, second = factory(), factory()
        assert isinstance(first, ChunkedPolicy)
        assert first is not second

    def test_the_scheduler_option_channel_is_gone(self):
        # a configured policy is spelled partial(MyPolicy, ...)
        with pytest.raises(TypeError):
            ValuationSession().run([], scheduler="chunked_robin_hood", scheduler_options={"k": 4})
        with pytest.raises(TypeError):
            policy_factory("chunked_robin_hood", {"k": 4})

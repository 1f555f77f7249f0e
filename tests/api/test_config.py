"""Tests of the session's backend recipe and scheduler spelling."""

from __future__ import annotations

from types import MappingProxyType

import pytest

from repro.api import ValuationSession
from repro.cluster.backends import _BACKEND_REGISTRY, SequentialBackend
from repro.cluster.costmodel import paper_cost_model
from repro.core.portfolio import build_toy_portfolio
from repro.core.scheduler import ChunkedPolicy, policy_factory
from repro.core.strategies import SerializedLoadStrategy
from repro.errors import ValuationError


@pytest.fixture(scope="module")
def toy_portfolio():
    return build_toy_portfolio(n_options=12)


class TestBackendRecipe:
    def test_invalid_worker_count(self):
        with pytest.raises(ValuationError, match="n_workers must be >= 1"):
            ValuationSession(backend="local", n_workers=0)

    @pytest.mark.parametrize("n_workers", [2.5, 2.0, True, "2", float("nan"), None])
    def test_a_worker_count_is_an_int(self, n_workers):
        """``2.5`` used to run "on 2 workers" and ``True`` on one."""
        with pytest.raises(ValuationError, match="n_workers must be an int"):
            ValuationSession(backend="local", n_workers=n_workers)
        with pytest.raises(ValuationError, match="n_workers must be an int"):
            ValuationSession(backend="multiprocessing", n_workers=n_workers)

    def test_a_numpy_integer_is_a_worker_count(self):
        import numpy as np

        session = ValuationSession(backend="local", n_workers=np.int64(3))
        assert session.n_workers == 3 and type(session.n_workers) is int
        with pytest.raises(ValuationError, match="n_workers must be an int"):
            ValuationSession(backend="local", n_workers=np.bool_(True))

    def test_an_unknown_name_lists_the_registered_backends(self):
        with pytest.raises(ValuationError, match="registered backends"):
            ValuationSession(backend="warp_drive")

    def test_the_sequential_alias_is_gone(self):
        with pytest.raises(ValuationError, match="unknown backend 'sequential'"):
            ValuationSession(backend="sequential")

    def test_only_registered_names_are_accepted(self, toy_portfolio):
        """A backend instance or a strategy object is refused at construction,
        naming the registered choices, before any backend is built."""
        with pytest.raises(ValuationError, match=r"registered backends: \['local', "):
            ValuationSession(backend=SequentialBackend())
        known = r"known: \['full_load', 'nfs', 'serialized_load'\]"
        with pytest.raises(ValuationError, match=known):
            ValuationSession(backend="local", strategy=SerializedLoadStrategy())
        session = ValuationSession(backend="local")
        with pytest.raises(ValuationError, match=known):
            session.run(toy_portfolio, strategy=SerializedLoadStrategy())

    def test_every_run_builds_a_fresh_backend(self):
        session = ValuationSession(backend="local", n_workers=2)
        first = session._acquire_backend("serialized_load")
        second = session._acquire_backend("serialized_load")
        assert isinstance(first, SequentialBackend)
        assert first is not second
        assert first.n_workers == 2


class TestBackendOptions:
    def test_a_misspelled_option_is_refused_at_construction(self):
        """It used to construct, then fail the first run with a bare
        ``TypeError`` from the private factory."""
        with pytest.raises(ValuationError, match="reconect") as refused:
            ValuationSession(backend="local", backend_options={"reconect": True})
        assert "takes []" in str(refused.value)
        with pytest.raises(ValuationError, match=r"takes \['hosts', 'reconnect', "):
            ValuationSession(
                backend="remote", backend_options={"hosts": ["h:1"], "reconect": True}
            )

    @pytest.mark.parametrize(
        ("name", "takes"),
        [
            ("local", "[]"),
            ("multiprocessing", "[]"),
            ("remote", "['hosts', 'reconnect', 'liveness_timeout', 'secret']"),
            ("simulated", "['comm', 'churn']"),
        ],
    )
    def test_every_registered_backend_names_the_keywords_it_takes(self, name, takes):
        """One check against the registered factory, with no per-backend branch."""
        with pytest.raises(ValuationError, match="reconect") as refused:
            ValuationSession(backend=name, backend_options={"reconect": True})
        assert f"takes {takes}" in str(refused.value)

    def test_the_options_are_copied_at_construction(self):
        options = {"churn": None}
        session = ValuationSession(backend="simulated", backend_options=options)
        options["reconect"] = True  # too late: the session checked and kept a copy
        assert session.backend_options == {"churn": None}
        session._acquire_backend("serialized_load")  # the late key never reaches the factory
        read_only = ValuationSession(
            backend="simulated", backend_options=MappingProxyType({"churn": None})
        )
        assert read_only.backend_options == {"churn": None}
        assert type(read_only.backend_options) is dict

    def test_the_worker_count_and_strategy_are_not_options(self):
        for name in ("n_workers", "strategy"):
            with pytest.raises(ValuationError, match=name):
                ValuationSession(backend="local", backend_options={name: 2})

    def test_a_factory_with_var_keywords_takes_anything(self, monkeypatch):
        seen = {}

        def factory(n_workers=2, strategy="serialized_load", **options):
            seen.update(options)
            return SequentialBackend(n_workers)

        monkeypatch.setitem(_BACKEND_REGISTRY, "open", factory)
        session = ValuationSession(backend="open", backend_options={"anything": 1})
        session._acquire_backend("serialized_load")
        assert seen == {"anything": 1}


class TestWithOptions:
    def test_the_worker_count_carries_over(self, toy_portfolio):
        """A changed backend name used to rebuild the recipe at 2 workers."""
        derived = ValuationSession(backend="local", n_workers=4).with_options(
            backend="simulated"
        )
        jobs = toy_portfolio.build_jobs(cost_model=paper_cost_model())
        assert derived.run(jobs).n_workers == 4
        assert derived.n_workers == 4

    def test_options_stay_with_their_backend(self):
        remote = ValuationSession(
            backend="remote", backend_options={"hosts": ["10.0.0.4:9631"]}
        )
        assert remote.with_options(cache=True).backend_options == {
            "hosts": ("10.0.0.4:9631",)
        }
        local = remote.with_options(backend="local")
        assert (local.backend, local.backend_options) == ("local", {})
        churned = remote.with_options(backend="simulated", backend_options={"churn": None})
        assert churned.backend_options == {"churn": None}


    def test_a_derived_session_is_checked_like_a_new_one(self):
        local = ValuationSession(backend="local", n_workers=3)
        with pytest.raises(ValuationError, match="hosts"):
            local.with_options(backend="remote")  # no options follow to stand in for hosts
        with pytest.raises(ValuationError, match="reconect"):
            local.with_options(backend_options={"reconect": True})
        with pytest.raises(ValuationError, match="n_workers must be >= 1"):
            local.with_options(n_workers=0)
        assert local.n_workers == 3


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

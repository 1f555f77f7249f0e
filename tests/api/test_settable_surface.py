"""The settable surface, pinned: every parameter a caller can set, by name.

A settable value is a configuration the tests and the docs must cover, so a
new one is a reviewed line of ``SURFACE`` and a removed one cannot come back
unnoticed.  The comments name the values removed because nothing outside
the test suite set them; each removal fixed the value at its old default.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.api import RunConfig, ValuationSession
from repro.api.config import RetryPolicy
from repro.cluster import worker
from repro.cluster.backends import _BACKEND_REGISTRY, MultiprocessingBackend, SequentialBackend
from repro.cluster.backends.remote import RemoteBackend
from repro.cluster.simcluster import SimulatedClusterBackend
from repro.core.scheduler import simulate_hierarchical
from repro.pricing.batch import plan_batches, price_problems
from repro.pricing.greeks import compute_greeks
from repro.pricing.scenarios import greek_ladder
from repro.serve import ServerConfig

_RUN_KEYWORDS = ("source", "strategy", "scheduler", "store", "config", "batch", "kernel",
                 "min_group_size", "cache", "progress", "cancel")

SURFACE: dict[str, tuple[object, tuple[str, ...]]] = {
    # removed: cost_model (the session's is the one), batch_group_size (a
    # family is never split)
    "RunConfig": (RunConfig, ("strategy", "scheduler", "batch", "kernel", "min_group_size",
                              "cache", "progress", "cancel", "retry")),
    # removed: comm_factory (a cold run takes a cold_copy() of ``comm``)
    "ValuationSession": (ValuationSession.__init__, (
        "backend", "strategy", "n_workers", "scheduler", "cost_model", "comm",
        "backend_options", "cache")),
    # removed from all four: batch_group_size
    "ValuationSession.run": (ValuationSession.run, _RUN_KEYWORDS),
    "ValuationSession.stream": (ValuationSession.stream, _RUN_KEYWORDS),
    "ValuationSession.sweep": (ValuationSession.sweep, (
        "source", "cpu_counts", "strategy", "share_nfs_cache", "label", "batch")),
    "ValuationSession.compare": (ValuationSession.compare, (
        "source", "cpu_counts", "strategies", "share_nfs_cache", "batch")),
    # removed: execute (the simulated cluster prices nothing)
    "SimulatedClusterBackend": (SimulatedClusterBackend.__init__, (
        "cluster", "strategy", "comm", "churn")),
    # removed: node_speed, execute (the factory names what it forwards)
    'create_backend("simulated")': (_BACKEND_REGISTRY["simulated"], (
        "n_workers", "strategy", "comm", "churn")),
    # removed: compute_vega, compute_rho, compute_theta (a full ladder always;
    # a model without a volatility drops vega by itself)
    "compute_greeks": (compute_greeks, (
        "model", "product", "method", "spot_bump", "vol_bump", "rate_bump", "theta_bump")),
    "greek_ladder": (greek_ladder, (
        "spot_bump", "vol_bump", "rate_bump", "theta_bump", "vol_param")),
    # removed: max_group_size
    "plan_batches": (plan_batches, ("problems", "min_group_size")),
    # removed: max_group_size, cache (the payloads keep the worker cache)
    "price_problems": (price_problems, ("problems", "min_group_size", "kernel")),
    # removed: strategy_name, comm, worker_speed
    "simulate_hierarchical": (simulate_hierarchical, ("jobs", "n_workers", "n_groups")),
    "ServerConfig": (ServerConfig, (
        "host", "port", "backend", "n_workers", "hosts", "cache_dir", "cache_entries",
        "auth_token", "rate_limit", "rate_burst", "keepalive_interval", "worker_secret",
        "max_body_bytes", "max_events_per_job", "verbose")),
    # The backend and worker surface.  Removed, 13 slots: the four
    # ReconnectPolicy fields (max_attempts, initial_backoff, backoff_factor,
    # max_backoff: ``reconnect`` is a bool over a fixed schedule);
    # connect_timeout and send_timeout of RemoteBackend and its factory;
    # start_method of MultiprocessingBackend and its factory; and
    # spawn_local_workers' start_method, timeout and workers_per_server.
    'create_backend("local")': (_BACKEND_REGISTRY["local"], (
        "n_workers", "strategy", "cache_dir")),
    'create_backend("multiprocessing")': (_BACKEND_REGISTRY["multiprocessing"], (
        "n_workers", "strategy", "cache_dir")),
    'create_backend("remote")': (_BACKEND_REGISTRY["remote"], (
        "n_workers", "strategy", "hosts", "reconnect", "liveness_timeout", "secret")),
    "SequentialBackend": (SequentialBackend.__init__, ("n_workers", "cache_dir")),
    "MultiprocessingBackend": (MultiprocessingBackend.__init__, ("n_workers", "cache_dir")),
    "RemoteBackend": (RemoteBackend.__init__, (
        "hosts", "reconnect", "liveness_timeout", "secret")),
    "spawn_local_workers": (worker.spawn_local_workers, ("n", "cache_dir", "secret")),
    # workers stays: ``repro-worker --workers N`` is a deployment setting
    "cluster.worker.serve": (worker.serve, (
        "host", "port", "cache_dir", "once", "ready", "quiet", "workers", "secret")),
    # The census for the next round -- still set only by tests/: the three
    # RetryPolicy fields; liveness_timeout, whose one value outside tests/ is
    # repro-serve's 30 s.
    "RetryPolicy": (RetryPolicy, ("max_attempts", "backoff", "backoff_factor")),
}


def _settable(target: object) -> tuple[str, ...]:
    if dataclasses.is_dataclass(target):
        return tuple(field.name for field in dataclasses.fields(target))
    parameters = inspect.signature(target).parameters.values()  # type: ignore[arg-type]
    assert all(p.kind is not p.VAR_KEYWORD for p in parameters), "a **options channel"
    return tuple(p.name for p in parameters if p.name != "self")


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_the_settable_surface_is_the_reviewed_list(name):
    target, expected = SURFACE[name]
    assert _settable(target) == expected


def test_the_surface_has_127_slots():
    # 93 before the backend and worker census joined the list, 140 with it
    assert sum(len(slots) for _target, slots in SURFACE.values()) == 127


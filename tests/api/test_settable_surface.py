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

from repro.api import ValuationSession
from repro.cluster import worker
from repro.cluster.backends import _BACKEND_REGISTRY, MultiprocessingBackend, SequentialBackend
from repro.cluster.backends.remote import RemoteBackend
from repro.cluster.simcluster import SimulatedClusterBackend
from repro.core.scheduler import simulate_hierarchical
from repro.pricing.batch import plan_batches, price_problems
from repro.pricing.greeks import compute_greeks
from repro.pricing.scenarios import greek_ladder
from repro.serve import ServerConfig

# removed from both: cache (a run without the session's cache is
# ``session.with_options(cache=None).run(...)``); config, for retry (keywords
# are the one way to configure a run); retry (every campaign rebuilds a lost
# pool of real workers)
_RUN_KEYWORDS = ("source", "strategy", "scheduler", "store", "batch", "kernel",
                 "min_group_size", "progress", "cancel")

SURFACE: dict[str, tuple[object, tuple[str, ...]]] = {
    # removed, 11 slots: RunConfig (strategy, scheduler, batch, kernel,
    # min_group_size, progress, cancel, retry), a second spelling of the run
    # keywords; and RetryPolicy (max_attempts, backoff, backoff_factor):
    # ``retry`` is a bool over the re-dial schedule
    # removed: comm_factory (a cold run takes a cold_copy() of ``comm``).
    # BackendSpec (name, n_workers, options), never pinned here, left too:
    # its three fields were a second spelling of backend, n_workers and
    # backend_options, so the counts below did not move
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
    # removed: max_group_size, cache (the master's cache pass is the one cache)
    "price_problems": (price_problems, ("problems", "min_group_size", "kernel")),
    # removed: strategy_name, comm, worker_speed
    "simulate_hierarchical": (simulate_hierarchical, ("jobs", "n_workers", "n_groups")),
    # removed: keepalive_interval (with ``repro-serve --keepalive``), off by
    # default and set by no caller outside tests/: every campaign dials the
    # whole pool, and the backend routes around a host that is down
    "ServerConfig": (ServerConfig, (
        "host", "port", "backend", "n_workers", "hosts", "cache_dir", "cache_entries",
        "auth_token", "rate_limit", "rate_burst", "worker_secret",
        "max_body_bytes", "max_events_per_job", "verbose")),
    # The backend and worker surface.  Removed, 13 slots: the four
    # ReconnectPolicy fields (max_attempts, initial_backoff, backoff_factor,
    # max_backoff: ``reconnect`` is a bool over a fixed schedule);
    # connect_timeout and send_timeout of RemoteBackend and its factory;
    # start_method of MultiprocessingBackend and its factory; and
    # spawn_local_workers' start_method, timeout and workers_per_server.
    # Removed, 2 slots: liveness_timeout of RemoteBackend and its factory,
    # whose one value outside tests/ was repro-serve's 30 s (the probe is
    # always on, at that window).
    # Removed, 6 slots: cache_dir of the local and multiprocessing backends
    # and their factories, of spawn_local_workers and of serve (with
    # ``repro-worker --cache-dir``): a worker prices what it is sent, the
    # master's cache pass answers hits and prices a repeat once.
    # Removed, 2 slots: reconnect of RemoteBackend and its factory, whose one
    # value outside tests/ was repro-serve's True (a dead host is always
    # re-dialed).
    'create_backend("local")': (_BACKEND_REGISTRY["local"], ("n_workers", "strategy")),
    'create_backend("multiprocessing")': (_BACKEND_REGISTRY["multiprocessing"], (
        "n_workers", "strategy")),
    'create_backend("remote")': (_BACKEND_REGISTRY["remote"], (
        "n_workers", "strategy", "hosts", "secret")),
    "SequentialBackend": (SequentialBackend.__init__, ("n_workers",)),
    "MultiprocessingBackend": (MultiprocessingBackend.__init__, ("n_workers",)),
    "RemoteBackend": (RemoteBackend.__init__, ("hosts", "secret")),
    "spawn_local_workers": (worker.spawn_local_workers, ("n", "secret")),
    # workers stays: ``repro-worker --workers N`` is a deployment setting
    "cluster.worker.serve": (worker.serve, (
        "host", "port", "once", "ready", "quiet", "workers", "secret")),
}

#: unpinned until their ``config=`` left for the lifecycle keywords of a run
#: (a risk campaign takes the session's strategy and scheduler and the
#: default kernel); counted apart from SURFACE.  Removed from both: retry
RISK_SURFACE: dict[str, tuple[object, tuple[str, ...]]] = {
    "ValuationSession.greeks": (ValuationSession.greeks, (
        "portfolio", "spot_bump", "vol_bump", "rate_bump", "theta_bump",
        "progress", "cancel")),
    "ValuationSession.risk": (ValuationSession.risk, (
        "portfolio", "spot_returns", "param", "bumps", "relative", "confidence",
        "progress", "cancel")),
}


def _settable(target: object) -> tuple[str, ...]:
    if dataclasses.is_dataclass(target):
        return tuple(field.name for field in dataclasses.fields(target))
    parameters = inspect.signature(target).parameters.values()  # type: ignore[arg-type]
    assert all(p.kind is not p.VAR_KEYWORD for p in parameters), "a **options channel"
    return tuple(p.name for p in parameters if p.name != "self")


@pytest.mark.parametrize("name", sorted({**SURFACE, **RISK_SURFACE}))
def test_the_settable_surface_is_the_reviewed_list(name):
    target, expected = {**SURFACE, **RISK_SURFACE}[name]
    assert _settable(target) == expected


def test_the_surface_has_100_slots():
    # 93 before the backend and worker census joined the list, 140 with it;
    # 127 before the nine cache slots (RunConfig.cache, run and stream cache,
    # six cache_dir) left, 118 before RunConfig and RetryPolicy left, 107
    # before liveness_timeout left, 105 before retry and reconnect left (17
    # risk slots before retry left), 101 before keepalive_interval left
    assert sum(len(slots) for _target, slots in SURFACE.values()) == 100
    assert sum(len(slots) for _target, slots in RISK_SURFACE.values()) == 15


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
from repro.cluster.backends import _BACKEND_REGISTRY
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


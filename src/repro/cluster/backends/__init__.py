"""Execution backends implementing the master/worker interface.

Backend registry
----------------

Backends are resolvable by name, exactly like models, products and methods in
:mod:`repro.pricing.engine`, so that high-level entry points (the
:class:`~repro.api.session.ValuationSession` facade, the CLI) can select an
execution engine from a plain string:

The registry is the source of truth -- :func:`list_backends` enumerates
whatever is registered at runtime, including third-party engines.  The
built-in registrations are:

``"local"``
    :class:`~repro.cluster.backends.local.SequentialBackend` -- runs every job
    in the master process; the reference backend for exact-result tests.
``"multiprocessing"``
    :class:`~repro.cluster.backends.multiproc.MultiprocessingBackend` -- real
    worker processes on the local machine.
``"remote"``
    :class:`~repro.cluster.backends.remote.RemoteBackend` -- ``repro-worker``
    TCP servers, possibly on other machines (the paper's actual deployment
    shape); needs a ``hosts`` option listing the worker addresses (see
    :func:`repro.cluster.worker.spawn_local_workers` for a loopback pool)
    and takes ``secret``; a dead host is re-dialed while another is live.
``"simulated"``
    :class:`~repro.cluster.simcluster.simulator.SimulatedClusterBackend` -- the
    discrete-event cluster model reproducing the paper's tables; accepts
    ``comm`` (a :class:`~repro.cluster.simcluster.comm.CommunicationModel`)
    and ``churn`` (a :class:`~repro.cluster.simcluster.simulator.ChurnSchedule`)
    options.

Use :func:`create_backend` to build one, :func:`list_backends` to enumerate
the registered names and :func:`register_backend` (usable as a decorator
factory) to plug in a new engine without touching this module; the
backend-author guide in ``docs/backends.md`` walks through writing one.

Every factory is called as ``factory(n_workers=..., strategy=..., **options)``;
factories are free to ignore arguments that do not apply to them (the
sequential backend has no use for a transmission strategy, for instance).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.backends.base import (
    PAYLOAD_PATH,
    PAYLOAD_SERIAL,
    BackendStats,
    CompletedJob,
    Job,
    PreparedMessage,
    WorkerBackend,
)
from repro.cluster.backends.execution import execute_payload, materialize_problem
from repro.cluster.backends.local import SequentialBackend
from repro.cluster.backends.multiproc import MultiprocessingBackend
from repro.errors import ClusterError

__all__ = [
    "Job",
    "PreparedMessage",
    "CompletedJob",
    "BackendStats",
    "WorkerBackend",
    "SequentialBackend",
    "MultiprocessingBackend",
    "execute_payload",
    "materialize_problem",
    "PAYLOAD_SERIAL",
    "PAYLOAD_PATH",
    "BackendFactory",
    "register_backend",
    "create_backend",
    "list_backends",
]

#: signature of a registered backend factory
BackendFactory = Callable[..., WorkerBackend]

_BACKEND_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory | None = None):
    """Register a backend factory under ``name``.

    Either call directly (``register_backend("local", make_local)``) or use as
    a decorator factory::

        @register_backend("my_cluster")
        def make_my_cluster(n_workers=2, strategy="serialized_load", **options):
            return MyClusterBackend(n_workers, **options)
    """
    if not name:
        raise ClusterError("backend names must be non-empty strings")

    def _register(fn: BackendFactory) -> BackendFactory:
        _BACKEND_REGISTRY[name] = fn
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def list_backends() -> list[str]:
    """Names of all registered execution backends."""
    return sorted(_BACKEND_REGISTRY)


def create_backend(
    name: str,
    *,
    n_workers: int = 2,
    strategy: str = "serialized_load",
    **options: Any,
) -> WorkerBackend:
    """Build a backend from its registered name.

    ``strategy`` is forwarded because the simulated backend prices its
    communication from the transmission strategy; executing backends ignore it.
    """
    if name not in _BACKEND_REGISTRY:
        raise ClusterError(
            f"unknown backend {name!r}; registered backends: {list_backends()}"
        )
    return _BACKEND_REGISTRY[name](n_workers=n_workers, strategy=strategy, **options)


@register_backend("local")
def _make_local(n_workers: int = 1, strategy: str = "serialized_load") -> WorkerBackend:
    return SequentialBackend(n_workers=n_workers)


@register_backend("multiprocessing")
def _make_multiprocessing(
    n_workers: int = 2, strategy: str = "serialized_load"
) -> WorkerBackend:
    return MultiprocessingBackend(n_workers=n_workers)


@register_backend("remote")
def _make_remote(
    n_workers: int = 2,
    strategy: str = "serialized_load",
    hosts: Any = None,
    secret: str | None = None,
) -> WorkerBackend:
    # imported lazily so plain backend users do not pay for the socket layer
    from repro.cluster.backends.remote import RemoteBackend

    if hosts is None:
        raise ClusterError(
            "the remote backend needs a 'hosts' option listing the worker "
            "addresses, e.g. create_backend('remote', hosts=['10.0.0.4:9631']); "
            "use repro.cluster.worker.spawn_local_workers for a loopback pool"
        )
    # one logical worker per address: the addresses, not n_workers, size the pool
    return RemoteBackend(hosts, secret=secret)


@register_backend("simulated")
def _make_simulated(
    n_workers: int = 2,
    strategy: str = "serialized_load",
    comm: Any = None,
    churn: Any = None,
) -> WorkerBackend:
    # imported lazily: the simulator pulls in the whole simcluster package,
    # which plain backend users (and `import repro`) should not pay for
    from repro.cluster.simcluster.node import ClusterSpec
    from repro.cluster.simcluster.simulator import SimulatedClusterBackend

    spec = ClusterSpec.from_cpu_count(n_workers + 1)
    return SimulatedClusterBackend(spec, strategy=strategy, comm=comm, churn=churn)

"""A backend is what a campaign calls: ``WorkerBackend`` and nothing more.

The master knows three verbs (send a problem, wait for any result and
receive it, send the empty message -- the paper's Fig. 4), and
``cluster/backends/base.py`` is the one place that says what a master can do
to its pool.  That surface is pinned below as ``CONTRACT``: exactly what
``ScheduleStream`` and the campaign call.  ``ScheduleStream``'s own surface,
the one master loop, is pinned as ``STREAM``.  Every registered backend is
held to the contract, so the next extra verb on a concrete backend is a
reviewed line of ``REPORTING`` and not a second contract.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.cluster.backends import WorkerBackend, create_backend, list_backends
from repro.cluster.worker import spawn_local_workers
from repro.core.scheduler import ScheduleStream

# removed: poll, try_collect (a non-blocking probe, ``MPI_Iprobe``, that no
# master loop called: every result arrives through a blocking ``collect``)
CONTRACT = {
    "n_workers", "dispatch", "dispatch_batch", "collect", "send_stop", "finalize",
    "on_run_start", "requires_payload", "queues_jobs",
}

# removed: poll, try_collect_next (the stream's side of the same probe).
# close: how finish ends, and all a stream whose pool was lost gets.
# queued: whether a job is still master-side, which says whether a member may
# leave its book slice (the load pass made the slice's bytes, so they cannot)
STREAM = {
    "collect_next", "remaining", "completed", "cancelled_jobs", "cancel_job",
    "cancel_pending", "finish", "close", "queued",
}

#: read-only reporting, by class: properties and the constructor's own
#: arguments kept for inspection -- nothing here acts on the pool
REPORTING = {
    "SequentialBackend": set(),
    "MultiprocessingBackend": set(),
    # counters of the automatic recovery paths, also in ``BackendStats.extra``
    "RemoteBackend": {"reconnects", "redispatches"},
    # the virtual clock and per-job timing records the paper's tables are
    # read from, and the constructor arguments of the cluster model
    "SimulatedClusterBackend": {
        "virtual_time", "traces", "cluster", "strategy", "comm", "churn",
    },
}


def _public(obj: object) -> set[str]:
    return {name for name in dir(obj) if not name.startswith("_")}


def test_the_contract_is_what_the_master_calls():
    assert _public(WorkerBackend) == CONTRACT


def test_the_stream_surface_is_pinned():
    assert _public(ScheduleStream) == STREAM


@pytest.mark.parametrize("name", list_backends())
def test_a_backend_is_exactly_its_contract(name):
    with spawn_local_workers(1) if name == "remote" else nullcontext() as pool:
        options = {"hosts": pool.hosts} if pool else {}
        backend = create_backend(name, n_workers=1, **options)
        try:
            extra = _public(backend) - _public(WorkerBackend)
        finally:
            backend.finalize()
    cls = type(backend)
    assert cls.__name__ in REPORTING, f"new backend class {cls.__name__}: list its reporting"
    assert extra == REPORTING[cls.__name__]
    for attribute in extra & _public(cls):
        member = getattr(cls, attribute)
        assert isinstance(member, property) and member.fset is None, attribute


"""A backend is what a campaign calls: ``WorkerBackend`` and nothing more.

The master knows four verbs (send a problem, probe, receive a result, send
the empty message -- the paper's Fig. 4), and ``cluster/backends/base.py`` is
the one place that says what a master can do to its pool.  Every registered
backend is held to that surface here, so the next extra verb on a concrete
backend is a reviewed line of ``REPORTING`` and not a second contract.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.cluster.backends import WorkerBackend, create_backend, list_backends
from repro.cluster.worker import spawn_local_workers

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


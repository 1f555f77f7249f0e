"""``repro.cluster`` -- execution backends and the cluster model (MPI substitute).

Two layers:

* :mod:`repro.cluster.backends` -- the master/worker execution backends used
  by the benchmark runner, resolved by registered name (the built-ins cover
  sequential, ``multiprocessing``, remote TCP workers and the simulated
  cluster; :func:`~repro.cluster.backends.list_backends` is authoritative),
  with :mod:`repro.cluster.worker` providing the ``repro-worker`` server the
  remote backend talks to;
* :mod:`repro.cluster.simcluster` -- the discrete-event cluster model
  (workers, Gigabit-Ethernet network, NFS server with cache, communication
  cost model) that reproduces the paper's speedup tables at laptop scale.
"""

from repro.cluster.backends import (
    BackendStats,
    CompletedJob,
    Job,
    MultiprocessingBackend,
    PreparedMessage,
    SequentialBackend,
    WorkerBackend,
)
from repro.cluster.costmodel import CostModel, estimate_work_units, measured_cost, paper_cost_model
from repro.cluster.simcluster import (
    STRATEGY_NAMES,
    ClusterSpec,
    CommunicationModel,
    NetworkModel,
    NFSModel,
    NodeSpec,
    SimulatedClusterBackend,
    gigabit_ethernet,
)

__all__ = [
    "Job",
    "PreparedMessage",
    "CompletedJob",
    "BackendStats",
    "WorkerBackend",
    "SequentialBackend",
    "MultiprocessingBackend",
    "SimulatedClusterBackend",
    "ClusterSpec",
    "NodeSpec",
    "NetworkModel",
    "NFSModel",
    "CommunicationModel",
    "gigabit_ethernet",
    "STRATEGY_NAMES",
    "CostModel",
    "paper_cost_model",
    "estimate_work_units",
    "measured_cost",
]

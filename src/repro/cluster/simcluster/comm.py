"""Per-strategy communication cost model of the simulated cluster.

The three transmission strategies of the paper differ in where the
file-reading / object-building / serialization work happens and in how many
bytes travel over the network:

============= ======================================== =========================
strategy       master-side work                          worker-side work
============= ======================================== =========================
full load      read file, build object, serialize, pack  unpack, unserialize, build
serialized     read file straight into a Serial, pack    unpack, unserialize, build
  load (sload)
NFS            send the file *name* only                 read file over NFS, build
============= ======================================== =========================

The :class:`CommunicationModel` turns a job (its file size and path) into the
master preparation time, the message size, and the worker preparation time
for each strategy, on top of the :class:`~repro.cluster.simcluster.network.NetworkModel`
and :class:`~repro.cluster.simcluster.nfs.NFSModel` costs.

Default constants are chosen so that the 10,000-option toy portfolio of
Table II lands on the same per-job master occupancies as the paper
(~0.35-0.4 ms for full load, ~0.16-0.19 ms for serialized load, ~60-70 us
for NFS), which is what produces the flattening levels and the crossover
between NFS and serialized load around a dozen CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.backends.base import Job
from repro.cluster.simcluster.network import NetworkModel, gigabit_ethernet
from repro.cluster.simcluster.nfs import NFSModel
from repro.errors import SimulationError

__all__ = ["STRATEGY_NAMES", "CommunicationModel"]

#: the three transmission strategies evaluated in Tables II and III
STRATEGY_NAMES = ("full_load", "nfs", "serialized_load")


@dataclass
class CommunicationModel:
    """Costs of preparing, shipping and unpacking one pricing problem."""

    network: NetworkModel = field(default_factory=gigabit_ethernet)
    nfs: NFSModel = field(default_factory=NFSModel)

    #: master-side fixed costs per job (seconds)
    full_load_overhead: float = 300e-6
    serialized_load_overhead: float = 110e-6
    nfs_master_overhead: float = 15e-6
    #: master-side per-byte cost of touching the payload (read + serialize)
    master_per_byte: float = 4e-9
    #: worker-side fixed cost of unpacking/unserializing/building the problem
    worker_build_overhead: float = 200e-6
    worker_per_byte: float = 4e-9
    #: size of the MPI envelope added to every message
    message_header_bytes: int = 64
    #: size of the message carrying only a file name (NFS strategy)
    name_message_bytes: int = 96
    #: size of the result message sent back by the worker
    result_message_bytes: int = 256
    #: master-side cost of receiving and storing one result
    master_receive_overhead: float = 20e-6
    #: master-side cost of sending the final empty stop message to one worker
    stop_message_bytes: int = 32

    def cold_copy(self) -> "CommunicationModel":
        """A copy of this model with an empty (cold) NFS server cache.

        Every cost constant -- including any customised :class:`NFSModel`
        latencies and bandwidth -- is preserved; only the cache history is
        dropped.  This is what an independent cold run of the same experiment
        sees, and what ``share_nfs_cache=False`` sweeps use between CPU
        counts.  The network model is stateless and is shared.
        """
        return replace(self, nfs=replace(self.nfs, _cache=set()))

    def _check_strategy(self, strategy: str) -> None:
        if strategy not in STRATEGY_NAMES:
            raise SimulationError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGY_NAMES}"
            )

    # -- master side ------------------------------------------------------------
    def master_prep_time(self, strategy: str, job: Job) -> float:
        """Master-side time to prepare the message for one job."""
        self._check_strategy(strategy)
        if strategy == "full_load":
            # read the file, build the object, serialize it again, pack it
            return self.full_load_overhead + 2.0 * job.file_size * self.master_per_byte
        if strategy == "serialized_load":
            # sload: read the file directly into a Serial object, pack it
            return self.serialized_load_overhead + job.file_size * self.master_per_byte
        # nfs: only the name is sent
        return self.nfs_master_overhead

    def message_nbytes(self, strategy: str, job: Job) -> int:
        """Bytes sent from the master to the worker for one job."""
        self._check_strategy(strategy)
        if strategy == "nfs":
            return self.name_message_bytes
        return job.file_size + self.message_header_bytes

    # -- worker side ------------------------------------------------------------
    def worker_prep_time(self, strategy: str, job: Job) -> float:
        """Worker-side time to obtain and rebuild the problem object."""
        self._check_strategy(strategy)
        build = self.worker_build_overhead + job.file_size * self.worker_per_byte
        if strategy == "nfs":
            return self.nfs.read_time(job.path, job.file_size) + build
        return build

    # -- results ----------------------------------------------------------------
    def result_return_time(self) -> float:
        """Network time of the worker-to-master result message."""
        return self.network.transfer_time(self.result_message_bytes)

    def stop_time(self) -> float:
        """Master-side time to send one stop message."""
        return self.network.transfer_time(self.stop_message_bytes)

"""The three problem-transmission strategies of the paper.

Tables II and III compare three ways for the master to hand a pricing problem
to a slave:

* **full load** -- "the master reads the content of the file describing the
  PremiaModel object, then creates the object, serializes it, packs it and
  sends it to a slave";
* **serialized load** -- "creating the serialized object directly from the
  file containing the object rather than first creating the object itself and
  then serializing it" (the ``sload`` function of Fig. 2);
* **NFS** -- "the master ... only send[s] the name of the file to be read and
  let[s] the slave read the file content".

Each strategy implements :meth:`TransmissionStrategy.prepare`, the *real*
master-side work performed before a dispatch on the executing backends
(sequential / multiprocessing), and may do work once for the whole campaign
before the loop starts (:meth:`TransmissionStrategy.load`: ``sload`` makes
every in-memory job's bytes there).  On the simulated backend the same costs
are modelled by :class:`repro.cluster.simcluster.comm.CommunicationModel`; the
strategy then only contributes its name.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.cluster.backends.base import (
    PAYLOAD_PATH,
    PAYLOAD_SERIAL,
    Job,
    PreparedMessage,
)
from repro.errors import SchedulingError
from repro.serial import serialize, sload

__all__ = [
    "TransmissionStrategy",
    "FullLoadStrategy",
    "SerializedLoadStrategy",
    "NFSStrategy",
    "get_strategy",
    "STRATEGIES",
]


class TransmissionStrategy(abc.ABC):
    """How the master turns a job into a message for a worker."""

    #: name used by the communication cost model of the simulated cluster
    name: str = "abstract"

    @abc.abstractmethod
    def prepare(self, job: Job) -> PreparedMessage:
        """The message the master sends for ``job``."""

    def load(self, jobs: Sequence[Job]) -> None:
        """The master's work on ``jobs`` before the first dispatch to worker
        processes or hosts, done once before a campaign's loop starts (and
        before a pool of worker processes forks).  Default: none, everything
        happens in :meth:`prepare`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FullLoadStrategy(TransmissionStrategy):
    """Read the file, build the object, serialize it again, send the bytes."""

    name = "full_load"

    def prepare(self, job: Job) -> PreparedMessage:
        if job.real_file:
            # the deliberately wasteful path of the paper: materialise the
            # object only to serialize it again immediately
            problem = sload(job.path).unserialize()
        elif job.problem is not None:
            problem = job.problem
        else:
            raise SchedulingError(
                f"job {job.job_id} has neither a readable file nor an in-memory problem"
            )
        serial = serialize(problem)
        data = serial.to_bytes()
        return PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data))


class SerializedLoadStrategy(TransmissionStrategy):
    """``sload``: send bytes that are already in serial form, as they are.

    The paper's master serializes the problems before its Robin-Hood loop,
    which then only sends bytes: :meth:`load` makes the bytes of every job
    held in memory (a book slice, a :class:`~repro.pricing.batch.ProblemBatch`,
    a scenario-grid slice, a single position) before the first dispatch.
    A job read from a problem file keeps the file route of :meth:`prepare`.
    """

    name = "serialized_load"

    def load(self, jobs: Sequence[Job]) -> None:
        for job in jobs:
            if job.problem is not None and not job.real_file:
                job.wire_bytes()

    def prepare(self, job: Job) -> PreparedMessage:
        if job.real_file:
            data = sload(job.path).to_bytes()
        elif job.problem is not None:
            # no file: the bytes kept with the job play its part -- made
            # by the load pass, re-sent as they are to a rebuilt pool or on
            # a re-dispatch
            data = job.wire_bytes()
        else:
            raise SchedulingError(
                f"job {job.job_id} has neither a readable file nor an in-memory problem"
            )
        return PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data))


class NFSStrategy(TransmissionStrategy):
    """Send only the file name; the worker reads the shared file system."""

    name = "nfs"

    def prepare(self, job: Job) -> PreparedMessage:
        if not job.path:
            raise SchedulingError(
                f"the NFS strategy needs a problem file for job {job.job_id}"
            )
        return PreparedMessage(
            kind=PAYLOAD_PATH, payload=job.path, nbytes=len(job.path.encode("utf-8"))
        )


#: registry of the paper's three strategies, by name
STRATEGIES: dict[str, type[TransmissionStrategy]] = {
    FullLoadStrategy.name: FullLoadStrategy,
    SerializedLoadStrategy.name: SerializedLoadStrategy,
    NFSStrategy.name: NFSStrategy,
}


def get_strategy(name: str) -> TransmissionStrategy:
    """Build a strategy from its name (``full_load``, ``serialized_load``,
    ``nfs``)."""
    if name not in STRATEGIES:
        raise SchedulingError(
            f"unknown strategy {name!r}; known strategies: {sorted(STRATEGIES)}"
        )
    return STRATEGIES[name]()

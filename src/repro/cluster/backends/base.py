"""Backend interface shared by the real and simulated execution engines.

A *backend* plays the role of the MPI slave pool in the paper's scripts: the
master (the scheduler in :mod:`repro.core.scheduler`) dispatches one job at a
time to a chosen worker and collects results as they come back
(``MPI_Probe`` on any source followed by ``MPI_Recv_Obj`` in Fig. 4/5).

Implementations are resolved by name through the backend registry
(:func:`repro.cluster.backends.list_backends` enumerates what is currently
registered -- the built-ins run jobs in the master process, in local worker
processes, on remote ``repro-worker`` TCP servers, and on the discrete-event
cluster simulator that reproduces Tables I-III at laptop scale).  Register
your own engine with :func:`repro.cluster.backends.register_backend`; the
backend-author guide in ``docs/backends.md`` documents this contract with a
worked example.
"""

from __future__ import annotations

import abc
import selectors
import socket
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ClusterError
from repro.serial import serialize

__all__ = [
    "PAYLOAD_SERIAL",
    "PAYLOAD_PATH",
    "REDIAL_DELAYS_S",
    "Job",
    "PreparedMessage",
    "CompletedJob",
    "WorkerBackend",
    "flush_outbox",
    "remap_route",
]

#: the master sends serialized problem bytes (full-load and serialized-load
#: strategies)
PAYLOAD_SERIAL = "serial"
#: the master sends only a file name; the worker reads the shared file system
#: (NFS strategy)
PAYLOAD_PATH = "path"

_VALID_PAYLOAD_KINDS = (PAYLOAD_SERIAL, PAYLOAD_PATH)

#: seconds waited before each try to get a lost worker back, 1.55 s in all:
#: while another host is live the remote backend re-dials a dead one on it,
#: and a session's campaign rebuilds a lost pool of real workers on it; a
#: host that is not listening again by the last try stays lost
REDIAL_DELAYS_S = (0.05, 0.1, 0.2, 0.4, 0.8)

_READ, _READ_WRITE = selectors.EVENT_READ, selectors.EVENT_READ | selectors.EVENT_WRITE


def flush_outbox(selector: selectors.BaseSelector, sock: socket.socket,
                 outbox: bytearray, data: Any, watched: bool) -> bool:
    """Write what the non-blocking ``sock`` takes now off the front of
    ``outbox``, and watch it for room while bytes are left (``watched``: it
    is watched already): the worker-process backends never block on a send.
    ``False`` once the peer is gone."""
    try:
        del outbox[:sock.send(outbox)]
    except BlockingIOError:
        pass
    except OSError:  # EPIPE, ECONNRESET: the worker at the other end died
        return False
    if outbox or watched:
        selector.modify(sock, _READ_WRITE if outbox else _READ, data)
    return True


def remap_route(route: list[int], dead: int, survivors: list[int]) -> None:
    """Point the logical workers routed at ``dead`` to ``survivors``, spread."""
    for worker_id, target in enumerate(route):
        if target == dead:
            route[worker_id] = survivors[worker_id % len(survivors)]


class Job:
    """One unit of work: a pricing problem to value.

    Attributes
    ----------
    job_id:
        Unique integer identifier within a run.
    path:
        Problem file path (may be virtual when the run is simulation-only).
    file_size:
        Size in bytes of the serialized problem (drives message sizes and
        NFS read sizes in the simulation).  When not given it is read off
        :meth:`wire_bytes`.
    compute_cost:
        Estimated compute time in seconds on a reference node (from
        :class:`repro.cluster.costmodel.CostModel`).
    category:
        Free-form tag ("vanilla", "barrier_pde", ...) used in reports.
    problem:
        Optional in-memory :class:`~repro.pricing.engine.PricingProblem` (or
        :class:`~repro.pricing.batch.ProblemBatch`); required by executing
        backends when no file was written.

    The serialized form of ``problem`` is made once, on first need, and kept
    with the job (:meth:`wire_bytes`): the size is read off it, the
    serialized-load strategy makes it before its loop starts and sends it,
    and a rebuilt pool or re-dispatch re-sends it -- the paper's ``sload``
    argument applied to in-memory problems.
    """

    __slots__ = ("job_id", "path", "compute_cost", "category", "_problem", "_file_size", "_wire")

    def __init__(
        self,
        job_id: int,
        path: str,
        file_size: int | None = None,
        compute_cost: float = 0.0,
        category: str = "generic",
        problem: Any | None = None,
    ) -> None:
        self.job_id = job_id
        self.path = path
        self.compute_cost = compute_cost
        self.category = category
        self._file_size = file_size
        self.problem = problem

    @property
    def problem(self) -> Any | None:
        return self._problem

    @problem.setter
    def problem(self, problem: Any | None) -> None:
        self._problem = problem
        self._wire: bytes | None = None  # bytes of another problem are never sent

    def wire_bytes(self) -> bytes:
        """The serialized ``problem`` as it travels (made once, then kept)."""
        if self._wire is None:
            if self.problem is None:
                raise ClusterError(f"job {self.job_id} has no in-memory problem to serialize")
            self._wire = serialize(self.problem).to_bytes()
        return self._wire

    def forget_bytes(self) -> None:
        """Forget the bytes made of ``problem``, which changed since (a
        member left a still-queued slice): they are made again on next need."""
        self._wire = None

    @property
    def file_size(self) -> int:
        if self._file_size is None:
            # the 4 extra bytes are historical; the simulated tables pin them
            self._file_size = len(self.wire_bytes()) + 4
        return self._file_size

    def drop_problem(self) -> None:
        """Keep the size, forget the problem and its bytes (simulation-only
        plans replay sizes and costs, they never send anything)."""
        self._file_size = self.file_size
        self.problem = None

    def __repr__(self) -> str:
        return (
            f"Job(job_id={self.job_id!r}, path={self.path!r}, "
            f"compute_cost={self.compute_cost!r}, category={self.category!r})"
        )


@dataclass
class PreparedMessage:
    """What the master actually sends for a job under a given strategy."""

    kind: str
    payload: Any
    nbytes: int

    def __post_init__(self) -> None:
        if self.kind not in _VALID_PAYLOAD_KINDS:
            raise ClusterError(f"invalid payload kind {self.kind!r}")


@dataclass
class CompletedJob:
    """A result collected by the master."""

    job_id: int
    worker_id: int
    result: dict[str, Any] | None
    #: time spent computing on the worker (real seconds or virtual seconds)
    compute_time: float
    #: master-clock time at which the result was collected (virtual time for
    #: the simulated backend, wall-clock offset for real backends)
    collected_at: float
    error: str | None = None


@dataclass
class BackendStats:
    """Aggregate statistics reported by a backend at the end of a run."""

    total_time: float
    n_jobs: int
    n_workers: int
    worker_busy: dict[int, float] = field(default_factory=dict)
    master_busy: float = 0.0
    bytes_sent: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


class WorkerBackend(abc.ABC):
    """Master-side view of a pool of workers."""

    #: whether the scheduler must prepare a real payload before dispatching
    #: (True for executing backends; the simulated backend models the
    #: preparation cost instead and accepts ``message=None``)
    requires_payload: bool = True
    #: whether every worker runs beside the master behind its own FIFO inbox
    #: (a process, a host), so that a job sent to a busy worker waits *there*
    #: and starts the moment the worker is free.  Only then is there a
    #: hand-off for :class:`~repro.core.scheduler.ScheduleStream`'s in-flight
    #: window to hide; backends that compute inside :meth:`dispatch` or only
    #: advance a virtual clock keep the conservative default and Fig. 4's
    #: one job per slave.
    queues_jobs: bool = False

    @property
    @abc.abstractmethod
    def n_workers(self) -> int:
        """Number of slave workers available (the paper's ``mpi_size - 1``)."""

    @abc.abstractmethod
    def dispatch(self, worker_id: int, job: Job, message: PreparedMessage) -> None:
        """Send ``job`` (already prepared as ``message``) to ``worker_id``.

        The call returns as soon as the master is free again -- immediately
        for real backends (the payload is handed to the OS), after the
        simulated send completes for the simulated backend.
        """

    @abc.abstractmethod
    def collect(self, timeout: float | None = None) -> CompletedJob:
        """Block until any worker returns a result and return it.

        Mirrors ``MPI_Probe(-1, -1, ...)`` followed by ``MPI_Recv_Obj``.
        Raises :class:`ClusterError` if no job is in flight, or (for real
        backends) if no result arrives within ``timeout`` seconds.  Backends
        whose results are immediate in their own clock -- the sequential
        backend, the virtual-time simulator -- ignore ``timeout``.
        """

    def dispatch_batch(
        self,
        worker_id: int,
        jobs: list[Job],
        messages: "list[PreparedMessage] | None" = None,
    ) -> None:
        """Send several jobs to one worker as a single logical message.

        The chunked dispatch policy ships whole chunks through this method.
        Only the simulated cluster overrides it, to charge one send latency
        per chunk: that virtual-time model is where the paper's refinement is
        studied.  The default loops :meth:`dispatch` per job, so every
        backend accepts chunked scheduling; on worker processes only a book
        held as files gets here as a chunk (an in-memory one travels as book
        slices dealt one at a time, ``repro.api.plan``).

        ``messages`` aligns index-for-index with ``jobs``; it is ``None``
        for backends with ``requires_payload = False``.
        """
        for index, job in enumerate(jobs):
            self.dispatch(
                worker_id, job, messages[index] if messages is not None else None
            )

    @abc.abstractmethod
    def finalize(self) -> BackendStats:
        """Stop all workers and return aggregate statistics."""

    # -- optional hooks ---------------------------------------------------------
    def on_run_start(self, n_jobs: int) -> None:
        """Called by the scheduler before dispatching the first job."""

    def send_stop(self, worker_id: int) -> None:
        """Tell one worker there is no more work (the empty message of
        Fig. 4).  Default: no-op; real backends stop their workers in
        :meth:`finalize`, the simulated backend charges the message cost."""

    def __enter__(self) -> "WorkerBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self.finalize()
        except ClusterError:
            pass

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
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ClusterError, CollectTimeoutError, SerializationError, WorkerLostError
from repro.serial import serialize

__all__ = [
    "PAYLOAD_SERIAL",
    "PAYLOAD_PATH",
    "REDIAL_DELAYS_S",
    "Job",
    "PreparedMessage",
    "CompletedJob",
    "WorkerBackend",
    "LinkPool",
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
#: bytes a link is read by at a time
_RECV_BYTES = 1 << 16
#: what a codec raises on bytes that are no reply: a frame or record that does
#: not decode, a reply without its fields or with fields of the wrong type
_NO_REPLY = (SerializationError, KeyError, TypeError, ValueError)


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
    """Aggregate statistics reported by a backend at the end of a run.

    ``bytes_sent`` is the payload of every job sent to a live worker
    (``PreparedMessage.nbytes``; the simulated cluster's modelled message
    size), once per send -- a job sent again after a death counts again --
    without the framing a transport adds around it.
    """

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


class LinkPool(WorkerBackend):
    """The master of a pool of workers behind one socket each (a *link*).

    The multiprocessing and the remote backend are this master over two
    transports.  It keeps what the master loop of Fig. 4 needs whatever
    carries the bytes: the link each logical worker's jobs go to, one outbox
    per link, and an in-flight record of each job holding its frame.  The
    master never blocks on a send: :meth:`dispatch` writes what the
    non-blocking link takes, and the selector of :meth:`collect` writes the
    rest as it reads the replies.  A dead link is buried (:meth:`_bury`): its
    logical workers go to the survivors, which are sent the frames it held,
    and only :meth:`collect` reports a loss -- once no link is left, naming
    every job in flight.

    A backend supplies its links (:meth:`_attach`, one plain socket per
    slot) and its codec: :meth:`_frame` encodes a job, :meth:`_decode` the
    replies read off a link.  What else it watches on the same selector (a
    process sentinel, a dial) it registers with data that is no slot, and
    handles in :meth:`_watched`; timers of its own run in :attr:`_tend`.
    """

    queues_jobs = True  # each worker reads its jobs off its own link, in order

    #: the backend's own timers, run before each wait of :meth:`collect`
    #: (``None``: it keeps none): they take the wait left and return it cut
    #: short for when they next need to run
    _tend: Callable[[float | None], float | None] | None = None

    def __init__(self, n_workers: int) -> None:
        self._n_workers = n_workers
        self._selector = selectors.DefaultSelector()
        #: slot -> its live link (a slot whose worker is dead has none), and
        #: the bytes each slot's link has not taken yet
        self._links: dict[int, socket.socket] = {}
        self._outboxes = [bytearray() for _ in range(n_workers)]
        #: logical worker -> the slot its jobs go to (remapped at a death)
        self._route = list(range(n_workers))
        #: job id -> (its logical worker, the slot that holds it, its frame,
        #: its payload's size): what a death sends again
        self._inflight: dict[int, tuple[int, int, bytes, int]] = {}
        #: answers read and not collected yet
        self._ready: deque[CompletedJob] = deque()
        self._n_jobs = 0
        self._bytes_sent = 0
        self._redispatches = 0
        #: compute seconds by the slot whose worker answered
        self._busy = {slot: 0.0 for slot in range(n_workers)}
        self._start = time.perf_counter()
        self._finalized = False

    # -- what a backend supplies ---------------------------------------------------
    @abc.abstractmethod
    def _frame(self, job: Job, message: PreparedMessage) -> bytes:
        """The bytes that carry ``job`` to a worker."""

    @abc.abstractmethod
    def _decode(self, slot: int, data: bytes) -> list[tuple[int, Any, float, str | None]]:
        """``(job_id, result, elapsed, error)`` of each reply that ``data``,
        just read off ``slot``'s link, completes.  Bytes that are no reply
        raise (:data:`_NO_REPLY`), and the link is buried."""

    @abc.abstractmethod
    def _watched(self, key: selectors.SelectorKey) -> None:
        """Handle an event of what the backend watches beside its links."""

    @abc.abstractmethod
    def _closed(self, slot: int) -> None:
        """Forget what the backend keeps for ``slot``'s link, just buried."""

    # -- WorkerBackend contract ----------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self._n_workers

    def on_run_start(self, n_jobs: int) -> None:
        self._start = time.perf_counter()

    def dispatch(self, worker_id: int, job: Job, message: PreparedMessage) -> None:
        if not 0 <= worker_id < self._n_workers:
            raise ClusterError(f"invalid worker id {worker_id}")
        if self._finalized:
            raise ClusterError("backend already finalized")
        frame = self._frame(job, message)
        slot = self._route[worker_id]
        self._inflight[job.job_id] = (worker_id, slot, frame, message.nbytes)
        self._n_jobs += 1
        if slot in self._links:  # else no worker is live: the next collect names the job
            self._bytes_sent += message.nbytes
            if not self._write(slot, frame):
                self._bury(slot)

    def collect(self, timeout: float | None = 300.0) -> CompletedJob:
        if not self._ready and not self._inflight:
            raise ClusterError("no job in flight")
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._ready:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            if self._tend is not None:
                wait = self._tend(wait)
            if not self._links:
                lost = tuple(sorted(self._inflight))
                self._inflight.clear()
                raise WorkerLostError(f"every worker of the pool is gone; {len(lost)} jobs were "
                                      "in flight (resubmit them against a fresh backend)", lost)
            for key, events in self._selector.select(wait):
                slot = key.data
                if not isinstance(slot, int):
                    self._watched(key)
                elif slot in self._links and (  # else buried earlier in this round
                        events & selectors.EVENT_WRITE and not self._write(slot)
                        or events & selectors.EVENT_READ and not self._read(slot)):
                    self._bury(slot)
            if not self._ready and deadline is not None and time.monotonic() >= deadline:
                raise CollectTimeoutError(f"timed out after {timeout}s waiting for a worker result")
        return self._ready.popleft()

    def finalize(self) -> BackendStats:
        if not self._finalized:
            self._finalized = True
            for link in self._links.values():
                link.close()
            self._links.clear()
            self._selector.close()
        total = time.perf_counter() - self._start
        return BackendStats(
            total_time=total,
            n_jobs=self._n_jobs,
            n_workers=self._n_workers,
            worker_busy=dict(self._busy),
            master_busy=total,
            bytes_sent=self._bytes_sent,
            extra={"redispatches": self._redispatches},
        )

    # -- links ---------------------------------------------------------------------
    def _attach(self, slot: int, link: socket.socket) -> None:
        """Take ``link`` as ``slot``'s: non-blocking, watched for replies."""
        link.setblocking(False)
        self._links[slot] = link
        self._selector.register(link, _READ, slot)

    def _write(self, slot: int, frame: bytes = b"") -> bool:
        """Queue ``frame`` on ``slot``'s outbox and write what its link takes
        now; the selector watches the link for room while bytes are left.
        ``False`` once the worker at the other end is gone."""
        link, outbox = self._links[slot], self._outboxes[slot]
        watched = bool(outbox)
        outbox += frame
        try:
            del outbox[:link.send(outbox)]
        except BlockingIOError:
            pass
        except OSError:  # EPIPE, ECONNRESET: the worker died
            return False
        if bool(outbox) != watched:
            self._selector.modify(link, _READ_WRITE if outbox else _READ, slot)
        return True

    def _read(self, slot: int) -> bool:
        """Read what ``slot``'s link holds and take each reply it completes:
        its busy time goes to ``slot``, and an answer to a job not in flight
        (a confused worker's, or one a loss named) is dropped.  ``False`` once
        the link is to be buried: at its end, or at bytes that are no reply."""
        try:
            data = self._links[slot].recv(_RECV_BYTES)
        except BlockingIOError:
            return True  # woken with nothing to read yet
        except OSError:  # ECONNRESET: the worker died
            return False
        if not data:
            return False
        try:
            answers = self._decode(slot, data)
        except _NO_REPLY:  # the worker is confused, not the run
            return False
        collected_at = time.perf_counter() - self._start
        for job_id, result, elapsed, error in answers:
            entry = self._inflight.pop(job_id, None)
            if entry is not None:
                self._busy[slot] += elapsed
                self._ready.append(
                    CompletedJob(job_id, entry[0], result, elapsed, collected_at, error))
        return True

    def _bury(self, dead: int) -> None:
        """Close a dead link and send the jobs it held to the survivors, under
        the same logical workers: their frames are queued on the survivors'
        outboxes for the selector to write, so a failed write cannot bury
        another link inside a burial.  With no survivor they wait for the
        next collect's loss."""
        link = self._links.pop(dead)
        self._selector.unregister(link)
        link.close()
        self._outboxes[dead].clear()
        self._closed(dead)
        if not self._links:
            return
        self._remap(dead)
        for job_id, (worker_id, holder, frame, nbytes) in self._inflight.items():
            if holder == dead:
                heir = self._route[worker_id]
                self._inflight[job_id] = (worker_id, heir, frame, nbytes)
                self._outboxes[heir] += frame
                self._selector.modify(self._links[heir], _READ_WRITE, heir)
                self._bytes_sent += nbytes
                self._redispatches += 1

    def _remap(self, dead: int) -> None:
        """Route the logical workers of slot ``dead`` to the live links, spread."""
        survivors = sorted(self._links)
        for worker_id, target in enumerate(self._route):
            if target == dead:
                self._route[worker_id] = survivors[worker_id % len(survivors)]

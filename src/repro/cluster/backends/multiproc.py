"""Real parallel execution with ``multiprocessing`` worker processes.

This backend is the laptop-scale equivalent of the paper's MPI deployment:
one master process (the scheduler) plus ``n_workers`` slave processes, each
joined to it by its own socket pair (Fig. 4's point-to-point ``MPI_Send_Obj``
/ ``MPI_Recv_Obj``): a worker reads one job frame (serialized problems, or
file names for the NFS-style strategy), prices it for real and writes one
reply frame back.  The master never blocks on a send; one selector over its
ends and the process sentinels writes what waits, reads the replies and
sees a death as it happens.  A dead process's jobs go to the survivors, as
a dead remote host's do; the loss is reported only when no process is left.

Because the workers are genuine OS processes, the measured wall-clock times
show real speedup on multi-core machines; the discrete-event simulator
(:mod:`repro.cluster.simcluster`) extrapolates the same master/worker
protocol to hundreds of nodes.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import pickle
import selectors
import socket
import struct
import time
from collections import deque
from typing import Any

from repro.cluster.backends.base import (
    BackendStats,
    CompletedJob,
    Job,
    PreparedMessage,
    WorkerBackend,
    flush_outbox,
    remap_route,
)
from repro.cluster.backends.execution import execute_payload
from repro.errors import ClusterError, CollectTimeoutError, WorkerLostError
from repro.pricing.validation import check_count

__all__ = ["MultiprocessingBackend", "worker_main"]

#: a frame is its length, then that many bytes of pickle
_LENGTH = struct.Struct("!Q")
#: the empty frame: no more work (the empty job name of Fig. 4)
_STOP = _LENGTH.pack(0)


def worker_main(worker_id: int, link: socket.socket) -> None:
    """Slave loop: receive payloads, price them, send results back.

    The loop mirrors the slave part of the paper's Fig. 4 script: it blocks
    on its end of the socket pair, treats an empty frame (or the master's
    end closing) as the signal to stop working, and otherwise rebuilds the
    problem, computes it and returns the results to the master.
    """
    read = link.makefile("rb").read
    while True:
        header = read(_LENGTH.size)
        frame = read(_LENGTH.unpack(header)[0]) if len(header) == _LENGTH.size else b""
        if not frame:
            break
        job_id, kind, payload = pickle.loads(frame)
        result, elapsed, error = execute_payload(kind, payload)
        reply = pickle.dumps((job_id, worker_id, result, elapsed, error), pickle.HIGHEST_PROTOCOL)
        link.sendall(_LENGTH.pack(len(reply)) + reply)


def _context() -> Any:
    """``fork`` where the platform offers it, else the platform's default:
    a forked worker shares the pages the master wrote before the pool
    started (the plan, every job's bytes) and is the master's own child."""
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)


class MultiprocessingBackend(WorkerBackend):
    """Master-side driver of a pool of worker processes.

    The processes start at :meth:`on_run_start` (or at the first
    :meth:`dispatch` of a backend driven directly), so a campaign's plan and
    its load pass are written before the fork, and a pool that never ran
    starts none.

    Parameters
    ----------
    n_workers:
        Number of slave processes to start (``fork``ed where the platform
        can fork).
    """

    queues_jobs = True  # each process reads its jobs off its own socket, in order

    def __init__(self, n_workers: int = 2):
        self._n_workers = check_count(n_workers, "n_workers", error=ClusterError, floats=False)
        self._context = _context()
        self._selector = selectors.DefaultSelector()
        self._processes: list[Any] = []
        #: the master's end of each process's socket pair (``None`` once dead), the
        #: bytes its process has not taken yet and those read but not decoded yet
        self._links: list[socket.socket | None] = []
        self._outboxes = [bytearray() for _ in range(self._n_workers)]
        self._inboxes = [bytearray() for _ in range(self._n_workers)]
        #: the processes still alive, and the one each logical worker's jobs go to
        self._live = list(range(self._n_workers))
        self._route = list(range(self._n_workers))
        #: job id -> (its logical worker, the process that holds it, kind,
        #: payload): what a death sends again
        self._jobs: dict[int, tuple[int, int, str, Any]] = {}
        #: (logical worker, reply) of each answer read and not collected yet
        self._replies: deque[tuple[int, tuple[int, int, Any, float, str | None]]] = deque()
        self._n_jobs = 0
        self._bytes_sent = 0
        self._redispatches = 0
        #: compute seconds by the process that answered
        self._busy: dict[int, float] = {i: 0.0 for i in range(self._n_workers)}
        self._start = time.perf_counter()
        self._finalized = False

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def _start_processes(self) -> None:
        for worker_id in range(self._n_workers):
            link, worker_end = socket.socketpair()
            process = self._context.Process(
                target=worker_main, args=(worker_id, worker_end), daemon=True)
            process.start()
            worker_end.close()  # the worker's alone: its death closes the pair
            link.setblocking(False)
            self._processes.append(process)
            self._links.append(link)
            self._selector.register(link, selectors.EVENT_READ, worker_id)
            self._selector.register(process.sentinel, selectors.EVENT_READ, worker_id)

    def on_run_start(self, n_jobs: int) -> None:
        if not self._processes and not self._finalized:
            self._start_processes()
        self._start = time.perf_counter()

    def dispatch(self, worker_id: int, job: Job, message: PreparedMessage) -> None:
        if not 0 <= worker_id < self._n_workers:
            raise ClusterError(f"invalid worker id {worker_id}")
        if self._finalized:
            raise ClusterError("backend already finalized")
        if not self._processes:
            self._start_processes()
        process = self._route[worker_id]
        self._jobs[job.job_id] = (worker_id, process, message.kind, message.payload)
        self._n_jobs += 1
        self._bytes_sent += message.nbytes
        link = self._links[process]
        if link is None:  # no process is left: the next collect names the job
            return
        frame = pickle.dumps((job.job_id, message.kind, message.payload), pickle.HIGHEST_PROTOCOL)
        outbox = self._outboxes[process]
        waiting = bool(outbox)  # then the selector writes once the end has room
        outbox += _LENGTH.pack(len(frame))
        outbox += frame
        if not waiting and not flush_outbox(self._selector, link, outbox, process, False):
            self._bury(process)

    def _receive(self, process: int, link: socket.socket) -> bool:
        """Decode each whole reply read off the process's end; False at its EOF."""
        try:
            chunk = link.recv(1 << 16)
        except BlockingIOError:
            return True
        except ConnectionResetError:
            chunk = b""
        inbox = self._inboxes[process]
        inbox += chunk
        while len(inbox) >= _LENGTH.size:
            end = _LENGTH.size + _LENGTH.unpack_from(inbox)[0]
            if len(inbox) < end:
                break
            reply = pickle.loads(inbox[_LENGTH.size:end])
            del inbox[:end]
            self._replies.append((self._jobs.pop(reply[0])[0], reply))
        return bool(chunk)

    def _bury(self, dead: int) -> None:
        """Stop watching a dead process and send the jobs it held to the
        survivors, under the same logical workers; with no survivor they wait
        for the next collect's loss."""
        link = self._links[dead]
        assert link is not None
        self._selector.unregister(link)
        self._selector.unregister(self._processes[dead].sentinel)
        link.close()
        self._links[dead] = None
        self._outboxes[dead].clear()
        self._live.remove(dead)
        if not self._live:
            return
        remap_route(self._route, dead, self._live)
        for job_id, (worker_id, holder, kind, payload) in self._jobs.items():
            if holder == dead:
                process = self._route[worker_id]
                self._jobs[job_id] = (worker_id, process, kind, payload)
                frame = pickle.dumps((job_id, kind, payload), pickle.HIGHEST_PROTOCOL)
                self._outboxes[process] += _LENGTH.pack(len(frame)) + frame
                self._selector.modify(self._links[process],
                                      selectors.EVENT_READ | selectors.EVENT_WRITE, process)
                self._redispatches += 1

    def collect(self, timeout: float | None = 300.0) -> CompletedJob:
        if not self._replies and not self._jobs:
            raise ClusterError("no job in flight")
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._replies:
            if not self._live:
                lost = tuple(sorted(self._jobs))
                self._jobs.clear()
                raise WorkerLostError(f"every worker process died; {len(lost)} jobs were in "
                                      "flight (resubmit them against a fresh backend)", lost)
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            for key, events in self._selector.select(wait):
                process, link = key.data, self._links[key.data]
                if link is None:
                    continue  # buried by an earlier event of this round
                if key.fileobj is not link:  # its sentinel: the replies it wrote are read first
                    self._receive(process, link)
                    self._bury(process)
                elif events & selectors.EVENT_READ and not self._receive(process, link):
                    self._bury(process)
                elif events & selectors.EVENT_WRITE and not flush_outbox(
                        self._selector, link, self._outboxes[process], process, True):
                    self._bury(process)
            if not self._replies and deadline is not None and time.monotonic() >= deadline:
                raise CollectTimeoutError(
                    f"timed out after {timeout}s waiting for a worker result"
                )
        worker_id, (job_id, process, result, elapsed, error) = self._replies.popleft()
        self._busy[process] += elapsed
        return CompletedJob(job_id, worker_id, result, elapsed,
                            time.perf_counter() - self._start, error)

    def finalize(self) -> BackendStats:
        if not self._finalized:
            self._finalized = True
            held = {holder for _, holder, _, _ in self._jobs.values()}
            for index, (process, link) in enumerate(zip(self._processes, self._links)):
                if index in held:
                    process.terminate()  # its jobs are abandoned: nobody collects them
                elif link is not None:
                    with contextlib.suppress(OSError):  # gone already
                        link.send(_STOP)
            for process, link in zip(self._processes, self._links):
                process.join(timeout=30.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
                if link is not None:
                    link.close()
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

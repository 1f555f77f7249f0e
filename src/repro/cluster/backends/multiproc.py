"""Real parallel execution with ``multiprocessing`` worker processes.

This backend is the laptop-scale equivalent of the paper's MPI deployment:
one master process (the scheduler) plus ``n_workers`` slave processes, each
joined to it by its own socket pair (Fig. 4's point-to-point ``MPI_Send_Obj``
/ ``MPI_Recv_Obj``): a worker reads one job frame (serialized problems, or
file names for the NFS-style strategy), prices it for real and writes one
reply frame back.  The master never blocks on a send; one selector over its
ends and the process sentinels writes what waits, reads the replies and
sees a death as it happens.

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
)
from repro.cluster.backends.execution import execute_payload
from repro.errors import ClusterError, CollectTimeoutError, WorkerLostError
from repro.pricing.validation import check_count

__all__ = ["MultiprocessingBackend", "worker_main"]

#: a frame is its length, then that many bytes of pickle
_LENGTH = struct.Struct("!Q")
#: the empty frame: no more work (the empty job name of Fig. 4)
_STOP = _LENGTH.pack(0)
_READ, _READ_WRITE = selectors.EVENT_READ, selectors.EVENT_READ | selectors.EVENT_WRITE


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
        #: the master's end of each worker's socket pair (``None`` once lost), the
        #: bytes its worker has not taken yet and those read but not decoded yet
        self._links: list[socket.socket | None] = []
        self._outboxes = [bytearray() for _ in range(self._n_workers)]
        self._inboxes = [bytearray() for _ in range(self._n_workers)]
        self._replies: deque[tuple[int, int, Any, float, str | None]] = deque()
        self._in_flight = 0
        #: ids dispatched to each worker and not answered yet: what a dead
        #: process strands
        self._held: list[set[int]] = [set() for _ in range(self._n_workers)]
        self._n_jobs = 0
        self._bytes_sent = 0
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
            self._selector.register(link, _READ, worker_id)
            self._selector.register(process.sentinel, _READ, worker_id)

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
        frame = pickle.dumps((job.job_id, message.kind, message.payload), pickle.HIGHEST_PROTOCOL)
        outbox = self._outboxes[worker_id]
        waiting = bool(outbox)
        outbox += _LENGTH.pack(len(frame))
        outbox += frame
        self._held[worker_id].add(job.job_id)
        self._in_flight += 1
        self._n_jobs += 1
        self._bytes_sent += message.nbytes
        if not waiting:  # else the selector writes once the worker's end has room
            self._flush(worker_id, watched=False)

    def _flush(self, worker_id: int, watched: bool) -> None:
        """Write what the worker's end takes now; watch it while bytes are left."""
        link, outbox = self._links[worker_id], self._outboxes[worker_id]
        if link is None:  # a lost worker: the job waits for its WorkerLostError
            outbox.clear()
            return
        try:
            sent = link.send(outbox)
        except BlockingIOError:
            sent = 0
        except (BrokenPipeError, ConnectionResetError):
            self._drop(worker_id, link)
            return
        del outbox[:sent]
        if outbox or watched:
            self._selector.modify(link, _READ_WRITE if outbox else _READ, worker_id)

    def _receive(self, worker_id: int, link: socket.socket) -> bool:
        """Decode each whole reply read off the worker's end; False at its EOF."""
        try:
            chunk = link.recv(1 << 16)
        except BlockingIOError:
            return True
        except ConnectionResetError:
            chunk = b""
        inbox = self._inboxes[worker_id]
        inbox += chunk
        while len(inbox) >= _LENGTH.size:
            end = _LENGTH.size + _LENGTH.unpack_from(inbox)[0]
            if len(inbox) < end:
                break
            reply = pickle.loads(inbox[_LENGTH.size:end])
            del inbox[:end]
            self._held[worker_id].discard(reply[0])
            self._replies.append(reply)
        return bool(chunk)

    def _drop(self, worker_id: int, link: socket.socket) -> None:
        """Stop watching a worker that is gone; the jobs it holds are lost."""
        self._selector.unregister(link)
        self._selector.unregister(self._processes[worker_id].sentinel)
        link.close()
        self._links[worker_id] = None
        self._outboxes[worker_id].clear()

    def collect(self, timeout: float | None = 300.0) -> CompletedJob:
        if self._in_flight == 0:
            raise ClusterError("no job in flight")
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._replies:
            if None in self._links:
                self._raise_stranded()
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            for key, events in self._selector.select(wait):
                worker_id, link = key.data, self._links[key.data]
                if link is None:
                    continue  # dropped by an earlier event of this round
                died = key.fileobj is not link  # its sentinel; its last replies are read first
                if events & _READ and (not self._receive(worker_id, link) or died):
                    self._drop(worker_id, link)
                elif events & selectors.EVENT_WRITE:
                    self._flush(worker_id, watched=True)
            if not self._replies and deadline is not None and time.monotonic() >= deadline:
                raise CollectTimeoutError(
                    f"timed out after {timeout}s waiting for a worker result"
                )
        job_id, worker_id, result, elapsed, error = self._replies.popleft()
        self._in_flight -= 1
        self._busy[worker_id] += elapsed
        return CompletedJob(job_id, worker_id, result, elapsed,
                            time.perf_counter() - self._start, error)

    def _raise_stranded(self) -> None:
        """Name every job a lost worker holds: they are in flight no more."""
        lost = [held for held, link in zip(self._held, self._links) if link is None]
        stranded = tuple(sorted(set().union(*lost)))
        if stranded:
            for held in lost:
                held.clear()
            self._in_flight -= len(stranded)
            raise WorkerLostError(f"a worker process died holding {len(stranded)} dispatched "
                                  "jobs (resubmit them against a fresh backend)", stranded)

    def finalize(self) -> BackendStats:
        if not self._finalized:
            self._finalized = True
            for worker_id, (process, link) in enumerate(zip(self._processes, self._links)):
                if self._held[worker_id]:
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
        )

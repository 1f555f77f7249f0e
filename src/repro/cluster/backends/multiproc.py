"""Real parallel execution with ``multiprocessing`` worker processes.

This backend is the laptop-scale equivalent of the paper's MPI deployment:
one master process (the scheduler) plus ``n_workers`` slave processes, each
joined to it by its own socket pair (Fig. 4's point-to-point ``MPI_Send_Obj``
/ ``MPI_Recv_Obj``): a worker reads one job frame (serialized problems, or
file names for the NFS-style strategy), prices it for real and writes one
reply frame back.  The master is :class:`~repro.cluster.backends.base.LinkPool`,
the remote backend's too: it never blocks on a send, its one selector
writes what waits and reads the replies, a dead process's jobs go to the
survivors, and the loss is reported only when no process is left.  This
module adds the fork, the socket pairs, the process sentinels (the
selector sees a death as it happens), the pickle frames and the teardown.

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
from typing import Any

from repro.cluster.backends.base import BackendStats, Job, LinkPool, PreparedMessage
from repro.cluster.backends.execution import execute_payload
from repro.errors import ClusterError, SerializationError
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


class MultiprocessingBackend(LinkPool):
    """Master-side driver of a pool of worker processes.

    The processes start at :meth:`on_run_start` (or at the first
    :meth:`dispatch` of a backend driven directly), so a campaign's plan and
    its load pass are written before the fork, and a pool that never ran
    starts none.  :class:`~repro.cluster.backends.base.LinkPool` is the
    master; this backend adds the fork, a socket pair and a sentinel per
    process, length-prefixed pickle frames and the teardown.

    Parameters
    ----------
    n_workers:
        Number of slave processes to start (``fork``ed where the platform
        can fork).
    """

    def __init__(self, n_workers: int = 2):
        super().__init__(check_count(n_workers, "n_workers", error=ClusterError, floats=False))
        self._context = _context()
        self._processes: list[Any] = []
        #: the bytes read off each slot's link and not decoded yet
        self._inboxes = [bytearray() for _ in range(self._n_workers)]

    def _start_processes(self) -> None:
        for slot in range(self._n_workers):
            link, worker_end = socket.socketpair()
            process = self._context.Process(
                target=worker_main, args=(slot, worker_end), daemon=True)
            process.start()
            worker_end.close()  # the worker's alone: its death closes the pair
            self._processes.append(process)
            self._attach(slot, link)
            self._selector.register(process.sentinel, selectors.EVENT_READ, process)

    def on_run_start(self, n_jobs: int) -> None:
        if not self._processes and not self._finalized:
            self._start_processes()
        super().on_run_start(n_jobs)

    def _frame(self, job: Job, message: PreparedMessage) -> bytes:
        if not self._processes:  # a backend driven directly starts at its first dispatch
            self._start_processes()
        frame = pickle.dumps((job.job_id, message.kind, message.payload), pickle.HIGHEST_PROTOCOL)
        return _LENGTH.pack(len(frame)) + frame

    def _decode(self, slot: int, data: bytes) -> list[tuple[int, Any, float, str | None]]:
        inbox = self._inboxes[slot]
        inbox += data
        answers = []
        while len(inbox) >= _LENGTH.size:
            end = _LENGTH.size + _LENGTH.unpack_from(inbox)[0]
            if len(inbox) < end:
                break
            try:
                job_id, _, result, elapsed, error = pickle.loads(inbox[_LENGTH.size:end])
            except (pickle.UnpicklingError, EOFError) as exc:
                raise SerializationError(f"worker process {slot} sent no reply: {exc}") from exc
            del inbox[:end]
            answers.append((job_id, result, elapsed, error))
        return answers

    def _watched(self, key: selectors.SelectorKey) -> None:
        """A process sentinel: the process died; the replies it wrote are read first."""
        slot = self._processes.index(key.data)
        if slot in self._links:  # else buried earlier in this round
            self._read(slot)
            self._bury(slot)

    def _closed(self, slot: int) -> None:
        self._selector.unregister(self._processes[slot].sentinel)
        self._inboxes[slot].clear()

    def finalize(self) -> BackendStats:
        if not self._finalized:
            held = {holder for _, holder, _, _ in self._inflight.values()}
            for slot, process in enumerate(self._processes):
                if slot in held:
                    process.terminate()  # its jobs are abandoned: nobody collects them
                elif slot in self._links:
                    with contextlib.suppress(OSError):  # gone already
                        self._links[slot].send(_STOP)
            for process in self._processes:
                process.join(timeout=30.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
        return super().finalize()

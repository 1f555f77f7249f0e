"""Real parallel execution with ``multiprocessing`` worker processes.

This backend is the laptop-scale equivalent of the paper's MPI deployment:
one master process (the scheduler) plus ``n_workers`` slave processes, each
receiving serialized problems (or file names, for the NFS-style strategy)
over an inter-process queue, pricing them for real, and sending the results
back over a shared result queue.

Because the workers are genuine OS processes, the measured wall-clock times
show real speedup on multi-core machines; the discrete-event simulator
(:mod:`repro.cluster.simcluster`) extrapolates the same master/worker
protocol to hundreds of nodes.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
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
from repro.cluster.backends.execution import execute_payload, make_worker_cache
from repro.errors import ClusterError, CollectTimeoutError, WorkerLostError
from repro.pricing.validation import check_count

__all__ = ["MultiprocessingBackend", "worker_main"]

_STOP = "__stop__"

#: longest single wait on the result queue; each time one elapses empty the
#: master checks its worker processes, so a death costs this, not the timeout
_DEATH_CHECK_S = 0.5


def worker_main(
    worker_id: int,
    task_queue: Any,
    result_queue: Any,
    cache_dir: str | None = None,
) -> None:
    """Slave loop: receive payloads, price them, send results back.

    The loop mirrors the slave part of the paper's Fig. 4 script: it blocks
    on its queue, treats an empty job name (our ``_STOP`` sentinel) as the
    signal to stop working, and otherwise rebuilds the problem, computes it
    and returns the results to the master.  With a ``cache_dir`` every
    worker opens the same on-disk result cache, so repeated problems are
    answered without pricing.
    """
    cache = make_worker_cache(cache_dir)
    while True:
        item = task_queue.get()
        if item == _STOP:
            break
        job_id, kind, payload = item
        result, elapsed, error = execute_payload(kind, payload, cache=cache)
        result_queue.put((job_id, worker_id, result, elapsed, error))


class MultiprocessingBackend(WorkerBackend):
    """Master-side driver of a pool of worker processes.

    Parameters
    ----------
    n_workers:
        Number of slave processes to start (the platform's default
        ``multiprocessing`` context).
    cache_dir:
        Optional shared on-disk result-cache directory opened by every
        worker (see :mod:`repro.pricing.cache`).
    """

    queues_jobs = True  # each process blocks on its own task queue

    def __init__(
        self,
        n_workers: int = 2,
        cache_dir: str | None = None,
    ):
        self._n_workers = check_count(n_workers, "n_workers", error=ClusterError, floats=False)
        ctx = mp.get_context()
        self._result_queue: Any = ctx.Queue()
        self._task_queues: list[Any] = [ctx.Queue() for _ in range(self._n_workers)]
        self._processes = [
            ctx.Process(
                target=worker_main,
                args=(i, self._task_queues[i], self._result_queue, cache_dir),
                daemon=True,
            )
            for i in range(self._n_workers)
        ]
        for process in self._processes:
            process.start()
        self._in_flight = 0
        #: ids dispatched to each worker and not answered yet: what a dead
        #: process strands
        self._held: list[set[int]] = [set() for _ in range(self._n_workers)]
        self._n_jobs = 0
        self._bytes_sent = 0
        self._busy: dict[int, float] = {i: 0.0 for i in range(self._n_workers)}
        #: results already pulled off the shared queue by :meth:`poll` but not
        #: yet handed to the master through :meth:`collect`
        self._ready: deque[tuple[int, int, Any, float, str | None]] = deque()
        self._start = time.perf_counter()
        self._finalized = False

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
        self._task_queues[worker_id].put((job.job_id, message.kind, message.payload))
        self._held[worker_id].add(job.job_id)
        self._in_flight += 1
        self._n_jobs += 1
        self._bytes_sent += message.nbytes

    def collect(self, timeout: float | None = 300.0) -> CompletedJob:
        if self._in_flight == 0:
            raise ClusterError("no job in flight")
        if self._ready:
            job_id, worker_id, result, elapsed, error = self._ready.popleft()
        else:
            job_id, worker_id, result, elapsed, error = self._wait_for_result(timeout)
        self._held[worker_id].discard(job_id)
        self._in_flight -= 1
        self._busy[worker_id] += elapsed
        return CompletedJob(
            job_id=job_id,
            worker_id=worker_id,
            result=result,
            compute_time=elapsed,
            collected_at=time.perf_counter() - self._start,
            error=error,
        )

    def _wait_for_result(self, timeout: float | None) -> tuple[int, int, Any, float, str | None]:
        """Block on the result queue in slices, looking for deaths between them.

        A result that is there is returned at once, as a plain ``get`` would;
        only a slice that elapses empty pays for the look at the processes.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = _DEATH_CHECK_S
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            try:
                return self._result_queue.get(timeout=wait)
            except queue_module.Empty:
                pass
            stranded = sorted(
                job_id
                for held, process in zip(self._held, self._processes)
                if process.exitcode is not None
                for job_id in held
            )
            if stranded:
                raise WorkerLostError(
                    f"a worker process died holding {len(stranded)} dispatched "
                    f"jobs (resubmit them against a fresh backend)",
                    job_ids=tuple(stranded),
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise CollectTimeoutError(
                    f"timed out after {timeout}s waiting for a worker result"
                )

    def poll(self) -> bool:
        if self._in_flight == 0:
            return False
        # drain whatever the workers have already pushed, without blocking
        while True:
            try:
                self._ready.append(self._result_queue.get_nowait())
            except queue_module.Empty:
                break
        return bool(self._ready)

    def finalize(self) -> BackendStats:
        if not self._finalized:
            self._finalized = True
            # a worker killed inside ``result_queue.put`` keeps the queue's
            # shared write lock for ever and the survivors block behind it:
            # after a death the run is lost anyway, so nobody is waited for
            died = any(process.exitcode is not None for process in self._processes)
            for task_queue in self._task_queues:
                task_queue.put(_STOP)
            for process in self._processes:
                process.join(timeout=0.0 if died else 30.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
        total = time.perf_counter() - self._start
        return BackendStats(
            total_time=total,
            n_jobs=self._n_jobs,
            n_workers=self._n_workers,
            worker_busy=dict(self._busy),
            master_busy=total,
            bytes_sent=self._bytes_sent,
        )

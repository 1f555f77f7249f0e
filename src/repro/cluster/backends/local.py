"""Sequential in-process backend.

Executes every job immediately in the master process.  It is the reference
backend for correctness tests (the parallel backends must return exactly the
same prices) and the natural choice for very small portfolios where process
start-up would dominate.
"""

from __future__ import annotations

import time

from repro.cluster.backends.base import (
    BackendStats,
    CompletedJob,
    Job,
    PreparedMessage,
    WorkerBackend,
)
from repro.cluster.backends.execution import execute_payload, make_worker_cache
from repro.errors import ClusterError
from repro.pricing.validation import check_count

__all__ = ["SequentialBackend"]


class SequentialBackend(WorkerBackend):
    """Run jobs one by one in the calling process.

    ``n_workers`` pretends to be the requested pool size so that schedulers
    behave identically, but every dispatch executes synchronously.
    ``cache_dir`` (optional) points at a shared on-disk result cache checked
    before each computation (see :mod:`repro.pricing.cache`).
    """

    def __init__(self, n_workers: int = 1, cache_dir: str | None = None):
        self._n_workers = check_count(n_workers, "n_workers", error=ClusterError, floats=False)
        self._cache = make_worker_cache(cache_dir)
        self._pending: list[CompletedJob] = []
        self._start = time.perf_counter()
        self._n_jobs = 0
        self._busy: dict[int, float] = {i: 0.0 for i in range(self._n_workers)}
        self._bytes_sent = 0
        self._finalized = False

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def on_run_start(self, n_jobs: int) -> None:
        self._start = time.perf_counter()

    def dispatch(self, worker_id: int, job: Job, message: PreparedMessage) -> None:
        if not 0 <= worker_id < self._n_workers:
            raise ClusterError(f"invalid worker id {worker_id}")
        result, elapsed, error = execute_payload(message.kind, message.payload, cache=self._cache)
        self._busy[worker_id] += elapsed
        self._bytes_sent += message.nbytes
        self._n_jobs += 1
        self._pending.append(
            CompletedJob(
                job_id=job.job_id,
                worker_id=worker_id,
                result=result,
                compute_time=elapsed,
                collected_at=time.perf_counter() - self._start,
                error=error,
            )
        )

    def collect(self, timeout: float | None = None) -> CompletedJob:
        if not self._pending:
            raise ClusterError("no job in flight")
        return self._pending.pop(0)

    def poll(self) -> bool:
        return bool(self._pending)

    def finalize(self) -> BackendStats:
        self._finalized = True
        total = time.perf_counter() - self._start
        return BackendStats(
            total_time=total,
            n_jobs=self._n_jobs,
            n_workers=self._n_workers,
            worker_busy=dict(self._busy),
            master_busy=total,
            bytes_sent=self._bytes_sent,
        )

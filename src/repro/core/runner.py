"""The canonical :class:`RunReport` of one portfolio valuation.

Runs and CPU-count sweeps are driven by
:class:`~repro.api.session.ValuationSession`; this module holds the report
object every execution path folds its :class:`ScheduleOutcome` into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.cluster.backends.base import Job
from repro.core.scheduler import ScheduleOutcome

__all__ = ["RunReport"]


@dataclass
class RunReport:
    """Outcome of valuing one portfolio on one cluster configuration."""

    n_jobs: int
    n_workers: int
    strategy: str
    scheduler: str
    total_time: float
    master_busy: float
    worker_busy: dict[int, float]
    bytes_sent: int
    results: dict[int, dict[str, Any] | None] = field(default_factory=dict)
    errors: dict[int, str] = field(default_factory=dict)
    category_times: dict[str, float] = field(default_factory=dict)
    #: ``{worker_id: most jobs it held at once}``: 1 is one job per slave
    #: (always, on the simulated cluster); more is the in-flight window of
    #: :class:`~repro.core.scheduler.ScheduleStream` opening on cheap jobs
    peak_window: dict[int, int] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def n_cpus(self) -> int:
        """The paper's "number of CPUs" = workers + the master."""
        return self.n_workers + 1

    @property
    def mean_worker_utilisation(self) -> float:
        """Average fraction of the makespan the workers spent busy."""
        if not self.worker_busy or self.total_time <= 0:
            return 0.0
        busy = sum(self.worker_busy.values()) / len(self.worker_busy)
        return busy / self.total_time

    def prices(self) -> dict[int, float]:
        """Job id -> price, for runs that actually executed the problems."""
        return {
            job_id: result["price"]
            for job_id, result in self.results.items()
            if result is not None and "price" in result
        }

    @classmethod
    def from_outcome(
        cls,
        outcome: ScheduleOutcome,
        jobs: Sequence[Job],
        strategy_name: str,
    ) -> "RunReport":
        category_by_id = {job.job_id: job.category for job in jobs}
        category_times: dict[str, float] = {}
        by_id: dict[int, Any] = {}
        for completed in outcome.completed:
            category = category_by_id.get(completed.job_id, "generic")
            category_times[category] = category_times.get(category, 0.0) + completed.compute_time
            by_id[completed.job_id] = completed
        # results are keyed in *submission* order, whatever order the workers
        # answered in, so reports are deterministic across backends and runs
        results: dict[int, dict[str, Any] | None] = {}
        errors: dict[int, str] = {}
        for job in jobs:
            completed = by_id.get(job.job_id)
            if completed is None:
                continue
            results[job.job_id] = completed.result
            if completed.error is not None:
                errors[job.job_id] = completed.error
        return cls(
            n_jobs=len(jobs),
            n_workers=outcome.stats.n_workers,
            strategy=strategy_name,
            scheduler=outcome.scheduler_name,
            total_time=outcome.stats.total_time,
            master_busy=outcome.stats.master_busy,
            worker_busy=dict(outcome.stats.worker_busy),
            bytes_sent=outcome.stats.bytes_sent,
            results=results,
            errors=errors,
            category_times=category_times,
            peak_window=dict(outcome.peak_window),
            extra=dict(outcome.stats.extra),
        )

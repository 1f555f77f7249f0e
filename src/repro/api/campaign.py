"""One valuation campaign: a plan, the stream dispatching it, a future per position.

A :class:`Campaign` drives one :class:`~repro.core.scheduler.ScheduleStream`
and routes every collected event -- plain results, the members of a
:class:`~repro.pricing.batch.ProblemBatch` reply, worker errors,
cancellations -- to the position's :class:`~repro.api.futures.PricingFuture`.
Cache hits never enter the stream: their futures are born resolved.  The
futures are the only per-position record: :meth:`Campaign.finish` folds the
final :class:`~repro.core.runner.RunReport` from them in submission order,
taking only run statistics from the stream's outcome.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Mapping, Sequence

from repro.api.config import RetryPolicy
from repro.api.futures import CancelToken, JobSet, PricingFuture, StreamProgress
from repro.api.plan import CampaignPlan
from repro.api.results import RunResult
from repro.cluster.backends import CompletedJob, Job, WorkerBackend
from repro.cluster.backends.execution import decode_batch_reply
from repro.core.runner import RunReport
from repro.core.scheduler import DispatchPolicy, ScheduleOutcome, ScheduleStream
from repro.core.strategies import TransmissionStrategy
from repro.errors import (
    ClusterError,
    CollectTimeoutError,
    FutureTimeoutError,
    SchedulingError,
    ValuationError,
    WorkerLostError,
)

__all__ = ["Campaign"]


class Campaign:
    """Executes one :class:`~repro.api.plan.CampaignPlan` through its futures.

    ``futures`` are the positions' pre-existing futures (``submit_many``);
    without them the campaign mints one per position.  ``new_policy``
    builds the fresh dispatch policy of each stream the campaign opens.  With a
    ``retry`` policy, :meth:`finish` survives losing the whole worker pool:
    the still-pending futures are re-attached to a stream on a backend built
    by ``new_backend``.
    """

    def __init__(
        self,
        plan: CampaignPlan,
        backend: WorkerBackend,
        strategy: TransmissionStrategy,
        new_policy: Callable[[], DispatchPolicy],
        *,
        futures: Mapping[int, PricingFuture] | None = None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
        retry: RetryPolicy | None = None,
        new_backend: Callable[[], WorkerBackend] | None = None,
    ) -> None:
        self.plan = plan
        self._backend = backend
        self._strategy = strategy
        self._new_policy = new_policy
        self._progress = progress
        self._cancel = cancel
        self._retry = retry
        self._new_backend = new_backend
        self._retries = 0
        self._n_reported = 0
        self._run_result: RunResult | None = None
        if futures is None:
            futures = {}
            for job_id in plan.original_ids:
                problem = plan.problem_by_id.get(job_id)
                futures[job_id] = PricingFuture(
                    job_id,
                    label=getattr(problem, "label", None),
                    method=getattr(problem, "method_name", None),
                )
        self._futures = dict(futures)
        for future in self._futures.values():
            future._campaign = self
        for job_id, entry in plan.cached_results.items():
            self._resolve_future(job_id, entry, None)
        self._stream: ScheduleStream | None = None
        self._dispatched: list[Job] = []
        if plan.jobs:
            self._open_stream(plan.jobs)
        else:
            # every position was answered from the cache: finalize the
            # backend now instead of waiting for a result() that may never come
            self._assemble()

    def _open_stream(self, jobs: Sequence[Job]) -> None:
        self._dispatched = list(jobs)
        self._stream = ScheduleStream(
            self._dispatched, self._backend, self._strategy, self._new_policy()
        )

    # -- bookkeeping -------------------------------------------------------------
    @property
    def jobs(self) -> JobSet:
        """The positions' futures, in submission order."""
        return JobSet([self._futures[job_id] for job_id in self.plan.original_ids])

    @property
    def exhausted(self) -> bool:
        return self._stream is None or self._stream.remaining == 0

    @property
    def finished(self) -> bool:
        """Whether the campaign was fully assembled (backend finalized)."""
        return self._run_result is not None

    def _report(self, future: PricingFuture, cancelled: bool = False) -> None:
        self._n_reported += 1
        if self._progress is None:
            return
        self._progress(
            StreamProgress(
                done=self._n_reported,
                total=len(self.plan.original_ids),
                job_id=future.job_id,
                label=future.label,
                result=future.price_result(),
                error=future._error,
                cancelled=cancelled,
            )
        )

    def _resolve_future(
        self, job_id: int, result: dict[str, Any] | None, error: str | None
    ) -> None:
        future = self._futures.get(job_id)
        if future is None or future.done():
            return
        future._resolve(result, error)
        self._report(future)

    def _resolve_completed(self, done: CompletedJob) -> None:
        members = self.plan.batch_members.get(done.job_id)
        if members is None:
            self._resolve_future(done.job_id, done.result, done.error)
            return
        decoded = decode_batch_reply(done.result, done.error, members)
        for member, (entry, error) in decoded.items():
            self._resolve_future(member, entry, error)

    # -- cancellation ------------------------------------------------------------
    def cancel_job(self, job_id: int) -> bool:
        # a batch member cannot be withdrawn alone: its super-job (queued
        # under its first member's id) may carry siblings that were not cancelled
        if self._stream is None or job_id in self.plan.batch_members:
            return False
        return self._stream.cancel_job(job_id)

    def _apply_cancel_token(self) -> None:
        if self._cancel is None or not self._cancel.cancelled or self._stream is None:
            return
        for job in self._stream.cancel_pending():
            for member in self.plan.batch_members.get(job.job_id, (job.job_id,)):
                future = self._futures.get(member)
                if future is not None and not future.done():
                    future._mark_cancelled()
                    self._report(future, cancelled=True)

    # -- pumping -----------------------------------------------------------------
    def pump(self, timeout: float | None = None) -> None:
        """Collect one event from the stream and resolve its futures."""
        self._apply_cancel_token()
        if not self.exhausted:
            assert self._stream is not None
            try:
                done = self._stream.collect_next(timeout)
            except CollectTimeoutError as exc:
                raise FutureTimeoutError(str(exc)) from exc
            self._resolve_completed(done)
        if self.exhausted:
            # the last event was just collected: stop the workers and
            # finalize the backend now, so campaigns drained through
            # futures/iteration alone never leak worker processes
            self._assemble()

    def pump_until(self, future: PricingFuture, timeout: float | None = None) -> None:
        """Pump the stream until ``future`` resolves -- never a full gather."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not future.done():
            if self.exhausted:
                raise ValuationError(
                    f"stream exhausted but job {future.job_id} never resolved"
                )
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FutureTimeoutError(
                        f"job {future.job_id} still pending after {timeout}s"
                    )
            self.pump(remaining)

    def finish(self) -> RunResult:
        """Drain the stream and assemble the submission-ordered result.

        Under a retry policy each :class:`~repro.errors.WorkerLostError`
        consumes one attempt and :meth:`_reattach` puts the still-pending
        futures back out on a fresh backend, so results of every attempt land
        in one report, bit-identical to a clean run.
        """
        attempt = 1
        while self._run_result is None:
            try:
                self.pump()
            except WorkerLostError:
                if self._retry is None or attempt >= self._retry.max_attempts:
                    raise
                attempt = self._reattach(self._retry, attempt)
        return self._run_result

    def _reattach(self, retry: RetryPolicy, attempt: int) -> int:
        """Stream the unresolved positions on a fresh backend; the attempt now running."""
        assert self._new_backend is not None
        try:
            self._backend.finalize()
        # repro-lint: disable=except-swallow -- best-effort teardown of a pool that WorkerLostError already proved dead; any error here is noise on the retry path
        except Exception:
            pass  # the pool is already gone; nothing to release
        members = self.plan.batch_members
        while True:
            delay = retry.delay(attempt)
            if delay > 0:
                time.sleep(delay)
            attempt += 1
            try:
                self._backend = self._new_backend()
                self._open_stream(
                    [
                        job
                        for job in self.plan.jobs
                        if not all(
                            self._futures[member].done()
                            for member in members.get(job.job_id, (job.job_id,))
                        )
                    ]
                )
            except ClusterError:
                # the replacement pool could not even be dialed: the attempt
                # is consumed and the backoff schedule paces the next try
                if attempt >= retry.max_attempts:
                    raise
            else:
                self._retries += 1
                return attempt

    def _assemble(self) -> RunResult:
        """Fold the futures into the report; only run statistics come from the stream."""
        if self._run_result is not None:
            return self._run_result
        plan, dispatched = self.plan, self._dispatched
        if self._stream is None:
            outcome = ScheduleOutcome([], self._backend.finalize(), "cache")
        else:
            outcome = self._stream.finish()
            n_cancelled = len(self._stream.cancelled_jobs)
            if len(outcome.completed) + n_cancelled != len(dispatched):
                raise SchedulingError(
                    f"stream collected {len(outcome.completed)} results for "
                    f"{len(dispatched)} dispatched jobs ({n_cancelled} cancelled)"
                )
        results: dict[int, dict[str, Any] | None] = {}
        errors: dict[int, str] = {}
        for job_id in plan.original_ids:
            future = self._futures[job_id]
            if future.cancelled():
                entry, error = None, "cancelled before dispatch"
            elif future.done():
                entry, error = future._result, future._error
            else:
                raise SchedulingError(f"job {job_id} was neither answered nor cancelled")
            results[job_id] = entry
            if error is not None:
                errors[job_id] = error
            elif (
                job_id in plan.digests
                and entry is not None
                and entry.get("price") is not None
                and not entry.get("cache_hit")
            ):
                assert plan.run_cache is not None
                plan.run_cache.put(plan.digests[job_id], entry)
        report = replace(
            RunReport.from_outcome(outcome, dispatched, self._strategy.name),
            n_jobs=len(plan.original_ids),
            results=results,
            errors=errors,
        )
        if self._retries:
            report.extra["retries"] = self._retries
        self._run_result = RunResult(report=report, portfolio=plan.portfolio)
        return self._run_result

"""One valuation campaign: a plan, the stream dispatching it, one result table.

A :class:`Campaign` drives one :class:`~repro.core.scheduler.ScheduleStream`
and writes every collected event -- a plain result, the
:class:`~repro.pricing.methods.base.ResultColumns` reply of a job with members
(a :class:`~repro.pricing.batch.ProblemBatch`, a scenario-grid slice, a book
slice), a worker error, a cancellation -- into its
:class:`~repro.core.runner.ResultTable`.
Cache hits never enter the stream: their rows are written at construction.
Nor does a repeat of a position the run cache missed: the row its leader
settles is copied to it, and every freshly priced row enters the run cache as
it lands (:meth:`Campaign._settled`).
The table is the only per-position record: a
:class:`~repro.api.futures.PricingFuture` is a view of one row, minted for
whoever asks for one, and :meth:`Campaign.finish` hands the table to the final
:class:`~repro.core.runner.RunReport`, taking only run statistics from the
stream's outcome.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.api.futures import CancelToken, JobSet, PricingFuture, StreamProgress
from repro.api.plan import CampaignPlan
from repro.api.results import PriceResult, RunResult
from repro.cluster.backends import CompletedJob, Job, WorkerBackend
from repro.cluster.backends.base import REDIAL_DELAYS_S
from repro.core.runner import ResultTable, RunReport
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
from repro.pricing.methods.base import ResultColumns

__all__ = ["Campaign"]


class Campaign:
    """Executes one :class:`~repro.api.plan.CampaignPlan` into its result table.

    ``futures`` are positions' pre-existing futures (``submit_many``); any
    other is minted when asked for (:meth:`future`, :attr:`jobs`).
    ``new_policy`` builds the fresh dispatch policy of each stream the
    campaign opens.  With ``retry``, :meth:`finish` survives losing the whole
    worker pool: the dispatch units still pending are re-attached to a stream
    on a backend built by ``new_backend``.
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
        retry: bool = False,
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
        self.table = ResultTable(plan.original_ids)
        self._minted: dict[int, PricingFuture] = dict(futures or {})
        for future in self._minted.values():
            future._campaign = self
        for job_id, entry in plan.cached_results.items():
            self.table.write(job_id, entry, None)
        self._settled(tuple(plan.cached_results))
        self._stream: ScheduleStream | None = None
        self._dispatched: list[Job] = []
        #: member id -> the job it travels in, built by the first cancel_job
        self._carriers: dict[int, Job] | None = None
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
    def future(self, job_id: int) -> PricingFuture:
        """The position's future, minted (and labelled) on first request."""
        future = self._minted.get(job_id)
        if future is None:
            future = self._minted[job_id] = PricingFuture(job_id, *self.plan.describe(job_id))
            future._campaign = self
        return future

    @property
    def jobs(self) -> JobSet:
        """The positions' futures, in submission order."""
        return JobSet([self.future(job_id) for job_id in self.plan.original_ids])

    @property
    def exhausted(self) -> bool:
        return self._stream is None or self._stream.remaining == 0

    @property
    def finished(self) -> bool:
        """Whether the campaign was fully assembled (backend finalized)."""
        return self._run_result is not None

    def _settled(self, job_ids: Sequence[int], cancelled: bool = False) -> None:
        """Rows just written: with a run cache, keep the fresh ones in it and
        copy them to their repeats; wake the futures minted for them all,
        tick ``progress``."""
        if self.plan.digests:
            job_ids = (*job_ids, *self._share(job_ids))
        if self._progress is None and not self._minted:
            self._n_reported += len(job_ids)
            return
        for job_id in job_ids:
            self._n_reported += 1
            future = self._minted.get(job_id)
            if future is not None:
                future._fire_callbacks()
            if self._progress is not None:
                label, method = self.plan.describe(job_id)
                entry = self.table[job_id]
                self._progress(
                    StreamProgress(
                        done=self._n_reported,
                        total=len(self.plan.original_ids),
                        job_id=job_id,
                        label=label,
                        result=None if entry is None else PriceResult.from_dict(
                            entry, label=label, method=method, job_id=job_id
                        ),
                        error=self.table.error_of(job_id),
                        cancelled=cancelled,
                    )
                )

    def _share(self, job_ids: Sequence[int]) -> tuple[int, ...]:
        """Put the rows of ``job_ids`` priced by this run into the run cache,
        settle each leader's repeats as it was settled; the repeats."""
        plan, table = self.plan, self.table
        assert plan.run_cache is not None
        rows = table.rows_of(job_ids)
        columns = table.columns
        for row in rows[(table.status[rows] == table.DONE) & ~table.cache_hit[rows]].tolist():
            plan.run_cache.put(plan.digests[int(table.ids[row])], columns.row(row))
        pairs = [(job_id, repeat) for job_id in job_ids for repeat in plan.repeats.get(job_id, ())]
        if not pairs:
            return ()
        leaders, repeats = zip(*pairs)
        table.copy_rows(leaders, repeats)
        return repeats

    def _awaited(self, job_id: int) -> bool:
        """Whether the dispatch unit ``job_id`` is still to be answered: its
        rows are written together, so its first member speaks for them."""
        members = self.plan.batch_members.get(job_id, (job_id,))
        table = self.table
        return bool(members) and table.status[table.row_of(members[0])] == table.PENDING

    def _resolve_completed(self, done: CompletedJob) -> None:
        table = self.table
        members = self.plan.batch_members.get(done.job_id)
        if members is None:
            members = (done.job_id,)
            if not table.write(done.job_id, done.result, done.error):
                return  # a dispatch unit is answered once
        elif not self._awaited(done.job_id):
            return
        elif isinstance(done.result, ResultColumns):
            try:
                table.scatter(done.result, members)
            except ClusterError as exc:
                table.mark(members, table.FAILED, f"ClusterError: {exc}")
        else:
            # the job failed as a whole, or ran on a timing-only backend: its
            # members share the job's error (or its absence of a result)
            error = done.error
            if error is None and done.result is not None:
                error = (
                    f"ClusterError: a {type(done.result).__name__} is not the "
                    f"ResultColumns reply of a job with members"
                )
            table.mark(members, table.NO_RESULT if error is None else table.FAILED, error)
        self._settled(members)

    # -- cancellation ------------------------------------------------------------
    def cancel_job(self, job_id: int) -> bool:
        """Withdraw one position not yet sent; its row is marked cancelled.

        A position that travels alone is taken off the master's queue.  A
        member of a book slice is left out of the slice while that is still
        queued (its bytes are made at its first dispatch), and the slice is
        withdrawn with its last member.  The position's repeats are cancelled
        with it.  ``False`` for anything a worker may already hold, for a
        member that cannot leave its job: one of a dispatched slice, of a
        :class:`~repro.pricing.batch.ProblemBatch`, or a cell of a
        scenario-grid slice, and for a repeat, which travels with its leader.
        """
        if self._stream is None:
            return False
        members_of = self.plan.batch_members
        if self._carriers is None:
            self._carriers = {
                member: job for job in self.plan.jobs
                for member in members_of.get(job.job_id, ())
            }
        carrier = self._carriers.get(job_id)
        if carrier is None:
            if not self._stream.cancel_job(job_id):
                return False
        elif self.plan.members_stand_alone and carrier.problem.leave_out(job_id):
            left = tuple(member for member in members_of[carrier.job_id] if member != job_id)
            members_of[carrier.job_id] = left
            if not left:
                self._stream.cancel_job(carrier.job_id)
        else:
            return False
        self.table.mark((job_id,), self.table.CANCELLED)
        if job_id in self.plan.repeats:
            self._settled(self._share((job_id,)), cancelled=True)
        return True

    def _apply_cancel_token(self) -> None:
        if self._cancel is None or not self._cancel.cancelled or self._stream is None:
            return
        for job in self._stream.cancel_pending():
            members = self.plan.batch_members.get(job.job_id, (job.job_id,))
            self.table.mark(members, self.table.CANCELLED)
            self._settled(members, cancelled=True)

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

        Under ``retry`` a :class:`~repro.errors.WorkerLostError` makes
        :meth:`_reattach` put the still-pending dispatch units back out on a
        fresh backend, so results of every attempt land in one table,
        bit-identical to a clean run.  The tries to build one are paced by
        :data:`~repro.cluster.backends.base.REDIAL_DELAYS_S`, which the whole
        campaign shares: once it is spent, the loss is raised.
        """
        delays = iter(REDIAL_DELAYS_S)
        while self._run_result is None:
            try:
                self.pump()
            except WorkerLostError:
                if not (self._retry and self._reattach(delays)):
                    raise
        return self._run_result

    def _reattach(self, delays: Iterator[float]) -> bool:
        """Stream the unresolved positions on a fresh backend, trying after
        each of the ``delays`` left until one can be dialed; whether one was."""
        assert self._new_backend is not None
        try:
            self._backend.finalize()
        # repro-lint: disable=except-swallow -- best-effort teardown of a pool that WorkerLostError already proved dead; any error here is noise on the retry path
        except Exception:
            pass  # the pool is already gone; nothing to release
        for delay in delays:
            time.sleep(delay)
            try:
                self._backend = self._new_backend()
                self._open_stream(
                    [job for job in self.plan.jobs if self._awaited(job.job_id)]
                )
            except ClusterError:
                continue  # the replacement pool is not up yet
            self._retries += 1
            return True
        return False

    def _assemble(self) -> RunResult:
        """Hand the table to the report; only run statistics come from the stream."""
        if self._run_result is not None:
            return self._run_result
        plan, dispatched, table = self.plan, self._dispatched, self.table
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
        pending = table.ids[table.status == table.PENDING]
        if len(pending):
            raise SchedulingError(f"job {int(pending[0])} was neither answered nor cancelled")
        report = replace(
            RunReport.from_outcome(outcome, dispatched, self._strategy.name),
            n_jobs=len(plan.original_ids),
            results=table,
            errors=table.errors(),
        )
        if plan.member_categories:
            report.category_times = self._member_category_times(outcome)
        if self._retries:
            report.extra["retries"] = self._retries
        self._run_result = RunResult(report=report, portfolio=plan.portfolio)
        return self._run_result

    def _member_category_times(self, outcome: ScheduleOutcome) -> dict[str, float]:
        """Compute time by the positions' own categories, for book slices.

        A slice is timed as a whole by its worker; that time is shared among
        the categories of the positions it answered in proportion to the
        ``elapsed`` their results carry (evenly where none carries any), so
        the breakdown sums to what the per-position route would report.
        """
        categories = self.plan.member_categories
        elapsed = np.nan_to_num(self.table.columns.elapsed)
        times: dict[str, float] = {}
        for done in outcome.completed:
            members = self.plan.batch_members[done.job_id]
            weights = elapsed[self.table.rows_of(members)]
            if not weights.sum() > 0.0:
                weights = np.ones_like(weights)
            shares = weights * (done.compute_time / weights.sum())
            for member, share in zip(members, shares.tolist()):
                category = categories[member]
                times[category] = times.get(category, 0.0) + share
        return times

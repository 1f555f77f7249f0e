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
from typing import Any, Callable, Mapping, Sequence

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
    campaign opens, and ``new_backend`` the pool that replaces a lost one:
    :meth:`pump` survives losing a whole pool of real workers.
    """

    def __init__(
        self,
        plan: CampaignPlan,
        backend: WorkerBackend,
        strategy: TransmissionStrategy,
        new_policy: Callable[[], DispatchPolicy],
        new_backend: Callable[[], WorkerBackend],
        *,
        futures: Mapping[int, PricingFuture] | None = None,
        progress: Callable[[StreamProgress], None] | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        self.plan = plan
        self._backend = backend
        self._strategy = strategy
        self._new_policy = new_policy
        self._new_backend = new_backend
        self._progress = progress
        self._cancel = cancel
        self._began = time.perf_counter()
        #: the waits before each try to rebuild a lost pool, for the whole campaign
        self._delays = iter(REDIAL_DELAYS_S)
        #: the streams of the pools lost so far, in the order they were lost
        self._lost: list[ScheduleStream] = []
        #: the loss of the pool being rebuilt, and the wait left before the
        #: next try to build one (``None`` once the schedule is spent)
        self._loss: WorkerLostError | None = None
        self._wait: float | None = None
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
        #: member id -> the job it travels in, built by the first cancel_job
        self._carriers: dict[int, Job] | None = None
        if plan.jobs:
            self._open_stream(plan.jobs)
        else:
            # every position was answered from the cache: finalize the
            # backend now instead of waiting for a result() that may never come
            self._assemble()

    def _open_stream(self, jobs: Sequence[Job]) -> None:
        self._stream = ScheduleStream(jobs, self._backend, self._strategy, self._new_policy())

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
        queued: the slice's bytes, made by the load pass, are made again at
        its dispatch (its book's bytes are kept), and the slice is withdrawn
        with its last member.  The position's repeats are cancelled with it.
        ``False`` for anything a worker may already hold, for a member that
        cannot leave its job: one of a dispatched slice, of a
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
        elif self.plan.members_stand_alone and self._stream.queued(carrier.job_id):
            carrier.problem.leave_out(job_id)
            carrier.forget_bytes()
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
        """Collect one event from the stream and resolve its futures.

        Every reader of the campaign collects through here, so here a lost
        pool is rebuilt (:meth:`_rebuild`), within ``timeout`` as the wait
        for an event is.
        """
        self._apply_cancel_token()
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._loss is not None:
            self._rebuild(deadline)
        elif not self.exhausted:
            assert self._stream is not None
            try:
                done = self._stream.collect_next(timeout)
            except CollectTimeoutError as exc:
                raise FutureTimeoutError(str(exc)) from exc
            except WorkerLostError as loss:
                # only the simulator, which advances a virtual clock, runs no
                # payload: its loss is the simulation's result
                if not self._backend.requires_payload:
                    raise
                self._lose(loss)
                self._rebuild(deadline)
            else:
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
        """Drain the stream and assemble the submission-ordered result."""
        while self._run_result is None:
            self.pump()
        return self._run_result

    def _lose(self, loss: WorkerLostError) -> None:
        """Close the stream of a pool just lost, keeping what it collected."""
        stream = self._stream
        assert stream is not None
        self._lost.append(stream)
        self._loss = loss
        self._wait = next(self._delays, None)
        collected = stream.close().completed
        if collected:
            # a loss met while refilling comes after the answer just collected
            self._resolve_completed(collected[-1])

    def _rebuild(self, deadline: float | None) -> None:
        """Put the dispatch units still pending after a lost pool back out on
        a new one, tried after each wait left of the campaign's
        :data:`~repro.cluster.backends.base.REDIAL_DELAYS_S` until one is up.

        Raises the loss once the schedule is spent, and
        :class:`~repro.errors.FutureTimeoutError` at ``deadline``, keeping
        the rest of the wait for the next call.
        """
        loss = self._loss
        assert loss is not None
        while True:
            if self._wait is None:
                raise loss
            if deadline is not None:
                left = max(0.0, deadline - time.monotonic())
                if self._wait > left:
                    time.sleep(left)
                    self._wait -= left
                    raise FutureTimeoutError(f"the lost pool is not rebuilt yet ({loss})")
            time.sleep(self._wait)
            backend = None
            try:
                backend = self._backend = self._new_backend()
                # a stream dispatches as it is built: the new pool may be lost here too
                self._open_stream([job for job in self.plan.jobs if self._awaited(job.job_id)])
            except ClusterError:
                if backend is not None:
                    backend.finalize()
                self._wait = next(self._delays, None)
                continue
            self._loss = None
            return

    def _assemble(self) -> RunResult:
        """Hand the table to the report; only run statistics come from the streams."""
        if self._run_result is not None:
            return self._run_result
        plan, table = self.plan, self.table
        if self._stream is None:
            outcome = ScheduleOutcome([], self._backend.finalize(), "cache")
        else:
            outcome = self._stream.finish()
            n_cancelled = len(self._stream.cancelled_jobs)
            if self._lost:
                # a lost stream's outcome was fixed when it was closed
                outcome = self._folded([*(lost.finish() for lost in self._lost), outcome])
                n_cancelled += sum(len(lost.cancelled_jobs) for lost in self._lost)
            if len(outcome.completed) + n_cancelled != len(plan.jobs):
                raise SchedulingError(
                    f"stream collected {len(outcome.completed)} results for "
                    f"{len(plan.jobs)} dispatched jobs ({n_cancelled} cancelled)"
                )
        pending = table.ids[table.status == table.PENDING]
        if len(pending):
            raise SchedulingError(f"job {int(pending[0])} was neither answered nor cancelled")
        report = replace(
            RunReport.from_outcome(outcome, plan.jobs, self._strategy.name),
            n_jobs=len(plan.original_ids),
            results=table,
            errors=table.errors(),
        )
        if plan.member_categories:
            report.category_times = self._member_category_times(outcome)
        if self._lost:
            report.extra["retries"] = len(self._lost)
        self._run_result = RunResult(report=report, portfolio=plan.portfolio)
        return self._run_result

    def _folded(self, outcomes: Sequence[ScheduleOutcome]) -> ScheduleOutcome:
        """One outcome for every pool the campaign ran on: the answers each
        collected, the work, bytes and counters each reported, and the wall
        clock from the campaign's start, the waits for a new pool included."""
        busy: dict[int, float] = {}
        peak: dict[int, int] = {}
        extra: dict[str, Any] = {}  # counters add up; the rest is the last pool's
        for outcome in outcomes:
            for worker_id, seconds in outcome.stats.worker_busy.items():
                busy[worker_id] = busy.get(worker_id, 0.0) + seconds
            for worker_id, held in outcome.peak_window.items():
                peak[worker_id] = max(peak.get(worker_id, 0), held)
            for key, value in outcome.stats.extra.items():
                extra[key] = extra[key] + value if isinstance(value, int) and key in extra else value
        stats = replace(
            outcomes[-1].stats, total_time=time.perf_counter() - self._began, worker_busy=busy,
            master_busy=sum(outcome.stats.master_busy for outcome in outcomes),
            bytes_sent=sum(outcome.stats.bytes_sent for outcome in outcomes), extra=extra,
        )
        completed = [done for outcome in outcomes for done in outcome.completed]
        return ScheduleOutcome(completed, stats, outcomes[-1].scheduler_name, peak_window=peak)

    def _member_category_times(self, outcome: ScheduleOutcome) -> dict[str, float]:
        """Compute time by the positions' own categories, for book slices.

        A slice is timed as a whole by its worker; that time is shared among
        the categories of the positions it answered in proportion to the
        ``elapsed`` their results carry (evenly where none carries any), so
        the breakdown sums to what the per-position route would report.
        """
        categories, table = self.plan.member_categories, self.table
        # a category's number, in first-appearance order: two C passes, no call a position
        number = dict(zip(dict.fromkeys(categories.values()), range(len(categories))))
        category_of = np.zeros(len(table), dtype=np.intp)
        category_of[table.rows_of(list(categories))] = list(
            map(number.__getitem__, categories.values()))
        elapsed = np.nan_to_num(table.columns.elapsed)
        times, answered = np.zeros(len(number)), np.zeros(len(number), dtype=np.bool_)
        for done in outcome.completed:
            rows = table.rows_of(self.plan.batch_members[done.job_id])
            weights = elapsed[rows]
            if not weights.sum() > 0.0:
                weights = np.ones_like(weights)
            shares = weights * (done.compute_time / weights.sum())
            times += np.bincount(category_of[rows], shares, minlength=len(number))
            answered[category_of[rows]] = True
        return {category: float(times[at]) for category, at in number.items() if answered[at]}

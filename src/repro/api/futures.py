"""First-class futures over the streaming master loop.

The paper's master collects results *incrementally* -- ``MPI_Probe`` on any
source, then ``MPI_Recv_Obj`` -- and this module is the user-facing surface
of that loop:

* :class:`PricingFuture` -- the deferred result of one submitted problem,
  with the ``concurrent.futures``-style surface (``done()``, ``result()``,
  ``exception()``, ``cancel()``, done-callbacks).  Reading one future pumps
  the master loop only until *that* job is collected -- never a full-batch
  gather;
* :class:`JobSet` -- an ordered collection of futures supporting
  :meth:`~JobSet.as_completed` iteration and :meth:`~JobSet.wait` with the
  usual ``return_when`` policies;
* :class:`StreamingRun` -- what :meth:`ValuationSession.stream` returns: an
  iterable of :class:`~repro.api.results.PriceResult` in completion order
  that still reassembles a deterministic, submission-ordered
  :class:`~repro.api.results.RunResult` at the end;
* :class:`CancelToken` -- cooperative cancellation, the ``cancel=`` keyword
  of a run, a stream or a risk campaign: queued jobs are withdrawn, in-flight
  jobs finish, the run result marks the withdrawn positions as cancelled.

The :class:`~repro.api.campaign.Campaign` underneath drives the stream and
keeps every position in one :class:`~repro.core.runner.ResultTable`; a future
is a view of one of its rows, minted for whoever asks for one.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.api.results import PriceResult
from repro.core.runner import ResultTable
from repro.errors import FutureTimeoutError, JobCancelledError, ValuationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.campaign import Campaign
    from repro.api.results import RunResult

__all__ = [
    "PricingFuture",
    "JobSet",
    "StreamingRun",
    "CancelToken",
    "StreamProgress",
    "ALL_COMPLETED",
    "FIRST_COMPLETED",
    "FIRST_EXCEPTION",
]

#: ``JobSet.wait`` policies (same spellings as :mod:`concurrent.futures`)
ALL_COMPLETED = "ALL_COMPLETED"
FIRST_COMPLETED = "FIRST_COMPLETED"
FIRST_EXCEPTION = "FIRST_EXCEPTION"


class CancelToken:
    """Cooperative cancellation flag shared between caller and run.

    Pass one as ``cancel=token`` to :meth:`ValuationSession.run`,
    :meth:`~ValuationSession.stream`, :meth:`~ValuationSession.greeks` or
    :meth:`~ValuationSession.risk`; calling :meth:`cancel` from a callback
    or another piece of the program withdraws every job still queued
    master-side.  Jobs already on a worker run to completion -- the paper's
    protocol has no way to interrupt a slave mid-computation.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"CancelToken(cancelled={self._cancelled})"


@dataclass(frozen=True)
class StreamProgress:
    """One progress tick, handed to a run's ``progress=`` callback per collection."""

    done: int
    total: int
    job_id: int
    label: str | None = None
    result: PriceResult | None = None
    error: str | None = None
    cancelled: bool = False


class PricingFuture:
    """Deferred result of one problem flowing through the streaming pipeline.

    A future holds no result: it is a view ``(campaign, job_id)`` of one row
    of the campaign's :class:`~repro.core.runner.ResultTable`, in one of
    three states:

    * *unsubmitted* -- queued by :meth:`ValuationSession.submit_many`;
      nothing executes until the first ``result()``/``wait`` pumps the
      session, which starts the campaign lazily;
    * *streaming* -- attached to a live campaign; reading the
      future collects results **only until this job answers**, leaving the
      rest of the batch in flight;
    * *resolved* -- its row is written (a cache hit, or collected).
    """

    __slots__ = (
        "job_id",
        "label",
        "method",
        "_campaign",
        "_starter",
        "_withdrawn",
        "_callbacks",
    )

    def __init__(
        self,
        job_id: int,
        label: str | None = None,
        method: str | None = None,
        starter: Callable[[], None] | None = None,
    ) -> None:
        self.job_id = job_id
        self.label = label
        self.method = method
        self._campaign: Campaign | None = None
        self._starter = starter
        #: cancelled before any campaign took the job (no row exists for it)
        self._withdrawn = False
        self._callbacks: list[Callable[["PricingFuture"], None]] = []

    # -- state inspection --------------------------------------------------------
    def _status(self) -> int:
        """The row's :class:`~repro.core.runner.ResultTable` status."""
        if self._campaign is None:
            return ResultTable.CANCELLED if self._withdrawn else ResultTable.PENDING
        table = self._campaign.table
        return int(table.status[table.row_of(self.job_id)])

    def done(self) -> bool:
        """Whether the future is resolved (successfully, failed or cancelled)."""
        return self._status() != ResultTable.PENDING

    def running(self) -> bool:
        """Whether the job was handed to a live backend and is unresolved."""
        return self._campaign is not None and not self.done()

    def cancelled(self) -> bool:
        return self._status() == ResultTable.CANCELLED

    def failed(self) -> bool:
        """Whether the job failed on the worker (or in transport)."""
        return self._status() == ResultTable.FAILED

    # -- cancellation ------------------------------------------------------------
    def cancel(self) -> bool:
        """Try to withdraw the job; ``False`` once it reached a worker.

        An unsubmitted future cancels unconditionally (it never built a job);
        a streaming one only while it is still queued master-side.
        """
        if self.cancelled():
            return True
        if self.done():
            return False
        if self._campaign is None:
            self._withdrawn = True
        elif not self._campaign.cancel_job(self.job_id):
            return False
        self._fire_callbacks()
        return True

    # -- resolution --------------------------------------------------------------
    def _ensure_pumpable(self) -> None:
        if self.done():
            return
        if self._campaign is None and self._starter is not None:
            # not cleared on failure: a failed campaign start (e.g. an
            # incomplete problem breaking job building) must be retryable
            # with the same root-cause exception
            self._starter()
        if self._campaign is not None:
            self._starter = None
        elif not self.done():
            raise ValuationError(
                f"future for job {self.job_id} is not attached to a run; "
                f"was its session discarded before gathering?"
            )

    def result(self, timeout: float | None = None) -> dict[str, Any] | None:
        """The worker's result dictionary (``None`` for timing-only backends).

        Pumps the master loop until *this* job is collected -- other jobs of
        the same campaign keep streaming in the background.  Raises
        :class:`~repro.errors.JobCancelledError` if the future was cancelled,
        :class:`~repro.errors.FutureTimeoutError` if no result arrived within
        ``timeout`` seconds (retryable), and :class:`ValuationError` if the
        job failed on the worker.
        """
        if not self.done():
            self._ensure_pumpable()
            if not self.done():
                assert self._campaign is not None
                self._campaign.pump_until(self, timeout)
        if self.cancelled():
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        assert self._campaign is not None
        if self.failed():
            raise ValuationError(
                f"job {self.job_id} failed: {self._campaign.table.error_of(self.job_id)}"
            )
        return self._campaign.table[self.job_id]

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The exception the job would raise from :meth:`result`, or ``None``."""
        try:
            self.result(timeout)
        except (JobCancelledError, ValuationError) as exc:
            if isinstance(exc, FutureTimeoutError):
                raise
            return exc
        return None

    def price(self) -> float:
        """Shortcut to the job's price; raises if the run was timing-only."""
        result = self.result()
        if result is None:
            raise ValuationError(
                f"job {self.job_id} returned no price (timing-only backend?)"
            )
        return result["price"]

    def error(self) -> str | None:
        """The worker-side error message, or ``None`` (resolves the future)."""
        try:
            self.result()
        except JobCancelledError:
            return "cancelled"
        except ValuationError:
            pass
        if self._campaign is None:
            return None
        return self._campaign.table.error_of(self.job_id)

    def price_result(self) -> PriceResult | None:
        """The resolved result as a :class:`PriceResult` (``None`` if priceless)."""
        entry = None if self._campaign is None else self._campaign.table[self.job_id]
        if entry is None:
            return None
        return PriceResult.from_dict(
            entry, label=self.label, method=self.method, job_id=self.job_id
        )

    # -- callbacks ---------------------------------------------------------------
    def add_done_callback(self, fn: Callable[["PricingFuture"], None]) -> None:
        """Call ``fn(future)`` when the future resolves (now, if it already has)."""
        if self.done():
            fn(self)
        else:
            self._callbacks.append(fn)

    def _fire_callbacks(self) -> None:
        """Run by whoever just settled this future's row (or withdrew it)."""
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        state = ("pending", "done", "done", "error", "cancelled")[self._status()]
        return f"PricingFuture(job_id={self.job_id}, label={self.label!r}, {state})"


class JobSet(Sequence):
    """An ordered, indexable collection of :class:`PricingFuture`.

    Supports everything a list of futures would, plus streaming iteration:
    :meth:`as_completed` yields futures in the order the cluster answers,
    :meth:`wait` blocks under the usual ``concurrent.futures`` policies.
    Duplicate submissions (deduplicated by problem digest) appear as the
    *same* future object at several positions.
    """

    def __init__(self, futures: Sequence[PricingFuture]) -> None:
        self._futures = list(futures)

    def __len__(self) -> int:
        return len(self._futures)

    def __getitem__(self, index: int | slice) -> PricingFuture | JobSet:  # type: ignore[override]
        if isinstance(index, slice):
            return JobSet(self._futures[index])
        return self._futures[index]

    def __iter__(self) -> Iterator[PricingFuture]:
        return iter(self._futures)

    @property
    def n_done(self) -> int:
        return sum(1 for future in self._unique() if future.done())

    def _unique(self) -> list[PricingFuture]:
        seen: set[int] = set()
        unique: list[PricingFuture] = []
        for future in self._futures:
            if id(future) not in seen:
                seen.add(id(future))
                unique.append(future)
        return unique

    def as_completed(self, timeout: float | None = None) -> Iterator[PricingFuture]:
        """Yield every future exactly once, in completion order.

        Futures that are already resolved (cache hits, earlier pumping) come
        first; the rest stream in as the master collects them.  ``timeout``
        bounds the *total* wait, raising
        :class:`~repro.errors.FutureTimeoutError` with the stragglers still
        pending (retryable).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        unique = self._unique()
        # whoever settles a pending future (a pump, a cancel) hands it over
        # through its callbacks: a pump costs what it settled, not a rescan
        settled: deque[PricingFuture] = deque()
        hook = settled.append
        for future in unique:
            if future.done():
                settled.append(future)
            else:
                future._callbacks.append(hook)
        yielded: set[int] = set()
        head = 0
        try:
            while len(yielded) < len(unique):
                if settled:
                    future = settled.popleft()
                    yielded.add(id(future))
                    yield future
                    continue
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise FutureTimeoutError(
                            f"{len(unique) - len(yielded)} job(s) still pending after {timeout}s"
                        )
                while id(unique[head]) in yielded:
                    head += 1
                future = unique[head]
                future._ensure_pumpable()
                if future._campaign is not None and not future.done():
                    future._campaign.pump(remaining)
        finally:
            for future in unique:
                if hook in future._callbacks:
                    future._callbacks.remove(hook)

    def wait(
        self,
        timeout: float | None = None,
        return_when: str = ALL_COMPLETED,
    ) -> tuple[list[PricingFuture], list[PricingFuture]]:
        """Block until the policy is met; return ``(done, not_done)`` lists."""
        if return_when not in (ALL_COMPLETED, FIRST_COMPLETED, FIRST_EXCEPTION):
            raise ValuationError(
                f"unknown return_when {return_when!r}; use ALL_COMPLETED, "
                f"FIRST_COMPLETED or FIRST_EXCEPTION"
            )
        unique = self._unique()
        try:
            for future in self.as_completed(timeout):
                if return_when == FIRST_COMPLETED or (
                    return_when == FIRST_EXCEPTION and (future.cancelled() or future.failed())
                ):
                    break
        except FutureTimeoutError:
            pass
        done_list = [future for future in unique if future.done()]
        return done_list, [future for future in unique if not future.done()]

    def cancel(self) -> int:
        """Cancel every future still cancellable; returns how many were."""
        return sum(1 for future in self._unique() if future.cancel())

    def results(self) -> list[dict[str, Any] | None]:
        """Every result in submission order (pumps to completion; may raise)."""
        return [future.result() for future in self._futures]

    def prices(self) -> list[float]:
        """Every price in submission order (pumps to completion; may raise)."""
        return [future.price() for future in self._futures]

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"JobSet({len(self._futures)} futures, {self.n_done} done)"


class StreamingRun:
    """A live streaming valuation, as returned by :meth:`ValuationSession.stream`.

    Iterating yields one :class:`~repro.api.results.PriceResult` per position
    **in completion order** (positions that failed or carry no price -- the
    simulated backend is timing-only -- are counted but not yielded).  After
    iteration, :meth:`result` returns the deterministic, submission-ordered
    :class:`~repro.api.results.RunResult`; calling :meth:`result` early
    simply drains the rest synchronously.
    """

    def __init__(self, campaign: Campaign) -> None:
        self._campaign = campaign
        self._jobs = campaign.jobs

    @property
    def jobs(self) -> JobSet:
        """The underlying futures, for ``as_completed``/``wait`` access."""
        return self._jobs

    @property
    def n_total(self) -> int:
        return len(self._jobs)

    @property
    def n_done(self) -> int:
        return self._jobs.n_done

    def __iter__(self) -> Iterator[PriceResult]:
        for future in self._jobs.as_completed():
            result = future.price_result()
            if result is not None:
                yield result

    def cancel(self) -> int:
        """Withdraw every position still queued master-side."""
        return self._jobs.cancel()

    def result(self) -> "RunResult":
        """Drain outstanding work and return the submission-ordered result."""
        return self._campaign.finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"StreamingRun({self.n_done}/{self.n_total} collected)"

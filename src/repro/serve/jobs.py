"""Thread-safe job table of the ``repro-serve`` daemon.

Every ``POST /v1/run`` becomes one :class:`JobRecord`: a queued portfolio
campaign with its own priority, cancel token and progress-event buffer.  The
record is the meeting point of three threads -- the HTTP handler that created
it, the single executor thread that runs it, and any number of SSE streamers
replaying its progress -- so all mutation goes through the record's condition
variable, and SSE followers block on :meth:`JobRecord.wait_event` instead of
polling.

States move ``queued -> running -> done | failed | cancelled`` (a queued job
may jump straight to ``cancelled``).  The futures layer maps directly onto
async request handling: the executor drives ``session.run`` with a progress
callback, each :class:`~repro.api.futures.StreamProgress` tick lands here as
one replayable event, and ``GET /v1/jobs/{id}`` is a snapshot of the record.
"""

from __future__ import annotations

import secrets
import threading
import time
from typing import TYPE_CHECKING, Any

from repro.api.futures import CancelToken, StreamProgress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.portfolio import Portfolio

__all__ = ["JobRecord", "JobTable", "JOB_STATES", "TERMINAL_STATES"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


def progress_event(tick: StreamProgress) -> dict[str, Any]:
    """The JSON shape of one StreamProgress tick on the SSE wire."""
    return {
        "done": tick.done,
        "total": tick.total,
        "job_id": tick.job_id,
        "label": tick.label,
        "price": tick.result.price if tick.result is not None else None,
        "error": tick.error,
        "cancelled": tick.cancelled,
    }


class JobRecord:
    """One submitted portfolio run and everything observable about it."""

    def __init__(
        self,
        job_id: str,
        portfolio: "Portfolio",
        *,
        priority: float = 0.0,
        priorities: dict[int, float] | None = None,
        batch: bool = False,
        max_events: int = 10_000,
    ):
        self.id = job_id
        self.portfolio = portfolio
        self.total = len(portfolio)
        self.priority = float(priority)
        #: per-position priorities (job index -> priority) for PriorityPolicy
        self.priorities = dict(priorities) if priorities else None
        self.batch = bool(batch)
        self.cancel = CancelToken()
        self.state = "queued"
        self.error: str | None = None
        self.result: dict[str, Any] | None = None
        self.created_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.n_done = 0
        self._events: list[dict[str, Any]] = []
        self._dropped_events = 0
        self._max_events = max_events
        self._cond = threading.Condition()

    # -- state transitions (executor / cancel endpoint) ---------------------------
    def mark_running(self) -> None:
        with self._cond:
            self.state = "running"
            self.started_at = time.time()
            self._cond.notify_all()

    def finish(self, result: dict[str, Any], *, cancelled: bool = False) -> None:
        with self._cond:
            self.result = result
            self.state = "cancelled" if cancelled else "done"
            self.finished_at = time.time()
            self._cond.notify_all()

    def fail(self, error: str) -> None:
        with self._cond:
            self.error = error
            self.state = "failed"
            self.finished_at = time.time()
            self._cond.notify_all()

    def mark_cancelled(self) -> None:
        """Cancellation of a job that never started (withdrawn while queued)."""
        with self._cond:
            if self.state == "queued":
                self.state = "cancelled"
                self.finished_at = time.time()
                self._cond.notify_all()

    # -- progress events (executor -> SSE streamers) ------------------------------
    def add_progress(self, tick: StreamProgress) -> None:
        event = progress_event(tick)
        with self._cond:
            self.n_done = max(self.n_done, tick.done)
            if len(self._events) >= self._max_events:
                # keep the newest ticks; SSE replay notes the gap
                del self._events[0]
                self._dropped_events += 1
            self._events.append(event)
            self._cond.notify_all()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def events_since(self, index: int) -> tuple[list[dict[str, Any]], int]:
        """Events not yet seen by a streamer holding cursor ``index``.

        Returns ``(events, next_index)``; a cursor older than the ring's
        oldest retained event skips the dropped span.
        """
        with self._cond:
            offset = max(index - self._dropped_events, 0)
            fresh = list(self._events[offset:])
            return fresh, self._dropped_events + len(self._events)

    def wait_event(self, index: int, timeout: float = 1.0) -> bool:
        """Block until an event past ``index`` exists or the job is terminal."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self.terminal or self._dropped_events + len(self._events) > index,
                timeout=timeout,
            )

    def wait_terminal(self, timeout: float | None = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self.terminal, timeout=timeout)

    # -- snapshots (GET /v1/jobs/{id}) ---------------------------------------------
    def snapshot(self, *, include_result: bool = True) -> dict[str, Any]:
        with self._cond:
            view: dict[str, Any] = {
                "job": self.id,
                "state": self.state,
                "priority": self.priority,
                "total": self.total,
                "done": self.n_done,
                "batch": self.batch,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "error": self.error,
            }
            if include_result:
                view["result"] = self.result
            return view


class JobTable:
    """Id-keyed registry of every job the daemon has seen."""

    def __init__(self, *, max_events_per_job: int = 10_000):
        self._lock = threading.Lock()
        self._records: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._seq = 0
        self._max_events = max_events_per_job

    def create(
        self,
        portfolio: "Portfolio",
        *,
        priority: float = 0.0,
        priorities: dict[int, float] | None = None,
        batch: bool = False,
    ) -> JobRecord:
        with self._lock:
            self._seq += 1
            job_id = f"{self._seq:06d}-{secrets.token_hex(4)}"
            record = JobRecord(
                job_id,
                portfolio,
                priority=priority,
                priorities=priorities,
                batch=batch,
                max_events=self._max_events,
            )
            self._records[job_id] = record
            self._order.append(job_id)
            return record

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def counts(self) -> dict[str, int]:
        """How many jobs sit in each state (every state always present)."""
        with self._lock:
            records = list(self._records.values())
        counts = {state: 0 for state in JOB_STATES}
        for record in records:
            counts[record.state] += 1
        return counts

    def recent(self, n: int = 20) -> list[dict[str, Any]]:
        """Snapshots of the ``n`` most recent jobs, newest first (no results)."""
        with self._lock:
            newest = [self._records[job_id] for job_id in self._order[-n:]]
        return [record.snapshot(include_result=False) for record in reversed(newest)]

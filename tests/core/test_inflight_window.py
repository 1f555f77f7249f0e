"""The per-worker in-flight window of :class:`ScheduleStream`.

A fake *executing* backend stands in for the worker pool: one FIFO queue per
worker, a clock the test owns (also handed to the scheduler, whose ``_clock``
is patched), compute times by job category and a fixed hand-off.  The
property test drives it through random completion interleavings and
cancellation points; the derivation tests replay it causally (the head job
that finishes first answers first) and read the window a run reached off
``ScheduleOutcome.peak_window``.
"""

from __future__ import annotations

import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ValuationSession
from repro.cluster.backends.base import (
    PAYLOAD_SERIAL,
    BackendStats,
    CompletedJob,
    Job,
    PreparedMessage,
    WorkerBackend,
)
from repro.core import scheduler
from repro.core.portfolio import build_toy_portfolio
from repro.core.runner import RunReport
from repro.core.scheduler import SCHEDULERS, DispatchPolicy, ScheduleStream

CAP = scheduler._WINDOW_CAP


class _NoPayload:
    """A transmission strategy for jobs that are never really sent."""

    name = "serialized_load"

    def prepare(self, job: Job) -> PreparedMessage:
        return PreparedMessage(kind=PAYLOAD_SERIAL, payload=None, nbytes=0)


class FakeWorkers(WorkerBackend):
    """Executing backend over per-worker FIFO queues and a clock it advances.

    A dispatched job reaches its worker half a hand-off later, runs for its
    category's compute time once the worker is free, and its answer reaches
    the master another half hand-off after that.  ``rng`` picks which busy
    worker answers next; without one the earliest answer wins (causal).
    """

    queues_jobs = True

    def __init__(self, n_workers, compute, handoff, rng=None):
        self._n_workers = n_workers
        self._compute = compute
        self._handoff = handoff
        self._rng = rng
        self.now = 0.0
        self._queues = [deque() for _ in range(n_workers)]  # (job, arrival)
        self._free_at = [0.0] * n_workers
        #: every backend call, in order: ("dispatch", worker, job id) / ("collect", job id)
        self.calls: list[tuple] = []
        #: (category, jobs the worker held once this one was queued) per dispatch
        self.depths: list[tuple[str, int]] = []
        self.answered: list[int] = []

    @property
    def n_workers(self):
        return self._n_workers

    def dispatch(self, worker_id, job, message):
        assert message is not None
        self._queues[worker_id].append((job, self.now + self._handoff / 2))
        self.calls.append(("dispatch", worker_id, job.job_id))
        self.depths.append((job.category, len(self._queues[worker_id])))

    def _answer_time(self, worker_id):
        job, arrival = self._queues[worker_id][0]
        return max(arrival, self._free_at[worker_id]) + self._compute[job.category]

    def collect(self, timeout=None):
        busy = [w for w in range(self._n_workers) if self._queues[w]]
        assert busy, "collect with nothing in flight"
        worker_id = self._rng.choice(busy) if self._rng else min(busy, key=self._answer_time)
        done_at = self._answer_time(worker_id)
        job, _ = self._queues[worker_id].popleft()
        self._free_at[worker_id] = done_at
        self.now = max(self.now, done_at + self._handoff / 2)
        self.calls.append(("collect", job.job_id))
        self.answered.append(job.job_id)
        return CompletedJob(job.job_id, worker_id, {"price": float(job.job_id)},
                            self._compute[job.category], self.now)

    def finalize(self):
        return BackendStats(self.now, len(self.answered), self._n_workers)


def _jobs(categories):
    return [
        Job(job_id=i, path="", file_size=1, compute_cost=1.0 + i % 3, category=category)
        for i, category in enumerate(categories)
    ]


def _drain(policy: DispatchPolicy, jobs, backend: FakeWorkers, cancels=()):
    """Run one stream to the end on the backend's clock, cancelling on the way.

    ``cancels`` maps a collection count to ``"pending"`` or a job id; a
    ``cancel_job`` succeeds exactly when the job is still queued master-side.
    """
    cancels = dict(cancels)
    with mock.patch.object(scheduler, "_clock", lambda: backend.now):
        stream = ScheduleStream(jobs, backend, _NoPayload(), policy)
        collected = 0
        while stream.remaining:
            target = cancels.pop(collected, None)
            if target == "pending":
                stream.cancel_pending()
            elif target is not None:
                sent = {call[2] for call in backend.calls if call[0] == "dispatch"}
                gone = sent | {job.job_id for job in stream.cancelled_jobs}
                assert stream.cancel_job(target) == (target < len(jobs) and target not in gone)
            if stream.remaining:
                stream.collect_next()
                collected += 1
        return stream, stream.finish()


def _fig4_calls(policy: DispatchPolicy, jobs, backend: FakeWorkers):
    """The master loop before it had a window: one ``refill`` per answer."""
    policy.plan(list(jobs), backend.n_workers)
    in_flight = 0

    def send(worker_id, wave):
        for job in wave:
            backend.dispatch(worker_id, job, PreparedMessage(PAYLOAD_SERIAL, None, 0))
        return len(wave)

    for worker_id, wave in policy.initial_wave():
        in_flight += send(worker_id, wave)
    while in_flight:
        done = backend.collect()
        in_flight += send(done.worker_id, policy.refill(done.worker_id) or []) - 1
    return backend.calls


# -- (a) the property ----------------------------------------------------------------

_POLICIES = ("robin_hood", "priority", "work_stealing", "static_block", "chunked_robin_hood")


def _policy(name: str) -> DispatchPolicy:
    if name == "priority":
        return SCHEDULERS[name](priority=lambda job: job.job_id % 5)
    return SCHEDULERS[name]()


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(_POLICIES),
    categories=st.lists(st.sampled_from(["cheap", "mid", "dear"]), min_size=1, max_size=120),
    n_workers=st.integers(1, 4),
    handoff=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
    seed=st.none() | st.integers(0, 2**32 - 1),
    cancels=st.dictionaries(
        st.integers(0, 80), st.one_of(st.just("pending"), st.integers(0, 119)), max_size=4
    ),
)
def test_every_job_is_answered_once_or_cancelled(
    name, categories, n_workers, handoff, seed, cancels
):
    compute = {"cheap": 1e-4, "mid": 2e-3, "dear": 8e-2}
    jobs = _jobs(categories)
    # a seed shuffles which busy worker answers next; without one the run is causal
    backend = FakeWorkers(n_workers, compute, handoff, rng=seed and random.Random(seed))
    stream, outcome = _drain(_policy(name), jobs, backend, cancels)

    cancelled = [job.job_id for job in stream.cancelled_jobs]
    answered = [done.job_id for done in outcome.completed]
    # exactly once, or reported cancelled -- and never both
    assert sorted(answered + cancelled) == [job.job_id for job in jobs]
    assert backend.answered == answered
    # assembly is in submission order whatever order the workers answered in
    report = RunReport.from_outcome(outcome, jobs, "serialized_load")
    assert list(report.results) == sorted(answered)
    assert report.peak_window == outcome.peak_window
    windowed = name in ("robin_hood", "priority", "work_stealing")
    if windowed:
        assert max(depth for _, depth in backend.depths) <= CAP
        assert max(outcome.peak_window.values()) <= CAP
    if not cancels and (not windowed or (handoff == 0.0 and seed is None)):
        # a closed window, and the policies that never have one, make today's
        # backend calls in today's order
        reference = FakeWorkers(n_workers, compute, handoff, rng=seed and random.Random(seed))
        assert backend.calls == _fig4_calls(_policy(name), jobs, reference)


# -- (b) the derivation --------------------------------------------------------------


def _peak(categories, compute, handoff, n_workers=2, name="robin_hood"):
    backend = FakeWorkers(n_workers, compute, handoff)
    _, outcome = _drain(_policy(name), _jobs(categories), backend)
    return outcome.peak_window, backend


@pytest.mark.parametrize("name", ["robin_hood", "priority", "work_stealing"])
def test_compute_near_the_handoff_opens_the_window(name):
    peak, _ = _peak(["cf"] * 200, {"cf": 1e-3}, handoff=1e-3, name=name)
    assert all(3 <= held <= CAP for held in peak.values())


def test_a_handoff_longer_than_the_cap_covers_stops_at_the_cap():
    peak, _ = _peak(["cf"] * 200, {"cf": 1e-4}, handoff=1e-2)
    assert peak == {0: CAP, 1: CAP}


def test_compute_fifty_times_the_handoff_stays_fig4():
    peak, backend = _peak(["pde"] * 60, {"pde": 5e-2}, handoff=1e-3)
    assert peak == {0: 1, 1: 1}
    reference = FakeWorkers(2, {"pde": 5e-2}, 1e-3)
    assert backend.calls == _fig4_calls(_policy("robin_hood"), _jobs(["pde"] * 60), reference)


def test_a_short_run_never_opens_a_window():
    # fewer answers than the stream wants solo round trips: today's behaviour
    peak, _ = _peak(["cf"] * (scheduler._HANDOFF_SAMPLES - 1), {"cf": 1e-3}, handoff=1e-3)
    assert peak == {0: 1, 1: 1}


def test_a_mixed_book_sizes_each_category_separately():
    compute = {"cf": 1e-3, "pde": 5e-2}
    peak, backend = _peak(["cf"] * 100 + ["pde"] * 40 + ["cf"] * 100, compute, handoff=1e-3)
    cheap = [depth for category, depth in backend.depths if category == "cf"]
    dear = [depth for category, depth in backend.depths if category == "pde"]
    assert max(cheap[:100]) >= 3 and max(cheap[100:]) >= 3
    # only the first dear job a worker pulls can land behind its cheap tail ...
    assert sum(depth > 1 for depth in dear) <= 2
    # ... and nothing is ever sent to a worker that holds a dear job
    held: list[set[int]] = [set(), set()]
    for call in backend.calls:
        if call[0] == "dispatch":
            assert not held[call[1]] & set(range(100, 140)), call
            held[call[1]].add(call[2])
        else:
            for queue in held:
                queue.discard(call[1])
    assert max(peak.values()) >= 3


def test_chunked_and_static_policies_ignore_the_timings():
    categories = ["cf"] * 64
    for name, expected in (("static_block", {0: 32, 1: 32}), ("chunked_robin_hood", {0: 16, 1: 12})):
        peak, backend = _peak(categories, {"cf": 1e-3}, handoff=1e-3, name=name)
        assert peak == expected
        reference = FakeWorkers(2, {"cf": 1e-3}, 1e-3)
        assert backend.calls == _fig4_calls(_policy(name), _jobs(categories), reference)


@pytest.mark.parametrize("backend", ["simulated", "local"])
def test_the_simulated_and_local_backends_keep_one_job_per_slave(backend):
    session = ValuationSession(backend=backend, n_workers=2)
    report = session.run(build_toy_portfolio(120)).report
    assert report.peak_window == {0: 1, 1: 1}

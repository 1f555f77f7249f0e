"""The scheduler x backend streaming matrix, pinned against golden outputs.

The streaming-first refactor collapsed three hand-rolled run-to-completion
loops onto one policy-driven :class:`~repro.core.scheduler.ScheduleStream`.
The acceptance bar is *bit-identical* behaviour:

* on the simulated backend, the virtual times (makespan, master busy time,
  per-worker busy times, per-event collection instants) of the robin-hood,
  static-block and chunked schedulers must match the **pre-refactor loops**,
  which this module keeps verbatim as reference implementations;
* on every executing backend (sequential, multiprocessing, remote TCP
  loopback), every registered scheduler must produce prices bit-identical
  to the sequential reference;
* mid-stream cancellation (``cancel_pending`` and the session-level
  :class:`~repro.api.futures.CancelToken`) must behave sanely for the
  chunked and static policies, not just robin hood.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.api import ValuationSession
from repro.cluster.simcluster import ClusterSpec, SimulatedClusterBackend
from repro.core.portfolio import build_toy_portfolio
from repro.core.scheduler import (
    SCHEDULERS,
    ChunkedPolicy,
    ScheduleStream,
    StaticBlockPolicy,
    WorkStealingPolicy,
)
from repro.core.strategies import get_strategy
from tests.scheduling import cut_chunks, run_policy
from repro.cluster.backends.base import Job

STRATEGY = get_strategy("serialized_load")

#: heterogeneous job mix: cheap head, expensive middle, cheap tail -- the
#: shape that separates static from dynamic scheduling
COSTS = [0.01] * 10 + [0.8, 1.2, 0.5] + [0.02] * 12


def _jobs(costs=COSTS):
    return [
        Job(job_id=i, path=f"/virtual/m{i}.pb", file_size=700, compute_cost=c,
            category="matrix")
        for i, c in enumerate(costs)
    ]


def _sim_backend(n_workers=4):
    return SimulatedClusterBackend(ClusterSpec.homogeneous(n_workers))


def _prepare(backend, strategy, job):
    if getattr(backend, "requires_payload", True):
        return strategy.prepare(job)
    return None


# ---------------------------------------------------------------------------
# The pre-refactor run-to-completion loops, kept verbatim as golden oracles.
# ---------------------------------------------------------------------------

def _legacy_robin_hood(jobs, backend, strategy):
    backend.on_run_start(len(jobs))
    queue = deque(jobs)
    in_flight = 0
    completed = []

    def dispatch(worker_id):
        nonlocal in_flight
        job = queue.popleft()
        backend.dispatch(worker_id, job, _prepare(backend, strategy, job))
        in_flight += 1

    for worker_id in range(min(backend.n_workers, len(queue))):
        dispatch(worker_id)
    while queue or in_flight:
        done = backend.collect()
        completed.append(done)
        in_flight -= 1
        if queue:
            dispatch(done.worker_id)
    for worker_id in range(backend.n_workers):
        backend.send_stop(worker_id)
    return completed, backend.finalize()


def _legacy_static_block(jobs, backend, strategy):
    backend.on_run_start(len(jobs))
    n_workers = backend.n_workers
    completed = []
    for index, job in enumerate(jobs):
        worker_id = min(index * n_workers // len(jobs), n_workers - 1)
        backend.dispatch(worker_id, job, _prepare(backend, strategy, job))
    for _ in range(len(jobs)):
        completed.append(backend.collect())
    for worker_id in range(n_workers):
        backend.send_stop(worker_id)
    return completed, backend.finalize()


def _legacy_chunked(jobs, backend, strategy):
    backend.on_run_start(len(jobs))
    completed = []
    queue = cut_chunks(jobs, backend.n_workers)
    outstanding = {}

    def dispatch_chunk(worker_id, chunk):
        batch = getattr(backend, "dispatch_batch", None)
        if batch is not None and getattr(backend, "requires_payload", True) is False:
            batch(worker_id, chunk, None)
        elif batch is not None:
            batch(worker_id, chunk, [_prepare(backend, strategy, j) for j in chunk])
        else:  # pragma: no cover - every backend has dispatch_batch now
            for job in chunk:
                backend.dispatch(worker_id, job, _prepare(backend, strategy, job))

    for worker_id in range(min(backend.n_workers, len(queue))):
        chunk = queue.pop(0)
        dispatch_chunk(worker_id, chunk)
        outstanding[worker_id] = outstanding.get(worker_id, 0) + len(chunk)
    remaining = sum(outstanding.values()) + sum(len(c) for c in queue)
    while remaining:
        done = backend.collect()
        completed.append(done)
        remaining -= 1
        outstanding[done.worker_id] -= 1
        if outstanding[done.worker_id] == 0 and queue:
            chunk = queue.pop(0)
            dispatch_chunk(done.worker_id, chunk)
            outstanding[done.worker_id] += len(chunk)
    for worker_id in range(backend.n_workers):
        backend.send_stop(worker_id)
    return completed, backend.finalize()


_LEGACY = {
    "robin_hood": lambda jobs, backend: _legacy_robin_hood(jobs, backend, STRATEGY),
    "static_block": lambda jobs, backend: _legacy_static_block(jobs, backend, STRATEGY),
    "chunked_robin_hood": lambda jobs, backend: _legacy_chunked(jobs, backend, STRATEGY),
}

_NEW = {
    "robin_hood": SCHEDULERS["robin_hood"],
    "static_block": StaticBlockPolicy,
    "chunked_robin_hood": ChunkedPolicy,
}


def _events(completed):
    return [
        (c.job_id, c.worker_id, c.collected_at, c.compute_time) for c in completed
    ]


class TestGoldenVirtualTimes:
    """ScheduleStream(...).finish() must not move a single virtual-time event."""

    @pytest.mark.parametrize("name", sorted(_LEGACY))
    @pytest.mark.parametrize("n_workers", [1, 3, 4, 7])
    def test_bit_identical_to_pre_refactor_loop(self, name, n_workers):
        jobs = _jobs()
        golden_completed, golden_stats = _LEGACY[name](jobs, _sim_backend(n_workers))

        outcome = run_policy(_NEW[name](), _jobs(), _sim_backend(n_workers), STRATEGY)
        assert _events(outcome.completed) == _events(golden_completed)
        assert outcome.stats.total_time == golden_stats.total_time
        assert outcome.stats.master_busy == golden_stats.master_busy
        assert outcome.stats.worker_busy == golden_stats.worker_busy
        assert outcome.stats.bytes_sent == golden_stats.bytes_sent

        streamed = ScheduleStream(_jobs(), _sim_backend(n_workers), STRATEGY, _NEW[name]())
        collected = list(streamed)  # one event at a time, interleaved refills
        finished = streamed.finish()
        assert _events(collected) == _events(golden_completed)
        assert finished.stats.total_time == golden_stats.total_time

    def test_chunked_outcome_reports_its_registered_name(self):
        outcome = run_policy(ChunkedPolicy(), _jobs(), _sim_backend(3), STRATEGY)
        assert outcome.scheduler_name == "chunked_robin_hood"


@pytest.fixture(scope="module")
def portfolio():
    return build_toy_portfolio(n_options=12)


@pytest.fixture(scope="module")
def reference_prices(portfolio):
    return ValuationSession(backend="local").run(portfolio).prices()


@pytest.fixture(scope="module")
def worker_pool():
    from repro.cluster.worker import spawn_local_workers

    with spawn_local_workers(2) as pool:
        yield pool


def _session(backend, pool, scheduler):
    if backend == "remote":
        return ValuationSession(
            backend="remote",
            backend_options={"hosts": pool.hosts},
            scheduler=scheduler,
        )
    return ValuationSession(backend=backend, n_workers=2, scheduler=scheduler)


class TestSchedulerBackendMatrix:
    """Every registered scheduler streams on every backend, same prices."""

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize(
        "backend", ["local", "multiprocessing", "simulated", "remote"]
    )
    def test_stream_finish_matches_reference(
        self, scheduler, backend, portfolio, reference_prices, worker_pool
    ):
        session = _session(backend, worker_pool, scheduler)
        streamed = session.stream(portfolio)
        result = streamed.result()
        assert result.report.scheduler == scheduler
        assert list(result.report.results) == list(range(len(portfolio)))
        if backend == "simulated":  # timing-only: no prices to compare
            assert result.total_time > 0
        else:
            assert result.prices() == reference_prices  # bit-identical
        assert not result.report.errors

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_run_equals_stream_finish_on_simulated_virtual_time(self, scheduler):
        run_outcome = run_policy(SCHEDULERS[scheduler](), _jobs(), _sim_backend(4), STRATEGY)
        stream = ScheduleStream(_jobs(), _sim_backend(4), STRATEGY, SCHEDULERS[scheduler]())
        assert len(list(stream)) == len(COSTS)  # one event at a time
        stream_outcome = stream.finish()
        assert stream_outcome.stats.total_time == run_outcome.stats.total_time
        assert _events(stream_outcome.completed) == _events(run_outcome.completed)


class TestWorkStealing:
    def test_completes_every_job_once(self):
        outcome = run_policy(WorkStealingPolicy(), _jobs(), _sim_backend(4), STRATEGY)
        assert sorted(c.job_id for c in outcome.completed) == list(range(len(COSTS)))

    def test_beats_static_on_skewed_blocks(self):
        # one contiguous block is far heavier than the others: the static
        # owner becomes the critical path; stealing drains its tail
        costs = [0.01] * 30 + [1.0] * 10
        static = run_policy(StaticBlockPolicy(), _jobs(costs), _sim_backend(4), STRATEGY)
        stealing = run_policy(WorkStealingPolicy(), _jobs(costs), _sim_backend(4), STRATEGY)
        assert stealing.total_time < static.total_time

    def test_idle_workers_steal_in_the_initial_wave(self):
        # more workers than jobs: workers without a block of their own must
        # still receive work immediately
        outcome = run_policy(WorkStealingPolicy(), _jobs([0.5, 0.5]), _sim_backend(6), STRATEGY)
        assert len(outcome.completed) == 2


class TestMidStreamCancellation:
    @pytest.mark.parametrize("scheduler_name", ["chunked_robin_hood", "work_stealing"])
    def test_cancel_pending_mid_stream(self, scheduler_name):
        policy = SCHEDULERS[scheduler_name]()
        jobs = _jobs([0.1] * 20)
        stream = ScheduleStream(jobs, _sim_backend(2), STRATEGY, policy)
        stream.collect_next()
        dropped = stream.cancel_pending()
        assert dropped  # something was still queued master-side
        outcome = stream.finish()
        assert len(outcome.completed) + len(stream.cancelled_jobs) == 20
        collected = {c.job_id for c in outcome.completed}
        assert collected.isdisjoint({j.job_id for j in dropped})

    def test_static_block_has_nothing_to_cancel(self):
        # the static policy dispatches everything in the initial wave, so a
        # mid-stream cancel finds nothing queued and the run still completes
        stream = ScheduleStream(
            _jobs([0.1] * 8), _sim_backend(2), STRATEGY, StaticBlockPolicy()
        )
        stream.collect_next()
        assert stream.cancel_pending() == []
        assert len(stream.finish().completed) == 8

    def test_cancel_job_withdraws_only_queued_chunk_members(self):
        jobs = _jobs([0.25] * 12)
        stream = ScheduleStream(jobs, _sim_backend(2), STRATEGY, ChunkedPolicy())
        # jobs 0..4 went out in the initial two chunks (a quarter of the
        # book, then a quarter of the rest); the others are queued
        assert stream.cancel_job(4) is False
        assert stream.cancel_job(0) is False
        assert stream.cancel_job(11) is True
        outcome = stream.finish()
        assert len(outcome.completed) == 11
        assert [j.job_id for j in stream.cancelled_jobs] == [11]

    @pytest.mark.parametrize("scheduler_name", ["static_block", "chunked_robin_hood"])
    def test_cancel_token_through_the_session(self, scheduler_name, portfolio):
        from repro.api.futures import CancelToken

        token = CancelToken()
        seen = []

        def progress(tick):
            seen.append(tick.job_id)
            if len(seen) == 3:
                token.cancel()

        session = ValuationSession(backend="local", n_workers=2, scheduler=scheduler_name)
        result = session.run(portfolio, progress=progress, cancel=token)
        cancelled = [
            job_id
            for job_id, message in result.report.errors.items()
            if "cancelled" in message
        ]
        if scheduler_name == "static_block":
            # everything was already dispatched: nothing could be withdrawn
            assert cancelled == []
            assert len(result.prices()) == len(portfolio)
        else:
            assert cancelled  # still-queued chunks were withdrawn
            assert len(result.prices()) + len(cancelled) == len(portfolio)


class TestChunkedPolicyOnWorkerProcesses:
    """The chunked policy over a process boundary prices what ``local`` does
    (the book travels in the default's slices: ``tests/api/test_book_plan.py``)."""

    def test_multiprocessing_prices_match_local(self, portfolio, reference_prices):
        session = ValuationSession(
            backend="multiprocessing",
            n_workers=2,
            scheduler=ChunkedPolicy,
        )
        assert session.run(portfolio).prices() == reference_prices

    def test_remote_prices_match_local(self, portfolio, reference_prices, worker_pool):
        session = ValuationSession(
            backend="remote",
            backend_options={"hosts": worker_pool.hosts},
            scheduler=ChunkedPolicy,
        )
        assert session.run(portfolio).prices() == reference_prices

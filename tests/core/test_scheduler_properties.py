"""Property-based invariants of the schedulers on the simulated cluster.

Whatever the job mix and the cluster size, a correct master/worker schedule
must satisfy a handful of invariants: every job runs exactly once, the
makespan is bounded below by both the ideal work/worker bound and the longest
single job, it is bounded above by the sequential time plus overheads, and it
never increases when workers are added (for the dynamic scheduler with a
deterministic dispatch order of identical cost structure).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.backends.base import Job
from repro.cluster.simcluster import ClusterSpec, SimulatedClusterBackend
from repro.core.scheduler import (
    _FACTORING,
    ChunkedPolicy,
    RobinHoodPolicy,
    StaticBlockPolicy,
)
from repro.core.strategies import get_strategy
from tests.scheduling import run_policy

STRATEGY = get_strategy("serialized_load")

_costs = st.lists(
    st.floats(min_value=1e-4, max_value=2.0), min_size=1, max_size=60
)
_workers = st.integers(min_value=1, max_value=16)


def _jobs(costs):
    return [
        Job(job_id=i, path=f"/virtual/p{i}.pb", file_size=400, compute_cost=c)
        for i, c in enumerate(costs)
    ]


def _run(policy, costs, n_workers):
    backend = SimulatedClusterBackend(ClusterSpec.homogeneous(n_workers))
    return run_policy(policy, _jobs(costs), backend, STRATEGY)


@settings(max_examples=60, deadline=None)
@given(costs=_costs, n_workers=_workers)
def test_robin_hood_completes_every_job_exactly_once(costs, n_workers):
    outcome = _run(RobinHoodPolicy(), costs, n_workers)
    assert sorted(c.job_id for c in outcome.completed) == list(range(len(costs)))


@settings(max_examples=60, deadline=None)
@given(costs=_costs, n_workers=_workers)
def test_makespan_lower_bounds(costs, n_workers):
    outcome = _run(RobinHoodPolicy(), costs, n_workers)
    ideal = sum(costs) / n_workers
    longest = max(costs)
    assert outcome.total_time >= longest
    assert outcome.total_time >= ideal


@settings(max_examples=60, deadline=None)
@given(costs=_costs, n_workers=_workers)
def test_makespan_upper_bound_is_sequential_time_plus_overheads(costs, n_workers):
    outcome = _run(RobinHoodPolicy(), costs, n_workers)
    # generous per-job overhead allowance for communication costs
    assert outcome.total_time <= sum(costs) + 0.01 * len(costs) + 0.1


@settings(max_examples=40, deadline=None)
@given(costs=_costs)
def test_more_workers_never_hurt_robin_hood(costs):
    few = _run(RobinHoodPolicy(), costs, 2).total_time
    many = _run(RobinHoodPolicy(), costs, 8).total_time
    # allow a tiny tolerance for the extra stop messages sent to idle workers
    assert many <= few * 1.01 + 1e-3


@settings(max_examples=40, deadline=None)
@given(costs=_costs, n_workers=_workers)
def test_robin_hood_within_graham_bound_of_static_blocks(costs, n_workers):
    """Greedy dispatch obeys Graham's list-scheduling bound vs any schedule.

    Dynamic balancing is NOT always faster than static partitioning (e.g.
    costs [0.5, 0.5, 1.0] on 2 workers: static isolates the expensive job
    and finishes in 1.0, greedy dispatch finishes in 1.5), but it can never
    exceed ``(2 - 1/m) * OPT`` and the static makespan is an upper bound of
    OPT, so ``dynamic <= (2 - 1/m) * static`` up to communication overheads.
    """
    dynamic = _run(RobinHoodPolicy(), costs, n_workers).total_time
    static = _run(StaticBlockPolicy(), costs, n_workers).total_time
    assert dynamic <= static * (2.0 - 1.0 / n_workers) + 0.01 * len(costs) + 1e-3


@settings(max_examples=40, deadline=None)
@given(costs=_costs, n_workers=_workers)
def test_chunked_scheduler_completes_everything(costs, n_workers):
    outcome = _run(ChunkedPolicy(), costs, n_workers)
    assert sorted(c.job_id for c in outcome.completed) == list(range(len(costs)))
    assert outcome.total_time >= max(costs)


#: books the chunked policy cannot weigh: one bad estimate and it cuts by count
_unweighable_costs = st.lists(
    st.one_of(
        st.floats(min_value=1e-4, max_value=2.0),
        st.sampled_from([0.0, -1.0, math.nan, math.inf]),
    ),
    min_size=1,
    max_size=60,
).filter(lambda costs: not all(math.isfinite(c) and c > 0 for c in costs))


@settings(max_examples=150, deadline=None)
@given(
    costs=_costs | _unweighable_costs,
    n_workers=_workers,
    withdrawals=st.lists(st.integers(min_value=0, max_value=70), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_derived_chunks_respect_the_cap_and_the_queue_accounting(
    costs, n_workers, withdrawals, seed
):
    """Drive :class:`ChunkedPolicy` like the stream does, in a random answer
    order with ``withdraw`` calls in between, recounting the queue outside it."""
    jobs = _jobs(costs)
    by_count = not all(math.isfinite(c) and c > 0 for c in costs)
    weights = {job.job_id: 1.0 if by_count else job.compute_cost for job in jobs}
    queued = set(weights)  # neither dispatched nor withdrawn yet
    dispatched: list[int] = []
    held: dict[int, int] = {}  # worker -> jobs of its chunk not answered yet
    rng = random.Random(seed)
    policy = ChunkedPolicy()
    policy.plan(jobs, n_workers)

    def queued_cost():
        return sum(weights[job_id] for job_id in sorted(queued))

    def check_accounting():
        assert policy.n_queued == len(queued)
        assert policy._queued_cost == pytest.approx(queued_cost(), rel=1e-9, abs=1e-9)

    def take(worker_id, wave, cap):
        assert wave, "a chunk always holds at least one job"
        ids = [job.job_id for job in wave]
        assert queued.issuperset(ids)  # dispatched at most once, never after a withdraw
        if len(ids) > 1:
            assert sum(weights[job_id] for job_id in ids) <= cap * (1 + 1e-9) + 1e-12
        queued.difference_update(ids)
        dispatched.extend(ids)
        held[worker_id] = len(ids)
        check_accounting()

    wave_iter = policy.initial_wave()
    while True:
        cap = queued_cost() / (_FACTORING * n_workers)  # in force for the next cut
        try:
            worker_id, wave = next(wave_iter)
        except StopIteration:
            break
        take(worker_id, wave, cap)
    if by_count:
        # the first chunk is its share of the book *by count*
        assert dispatched[: held[0]] == list(range(max(1, len(jobs) // (_FACTORING * n_workers))))

    while held:
        if withdrawals and rng.random() < 0.5:
            job_id = withdrawals.pop()
            withdrawn = policy.withdraw(job_id)
            assert (withdrawn is not None) == (job_id in queued)
            queued.discard(job_id)
            check_accounting()
        worker_id = rng.choice(sorted(held))
        held[worker_id] -= 1
        if not held[worker_id]:
            del held[worker_id]
        cap = queued_cost() / (_FACTORING * n_workers)
        wave = policy.refill(worker_id)
        if wave:
            assert worker_id not in held  # only a drained worker is refilled
            take(worker_id, wave, cap)
    # every job left the queue exactly once: to a worker, or withdrawn
    assert not queued and policy.n_queued == 0
    assert len(dispatched) == len(set(dispatched))
    assert policy.withdraw_all() == [] and policy._queued_cost == 0.0


@settings(max_examples=40, deadline=None)
@given(costs=_costs, n_workers=_workers)
def test_worker_busy_time_conservation(costs, n_workers):
    """The total busy time of the workers equals the compute work plus the
    per-job worker-side preparation (no work is lost or double counted)."""
    backend = SimulatedClusterBackend(ClusterSpec.homogeneous(n_workers))
    outcome = run_policy(RobinHoodPolicy(), _jobs(costs), backend, STRATEGY)
    busy = sum(outcome.stats.worker_busy.values())
    assert busy >= sum(costs) - 1e-9
    assert busy <= sum(costs) + 0.01 * len(costs)

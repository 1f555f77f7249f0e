"""Tests of the load-balancing schedulers."""

from __future__ import annotations

import pytest

from benchmarks.bench_scheduler_ablation import (
    FULL_CHEAP,
    FULL_EXPENSIVE,
    FULL_WORKERS,
    build_skewed_jobs,
)
from repro.cluster.backends.base import Job
from repro.cluster.costmodel import paper_cost_model
from repro.cluster.simcluster import ClusterSpec, SimulatedClusterBackend
from repro.core.portfolio import build_realistic_portfolio, build_toy_portfolio
from repro.core.scheduler import (
    SCHEDULERS,
    ChunkedPolicy,
    DispatchPolicy,
    PriorityPolicy,
    RobinHoodPolicy,
    StaticBlockPolicy,
    simulate_hierarchical,
)
from repro.core.strategies import get_strategy
from repro.errors import SchedulingError
from tests.scheduling import cut_chunks, run_policy


def _jobs(costs):
    return [
        Job(job_id=i, path=f"/virtual/p{i}.pb", file_size=600, compute_cost=c,
            category="test")
        for i, c in enumerate(costs)
    ]


def _backend(n_workers, strategy="serialized_load", speeds=None):
    spec = (
        ClusterSpec.heterogeneous(speeds) if speeds else ClusterSpec.homogeneous(n_workers)
    )
    return SimulatedClusterBackend(spec, strategy=strategy)


STRATEGY = get_strategy("serialized_load")


class TestRobinHood:
    def test_all_jobs_completed_once(self):
        jobs = _jobs([0.1] * 25)
        outcome = run_policy(RobinHoodPolicy(), jobs, _backend(4), STRATEGY)
        assert sorted(c.job_id for c in outcome.completed) == list(range(25))
        assert outcome.total_time > 0
        assert outcome.scheduler_name == "robin_hood"
        assert not outcome.errors

    def test_fewer_jobs_than_workers(self):
        jobs = _jobs([0.1, 0.2])
        outcome = run_policy(RobinHoodPolicy(), jobs, _backend(8), STRATEGY)
        assert len(outcome.completed) == 2

    def test_single_worker(self):
        jobs = _jobs([0.1] * 5)
        outcome = run_policy(RobinHoodPolicy(), jobs, _backend(1), STRATEGY)
        assert len(outcome.completed) == 5
        assert outcome.total_time >= 0.5

    def test_dynamic_balancing_beats_static_on_heterogeneous_work(self):
        """Robin Hood adapts to the heavy tail; static blocks do not."""
        # a workload where one contiguous block is much heavier than the others
        costs = [0.01] * 60 + [1.0] * 20
        jobs = _jobs(costs)
        robin = run_policy(RobinHoodPolicy(), jobs, _backend(4), STRATEGY).total_time
        static = run_policy(StaticBlockPolicy(), jobs, _backend(4), STRATEGY).total_time
        assert robin < static

    def test_heterogeneous_workers_fast_one_does_more(self):
        jobs = _jobs([0.2] * 30)
        backend = _backend(None, speeds=[4.0, 1.0])
        outcome = run_policy(RobinHoodPolicy(), jobs, backend, STRATEGY)
        per_worker = {}
        for completed in outcome.completed:
            per_worker[completed.worker_id] = per_worker.get(completed.worker_id, 0) + 1
        assert per_worker[0] > per_worker[1]

    def test_empty_job_list_rejected(self):
        with pytest.raises(SchedulingError):
            run_policy(RobinHoodPolicy(), [], _backend(2), STRATEGY)

    def test_duplicate_job_ids_rejected(self):
        jobs = _jobs([0.1, 0.1])
        jobs[1].job_id = jobs[0].job_id
        with pytest.raises(SchedulingError):
            run_policy(RobinHoodPolicy(), jobs, _backend(2), STRATEGY)


class TestStaticBlock:
    def test_all_jobs_completed(self):
        jobs = _jobs([0.05] * 17)
        outcome = run_policy(StaticBlockPolicy(), jobs, _backend(4), STRATEGY)
        assert sorted(c.job_id for c in outcome.completed) == list(range(17))
        assert outcome.scheduler_name == "static_block"

    def test_matches_robin_hood_on_homogeneous_work(self):
        """With identical jobs the two schedulers should be comparable."""
        jobs = _jobs([0.25] * 32)
        robin = run_policy(RobinHoodPolicy(), jobs, _backend(4), STRATEGY).total_time
        static = run_policy(StaticBlockPolicy(), jobs, _backend(4), STRATEGY).total_time
        assert static == pytest.approx(robin, rel=0.15)


class TestChunkedRobinHood:
    def test_all_jobs_completed(self):
        jobs = _jobs([0.01] * 53)
        outcome = run_policy(ChunkedPolicy(), jobs, _backend(4), STRATEGY)
        assert sorted(c.job_id for c in outcome.completed) == list(range(53))
        assert outcome.scheduler_name == "chunked_robin_hood"

    def test_batching_reduces_makespan_for_cheap_jobs(self):
        """The conclusion's first improvement: fewer, larger messages."""
        jobs = _jobs([1e-4] * 1000)
        nfs = get_strategy("nfs")
        single = run_policy(RobinHoodPolicy(), jobs, _backend(8, strategy="nfs"), nfs)
        chunked = run_policy(ChunkedPolicy(), jobs, _backend(8, strategy="nfs"), nfs)
        assert chunked.total_time < single.total_time

    def test_fewer_jobs_than_the_cap_allows_is_robin_hood(self):
        # 3 workers, 6 equal jobs: the cap (a sixth of the book) is one
        # job, so every chunk is a single job and the run is Fig. 4's
        jobs = _jobs([0.02] * 6)
        plain = run_policy(RobinHoodPolicy(), jobs, _backend(3), STRATEGY).total_time
        chunked = run_policy(ChunkedPolicy(), jobs, _backend(3), STRATEGY).total_time
        assert chunked == plain

    def test_takes_no_argument(self):
        # the chunk size is cut from the book; there is nothing to set
        with pytest.raises(TypeError):
            ChunkedPolicy(chunk_size=8)
        with pytest.raises(TypeError):
            ChunkedPolicy(8)
        assert not hasattr(DispatchPolicy, "chunked")

    def test_chunks_shrink_as_the_queue_drains(self):
        sizes = [len(chunk) for chunk in cut_chunks(_jobs([0.25] * 400), 4)]
        assert sum(sizes) == 400
        assert sizes[0] == 50  # an eighth of the book: 1 / (_FACTORING * 4)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 1

    # derived chunks against per-job Robin Hood on the ablation's own books
    # (benchmarks/bench_scheduler_ablation.py commits the same ratios)
    def test_skewed_book_stays_within_a_tenth_of_robin_hood(self):
        jobs = build_skewed_jobs(FULL_CHEAP, FULL_EXPENSIVE)
        assert _over_robin_hood(jobs, FULL_WORKERS) <= 1.10

    def test_expensive_tail_ordering_stays_bounded(self):
        # the hostile order for any chunking: large early chunks of cheap
        # jobs, the expensive band last (a fixed chunk of 8 reads 3.7)
        jobs = build_skewed_jobs(FULL_CHEAP, FULL_EXPENSIVE)
        costs = sorted(job.compute_cost for job in jobs)
        assert _over_robin_hood(_jobs(costs), FULL_WORKERS) <= 1.5

    def test_realistic_book_stays_within_a_twentieth_of_robin_hood(self):
        jobs = build_realistic_portfolio(profile="paper", scale=0.25).build_jobs(
            cost_model=paper_cost_model()
        )
        assert _over_robin_hood(jobs, 64) <= 1.05

    def test_cheap_book_beats_robin_hood(self):
        jobs = build_toy_portfolio(n_options=5_000).build_jobs(
            cost_model=paper_cost_model()
        )
        assert _over_robin_hood(jobs, 32) <= 0.85


def _over_robin_hood(jobs, n_workers):
    """Makespan of the derived chunks over per-job Robin Hood's."""
    chunked = run_policy(ChunkedPolicy(), jobs, _backend(n_workers), STRATEGY)
    robin = run_policy(RobinHoodPolicy(), jobs, _backend(n_workers), STRATEGY)
    assert len(chunked.completed) == len(jobs)
    return chunked.total_time / robin.total_time


class TestHierarchical:
    def test_returns_group_breakdown(self):
        jobs = _jobs([0.05] * 120)
        result = simulate_hierarchical(jobs, n_workers=12, n_groups=3)
        assert result["n_groups"] == 3
        assert len(result["group_times"]) == 3
        assert result["total_time"] >= max(result["group_times"])
        assert result["master_dealing_time"] > 0

    def test_sub_masters_help_cheap_workloads(self):
        """The conclusion's second improvement: with very cheap jobs a single
        master is the bottleneck, sub-masters distribute that load."""
        jobs = _jobs([1e-4] * 3000)
        flat_backend = _backend(32)
        flat = run_policy(RobinHoodPolicy(), jobs, flat_backend, STRATEGY).total_time
        hierarchical = simulate_hierarchical(jobs, n_workers=32, n_groups=4)["total_time"]
        assert hierarchical < flat

    def test_validation(self):
        jobs = _jobs([0.1] * 10)
        with pytest.raises(SchedulingError):
            simulate_hierarchical(jobs, n_workers=4, n_groups=0)
        with pytest.raises(SchedulingError):
            simulate_hierarchical(jobs, n_workers=2, n_groups=4)
        with pytest.raises(SchedulingError):
            simulate_hierarchical([], n_workers=4, n_groups=2)


class TestPriority:
    def test_all_jobs_completed(self):
        jobs = _jobs([0.1] * 20)
        outcome = run_policy(PriorityPolicy(), jobs, _backend(4), STRATEGY)
        assert sorted(c.job_id for c in outcome.completed) == list(range(20))
        assert outcome.scheduler_name == "priority"

    def test_equal_priorities_match_robin_hood(self):
        jobs = _jobs([0.05 * (i % 5 + 1) for i in range(30)])
        robin = run_policy(RobinHoodPolicy(), jobs, _backend(3), STRATEGY)
        priority = run_policy(PriorityPolicy(), jobs, _backend(3), STRATEGY)
        # no priorities at all means the policy *is* Robin Hood: identical
        # dispatch order, bit-identical simulated virtual time
        assert [c.job_id for c in priority.completed] == [
            c.job_id for c in robin.completed
        ]
        assert priority.total_time == robin.total_time

    def test_high_priority_jobs_run_first(self):
        jobs = _jobs([0.1] * 12)
        urgent = {9, 10, 11}
        policy = PriorityPolicy(priority={job_id: 1.0 for job_id in urgent})
        outcome = run_policy(policy, jobs, _backend(1), STRATEGY)
        assert [c.job_id for c in outcome.completed[:3]] == sorted(urgent)
        # ties keep submission order behind the urgent ones
        assert [c.job_id for c in outcome.completed[3:]] == list(range(9))

    def test_callable_priority(self):
        jobs = _jobs([0.1] * 8)
        policy = PriorityPolicy(priority=lambda job: job.job_id)
        outcome = run_policy(policy, jobs, _backend(1), STRATEGY)
        assert [c.job_id for c in outcome.completed] == list(range(7, -1, -1))

    def test_invalid_priority_rejected(self):
        with pytest.raises(SchedulingError):
            PriorityPolicy(priority=42)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_priority_rejected(self, bad):
        # NaN compares false both ways: {0: nan, 3: 2.0} used to dispatch
        # job 0 *before* job 3
        jobs = _jobs([0.1] * 5)
        with pytest.raises(SchedulingError, match="non-finite priority"):
            run_policy(PriorityPolicy(priority={0: bad, 3: 2.0}), jobs, _backend(1), STRATEGY)
        with pytest.raises(SchedulingError, match="non-finite priority"):
            run_policy(PriorityPolicy(default=bad), jobs, _backend(1), STRATEGY)


def test_scheduler_registry():
    assert set(SCHEDULERS) == {
        "robin_hood",
        "static_block",
        "chunked_robin_hood",
        "work_stealing",
        "priority",
    }
    # the registry holds policy factories, registered under the policy's name
    for name, factory in SCHEDULERS.items():
        policy = factory()
        assert isinstance(policy, DispatchPolicy)
        assert policy.name == name

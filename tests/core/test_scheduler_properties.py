"""Property-based invariants of the schedulers on the simulated cluster.

Whatever the job mix and the cluster size, a correct master/worker schedule
must satisfy a handful of invariants: every job runs exactly once, the
makespan is bounded below by both the ideal work/worker bound and the longest
single job, it is bounded above by the sequential time plus overheads, and it
never increases when workers are added (for the dynamic scheduler with a
deterministic dispatch order of identical cost structure).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.backends.base import Job
from repro.cluster.simcluster import ClusterSpec, SimulatedClusterBackend
from repro.core.scheduler import ChunkedPolicy, RobinHoodPolicy, StaticBlockPolicy
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
@given(costs=_costs, n_workers=_workers, chunk=st.integers(min_value=1, max_value=10))
def test_chunked_scheduler_completes_everything(costs, n_workers, chunk):
    outcome = _run(ChunkedPolicy(chunk_size=chunk), costs, n_workers)
    assert sorted(c.job_id for c in outcome.completed) == list(range(len(costs)))
    assert outcome.total_time >= max(costs)


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

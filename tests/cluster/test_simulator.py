"""Tests of the discrete-event simulated cluster backend."""

from __future__ import annotations

import pytest

from repro.cluster.backends.base import Job
from repro.cluster.simcluster import ClusterSpec, CommunicationModel, SimulatedClusterBackend
from repro.errors import ClusterError
from repro.pricing import PricingProblem


def _jobs(costs, size=500):
    return [
        Job(job_id=i, path=f"/virtual/p{i}.pb", file_size=size, compute_cost=c,
            category="test")
        for i, c in enumerate(costs)
    ]


def _run_robin_hood(backend, jobs):
    """Minimal Robin-Hood loop used to drive the backend directly."""
    queue = list(jobs)
    in_flight = 0
    for worker in range(min(backend.n_workers, len(queue))):
        backend.dispatch(worker, queue.pop(0))
        in_flight += 1
    completed = []
    while queue:
        done = backend.collect()
        completed.append(done)
        backend.dispatch(done.worker_id, queue.pop(0))
    for _ in range(in_flight):
        completed.append(backend.collect())
    return completed


class TestSimulatedBackendBasics:
    def test_every_job_runs_exactly_once(self):
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(3))
        jobs = _jobs([0.1] * 20)
        completed = _run_robin_hood(backend, jobs)
        stats = backend.finalize()
        assert sorted(c.job_id for c in completed) == list(range(20))
        assert stats.n_jobs == 20
        assert stats.total_time > 0

    def test_does_not_require_payload(self):
        assert SimulatedClusterBackend(ClusterSpec.homogeneous(1)).requires_payload is False

    def test_virtual_time_is_machine_independent(self):
        """Two identical simulations give bit-identical makespans."""
        times = []
        for _ in range(2):
            backend = SimulatedClusterBackend(ClusterSpec.homogeneous(4))
            _run_robin_hood(backend, _jobs([0.05, 0.2, 0.01, 0.4] * 10))
            times.append(backend.finalize().total_time)
        assert times[0] == times[1]

    def test_collect_without_dispatch(self):
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(1))
        with pytest.raises(ClusterError):
            backend.collect()

    def test_invalid_worker(self):
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(2))
        with pytest.raises(ClusterError):
            backend.dispatch(5, _jobs([0.1])[0])

    def test_finalize_with_inflight_jobs_rejected(self):
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(1))
        backend.dispatch(0, _jobs([0.1])[0])
        with pytest.raises(ClusterError):
            backend.finalize()

    @pytest.mark.parametrize("chunked", [False, True])
    def test_traces_are_consistent(self, chunked):
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(2))
        jobs = _jobs([0.1, 0.2, 0.3, 0.4])
        if chunked:
            backend.dispatch_batch(0, jobs[:2])
            backend.dispatch_batch(1, jobs[2:])
            for _ in jobs:
                backend.collect()
        else:
            _run_robin_hood(backend, jobs)
        backend.finalize()
        for trace in backend.traces:
            assert trace.dispatched_at <= trace.worker_start < trace.worker_done
            assert trace.worker_done <= trace.collected_at
        # solo or in a chunk, a job is dispatched the instant the master
        # began preparing its message: the first message at time zero, the
        # second once the first was sent
        dispatched = {trace.job_id: trace.dispatched_at for trace in backend.traces}
        assert dispatched[0] == 0.0
        if chunked:
            assert dispatched[1] == 0.0
            assert 0.0 < dispatched[2] == dispatched[3]
        else:
            assert 0.0 < dispatched[1] < dispatched[2]

    def test_send_stop_advances_master_clock(self):
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(2))
        before = backend.virtual_time
        backend.send_stop(0)
        assert backend.virtual_time > before
        with pytest.raises(ClusterError):
            backend.send_stop(9)


class TestSimulatedTiming:
    def test_single_worker_time_is_sum_of_costs_plus_overheads(self):
        costs = [0.5, 0.25, 1.0]
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(1))
        _run_robin_hood(backend, _jobs(costs))
        total = backend.finalize().total_time
        assert total >= sum(costs)
        assert total == pytest.approx(sum(costs), rel=0.05)

    def test_compute_bound_workload_scales_linearly(self):
        jobs = _jobs([0.5] * 64)
        times = {}
        for n_workers in (1, 2, 4, 8):
            backend = SimulatedClusterBackend(ClusterSpec.homogeneous(n_workers))
            _run_robin_hood(backend, jobs)
            times[n_workers] = backend.finalize().total_time
        assert times[2] == pytest.approx(times[1] / 2, rel=0.05)
        assert times[8] == pytest.approx(times[1] / 8, rel=0.10)

    def test_cheap_jobs_saturate_at_the_master(self):
        """When jobs are almost free, adding workers stops helping (Table II)."""
        jobs = _jobs([1e-4] * 2000)
        times = {}
        for n_workers in (1, 4, 16, 64):
            backend = SimulatedClusterBackend(ClusterSpec.homogeneous(n_workers),
                                              strategy="full_load")
            _run_robin_hood(backend, jobs)
            times[n_workers] = backend.finalize().total_time
        assert times[4] < times[1]
        # beyond a few workers the master-bound floor dominates
        assert times[64] == pytest.approx(times[16], rel=0.10)

    def test_makespan_bounded_below_by_longest_job(self):
        jobs = _jobs([0.01] * 50 + [5.0])
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(32))
        _run_robin_hood(backend, jobs)
        total = backend.finalize().total_time
        assert total >= 5.0
        assert total < 5.5

    def test_slower_workers_take_longer(self):
        jobs = _jobs([0.2] * 20)
        fast = SimulatedClusterBackend(ClusterSpec.homogeneous(4, speed=2.0))
        slow = SimulatedClusterBackend(ClusterSpec.homogeneous(4, speed=0.5))
        _run_robin_hood(fast, jobs)
        _run_robin_hood(slow, jobs)
        assert slow.finalize().total_time > fast.finalize().total_time

    def test_strategy_costs_visible_for_cheap_jobs(self):
        """serialized load beats full load, as in every row of Table II."""
        jobs = _jobs([1e-4] * 1000)
        results = {}
        for strategy in ("full_load", "serialized_load"):
            backend = SimulatedClusterBackend(
                ClusterSpec.homogeneous(8), strategy=strategy
            )
            _run_robin_hood(backend, jobs)
            results[strategy] = backend.finalize().total_time
        assert results["serialized_load"] < results["full_load"]

    def test_nfs_cache_effect_between_runs(self):
        """Re-running the same portfolio against the same NFS server is faster
        (the Table II artefact the paper discusses)."""
        jobs = _jobs([1e-4] * 500)
        comm = CommunicationModel()
        first = SimulatedClusterBackend(ClusterSpec.homogeneous(2), strategy="nfs", comm=comm)
        _run_robin_hood(first, jobs)
        cold_time = first.finalize().total_time
        second = SimulatedClusterBackend(ClusterSpec.homogeneous(2), strategy="nfs", comm=comm)
        _run_robin_hood(second, jobs)
        warm_time = second.finalize().total_time
        assert warm_time < cold_time

    def test_dispatch_batch_reduces_latency_cost(self):
        jobs = _jobs([1e-3] * 200)
        single = SimulatedClusterBackend(ClusterSpec.homogeneous(2))
        _run_robin_hood(single, jobs)
        single_time = single.finalize().total_time

        batched = SimulatedClusterBackend(ClusterSpec.homogeneous(2))
        # send chunks of 20 jobs per worker alternately
        chunk = 20
        pending = 0
        for start in range(0, len(jobs), chunk):
            batched.dispatch_batch((start // chunk) % 2, jobs[start : start + chunk])
            pending += min(chunk, len(jobs) - start)
        for _ in range(pending):
            batched.collect()
        batched_time = batched.finalize().total_time
        assert batched_time < single_time


class TestSimulatedExecution:
    def test_execute_mode_produces_real_prices(self):
        problem = PricingProblem(label="exec")
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
        problem.set_option("CallEuro", strike=100.0, maturity=1.0)
        problem.set_method("CF_Call")
        job = Job(job_id=0, path="", file_size=400, compute_cost=1e-3, problem=problem)
        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(1), execute=True)
        backend.dispatch(0, job)
        done = backend.collect()
        backend.finalize()
        assert done.error is None
        assert done.result["price"] == pytest.approx(10.450584, abs=1e-6)

    def test_execute_mode_without_problem_or_file_fails(self):
        from repro.errors import SimulationError

        backend = SimulatedClusterBackend(ClusterSpec.homogeneous(1), execute=True)
        with pytest.raises(SimulationError):
            backend.dispatch(0, Job(job_id=0, path="", file_size=10, compute_cost=1e-3))

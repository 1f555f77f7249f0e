"""Tests of the simulated-cluster building blocks (events, nodes, network, NFS)."""

from __future__ import annotations

import pytest

from repro.cluster.simcluster import (
    ClusterSpec,
    CommunicationModel,
    EventQueue,
    NetworkModel,
    NFSModel,
    NodeSpec,
    gigabit_ethernet,
)
from repro.cluster.backends.base import Job
from repro.errors import SimulationError


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, "c")
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        assert [queue.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_simultaneous_events_keep_insertion_order(self):
        queue = EventQueue()
        queue.push(1.0, "first")
        queue.push(1.0, "second")
        assert queue.pop().kind == "first"
        assert queue.pop().kind == "second"

    def test_empty_queue_errors(self):
        queue = EventQueue()
        assert not queue
        with pytest.raises(SimulationError):
            queue.pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, "bad")


class TestClusterSpec:
    def test_homogeneous(self):
        spec = ClusterSpec.homogeneous(4, speed=2.0)
        assert spec.n_workers == 4
        assert all(spec.speed_of(i) == 2.0 for i in range(4))

    def test_heterogeneous(self):
        spec = ClusterSpec.heterogeneous([1.0, 0.5, 2.0])
        assert spec.n_workers == 3
        assert spec.speed_of(1) == 0.5

    def test_from_cpu_count_reserves_the_master(self):
        spec = ClusterSpec.from_cpu_count(16)
        assert spec.n_workers == 15
        with pytest.raises(SimulationError):
            ClusterSpec.from_cpu_count(1)

    def test_validation(self):
        with pytest.raises(SimulationError):
            ClusterSpec(n_workers=0)
        with pytest.raises(SimulationError):
            NodeSpec(speed=0.0)
        with pytest.raises(SimulationError):
            ClusterSpec(n_workers=2, nodes=(NodeSpec(),))
        with pytest.raises(SimulationError):
            ClusterSpec.homogeneous(2).speed_of(5)


class TestNetworkModel:
    def test_transfer_time_is_latency_plus_bandwidth_term(self):
        network = NetworkModel(latency=1e-4, bandwidth=1e8)
        assert network.transfer_time(0) == pytest.approx(1e-4)
        assert network.transfer_time(10**6) == pytest.approx(1e-4 + 0.01)

    def test_monotone_in_size(self):
        network = gigabit_ethernet()
        assert network.transfer_time(10_000) > network.transfer_time(100)

    def test_validation(self):
        with pytest.raises(SimulationError):
            NetworkModel(latency=-1.0)
        with pytest.raises(SimulationError):
            NetworkModel(bandwidth=0.0)
        with pytest.raises(SimulationError):
            gigabit_ethernet().transfer_time(-5)


class TestNFSModel:
    def test_first_read_cold_then_warm(self):
        nfs = NFSModel(cold_latency=1e-3, warm_latency=1e-4, bandwidth=1e8)
        first = nfs.read_time("/portfolio/p1.pb", 1000)
        second = nfs.read_time("/portfolio/p1.pb", 1000)
        assert first > second
        assert first == pytest.approx(1e-3 + 1e-5)
        assert second == pytest.approx(1e-4 + 1e-5)
        assert nfs.is_cached("/portfolio/p1.pb")

    def test_distinct_paths_are_independent(self):
        nfs = NFSModel()
        nfs.read_time("/a", 100)
        assert not nfs.is_cached("/b")
        assert nfs.cached_count == 1

    def test_cache_can_be_disabled(self):
        nfs = NFSModel(cache_enabled=False)
        first = nfs.read_time("/a", 100)
        second = nfs.read_time("/a", 100)
        assert first == second
        assert nfs.cached_count == 0

    def test_warm_up_and_flush(self):
        nfs = NFSModel()
        nfs.read_time("/a", 100)
        nfs.read_time("/b", 100)
        assert nfs.cached_count == 2
        nfs.flush()
        assert nfs.cached_count == 0

    def test_validation(self):
        with pytest.raises(SimulationError):
            NFSModel(cold_latency=1e-4, warm_latency=1e-3)
        with pytest.raises(SimulationError):
            NFSModel(bandwidth=-1.0)
        with pytest.raises(SimulationError):
            NFSModel().read_time("/a", -1)


class TestCommunicationModel:
    def _job(self, size=1000):
        return Job(job_id=0, path="/portfolio/p.pb", file_size=size, compute_cost=0.1)

    def test_master_cost_ordering_matches_the_paper(self):
        """full load > serialized load > NFS on the master side."""
        comm = CommunicationModel()
        job = self._job()
        full = comm.master_prep_time("full_load", job)
        sload = comm.master_prep_time("serialized_load", job)
        nfs = comm.master_prep_time("nfs", job)
        assert full > sload > nfs

    def test_message_sizes(self):
        comm = CommunicationModel()
        job = self._job(size=5000)
        assert comm.message_nbytes("full_load", job) == 5000 + comm.message_header_bytes
        assert comm.message_nbytes("serialized_load", job) == 5000 + comm.message_header_bytes
        assert comm.message_nbytes("nfs", job) == comm.name_message_bytes

    def test_worker_cost_includes_nfs_read_only_for_nfs(self):
        comm = CommunicationModel()
        job = self._job()
        serialized = comm.worker_prep_time("serialized_load", job)
        nfs_cold = comm.worker_prep_time("nfs", job)
        assert nfs_cold > serialized
        # second read of the same file is cheaper (warm cache)
        nfs_warm = comm.worker_prep_time("nfs", job)
        assert nfs_warm < nfs_cold

    def test_unknown_strategy_rejected(self):
        comm = CommunicationModel()
        with pytest.raises(SimulationError):
            comm.master_prep_time("carrier_pigeon", self._job())

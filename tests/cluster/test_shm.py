"""Lifecycle tests for the shared-memory transport (:mod:`repro.cluster.shm`).

The transport must never leak: every published segment is either consumed
(attach + copy + unlink) or reclaimed by the finalize sweep, including when
a worker dies between publish and consume.  And when shared memory is not
available at all, everything must degrade to plain inline payloads.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.cluster.shm as shm_module
from repro.cluster.backends import (
    PAYLOAD_SERIAL,
    Job,
    MultiprocessingBackend,
    PreparedMessage,
    SequentialBackend,
)
from repro.cluster.shm import (
    SHM_MIN_BYTES,
    SegmentRegistry,
    decode_result,
    encode_result,
    shm_available,
)
from repro.errors import ClusterError
from repro.pricing import PricingProblem
from repro.serial import serialize

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

_SHM_DIR = "/dev/shm"


def _segments_with_prefix(prefix: str) -> list[str]:
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(entry for entry in os.listdir(_SHM_DIR) if entry.startswith(prefix))


def _make_problem(strike: float = 100.0) -> PricingProblem:
    problem = PricingProblem(label=f"shm_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _job(job_id: int, problem: PricingProblem) -> Job:
    return Job(job_id=job_id, path="", file_size=512, compute_cost=1e-3,
               category="vanilla", problem=problem)


def _message(problem: PricingProblem) -> PreparedMessage:
    data = serialize(problem).to_bytes()
    return PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data))


class TestSegmentRegistry:
    def test_bytes_round_trip_unlinks(self):
        registry = SegmentRegistry("tshmbytes")
        payload = os.urandom(4096)
        handle = registry.publish_bytes(payload)
        registry.release(handle["name"])  # transfer to the consumer
        assert _segments_with_prefix("tshmbytes") == [handle["name"]]
        assert registry.consume_bytes(handle) == payload
        assert _segments_with_prefix("tshmbytes") == []
        registry.close()

    def test_array_round_trip_preserves_shape_and_dtype(self):
        registry = SegmentRegistry("tshmarray")
        array = np.arange(600, dtype=np.float64).reshape(3, 200) * 0.25
        handle = registry.publish_array(array)
        registry.release(handle["name"])
        out = registry.consume_array(handle)
        assert out.dtype == array.dtype and out.shape == array.shape
        assert np.array_equal(out, array)
        out[0, 0] = -1.0  # the copy is independent of the (unlinked) segment
        assert _segments_with_prefix("tshmarray") == []
        registry.close()

    def test_refcounting_unlink_on_close(self):
        registry = SegmentRegistry("tshmref")
        handle = registry.publish_bytes(b"x" * 128)
        name = handle["name"]
        assert registry.refcount(name) == 1
        registry.retain(name)
        assert registry.refcount(name) == 2
        registry.release(name, unlink=True)
        assert registry.refcount(name) == 1
        assert _segments_with_prefix("tshmref") == [name]
        registry.release(name, unlink=True)
        assert registry.refcount(name) == 0
        assert registry.n_tracked == 0
        assert _segments_with_prefix("tshmref") == []
        registry.close()

    def test_unknown_names_rejected(self):
        registry = SegmentRegistry("tshmunknown")
        assert registry.refcount("tshmunknownp1n1") == 0
        with pytest.raises(KeyError):
            registry.retain("tshmunknownp1n1")
        with pytest.raises(KeyError):
            registry.release("tshmunknownp1n1")
        registry.close()

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            SegmentRegistry("")
        with pytest.raises(ValueError):
            SegmentRegistry("a/b")

    def test_sweep_reclaims_unconsumed_publish(self):
        registry = SegmentRegistry("tshmsweep1")
        handle = registry.publish_bytes(b"y" * 256)
        registry.release(handle["name"])  # handed off, but nobody consumes
        assert _segments_with_prefix("tshmsweep1") == [handle["name"]]
        assert registry.sweep() == [handle["name"]]
        assert _segments_with_prefix("tshmsweep1") == []

    def test_sweep_reclaims_foreign_segment_with_run_prefix(self):
        """A segment published by a (dead) worker is found via /dev/shm."""
        registry = SegmentRegistry("tshmsweep2")
        foreign = shm_module._shared_memory.SharedMemory(
            create=True, size=64, name="tshmsweep2p99999n1"
        )
        foreign.buf[:3] = b"abc"
        foreign.close()
        assert registry.sweep() == ["tshmsweep2p99999n1"]
        assert _segments_with_prefix("tshmsweep2") == []

    def test_sweep_skips_locally_referenced_segments(self):
        registry = SegmentRegistry("tshmsweep3")
        handle = registry.publish_bytes(b"z" * 64)
        assert registry.sweep() == []  # refcount 1: not a leak
        assert registry.refcount(handle["name"]) == 1
        registry.close()
        assert _segments_with_prefix("tshmsweep3") == []


class TestEncodeDecode:
    def test_nested_round_trip(self):
        registry = SegmentRegistry("tshmcodec")
        big = np.linspace(0.0, 1.0, 5000)
        blob = os.urandom(2048)
        tree = {"a": [big, {"b": blob}], "price": 1.25, "small": np.ones(3)}
        encoded = encode_result(tree, registry, min_bytes=1024)
        assert set(encoded["a"][0]) == {"__shm_array__"}
        assert set(encoded["a"][1]["b"]) == {"__shm_bytes__"}
        assert isinstance(encoded["small"], np.ndarray)  # below threshold
        decoded = decode_result(encoded, registry)
        assert np.array_equal(decoded["a"][0], big)
        assert decoded["a"][1]["b"] == blob
        assert decoded["price"] == 1.25
        assert registry.n_tracked == 0
        assert _segments_with_prefix("tshmcodec") == []

    def test_only_a_lone_marker_key_is_a_handle(self):
        registry = SegmentRegistry("tshmlone")
        tree = {
            "one_key": {"price": 1.0},
            "marker_and_more": {"__shm_array__": {"name": "nope"}, "price": 1.0},
            "empty": {},
        }
        assert decode_result(tree, registry) == tree
        registry.close()

    def test_threshold_keeps_small_buffers_inline(self):
        registry = SegmentRegistry("tshmthresh")
        small = np.ones(4)
        encoded = encode_result({"x": small, "y": b"tiny"}, registry, SHM_MIN_BYTES)
        assert encoded["x"] is small
        assert encoded["y"] == b"tiny"
        assert registry.n_tracked == 0
        registry.close()


class TestPickleFallback:
    def test_encode_is_passthrough_without_shm(self, monkeypatch):
        registry = SegmentRegistry("tshmfall")
        registry.close()
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        assert not shm_module.shm_available()
        tree = {"a": np.arange(10_000, dtype=float)}
        assert encode_result(tree, registry, min_bytes=1) is tree
        assert decode_result(tree, registry) == tree

    def test_backends_reject_forced_shm_without_support(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        with pytest.raises(ClusterError):
            SequentialBackend(use_shm=True)
        with pytest.raises(ClusterError):
            MultiprocessingBackend(n_workers=1, use_shm=True)

    def test_sequential_backend_falls_back_to_inline(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        backend = SequentialBackend(n_workers=1)  # auto-detect: no shm
        assert backend._registry is None
        problem = _make_problem()
        backend.dispatch(0, _job(0, problem), _message(problem))
        done = backend.collect()
        backend.finalize()
        assert done.error is None
        assert done.result["price"] == pytest.approx(10.450584, abs=1e-6)


class TestBackendLifecycle:
    def test_sequential_shm_cycle_is_clean(self):
        backend = SequentialBackend(n_workers=1, use_shm=True, shm_min_bytes=1)
        prefix = backend._registry.prefix
        problem = _make_problem()
        backend.dispatch(0, _job(0, problem), _message(problem))
        done = backend.collect()
        backend.finalize()
        assert done.error is None
        assert done.result["price"] == pytest.approx(10.450584, abs=1e-6)
        assert _segments_with_prefix(prefix) == []

    def test_multiproc_segments_unlinked_after_collection(self):
        backend = MultiprocessingBackend(n_workers=2, use_shm=True, shm_min_bytes=1)
        assert backend.uses_shm
        prefix = backend._registry.prefix
        problems = [_make_problem(k) for k in (90.0, 100.0, 110.0, 120.0)]
        try:
            for index, problem in enumerate(problems):
                backend.dispatch(index % 2, _job(index, problem), _message(problem))
            collected = {c.job_id: c for c in (backend.collect() for _ in problems)}
        finally:
            backend.finalize()
        assert all(c.error is None for c in collected.values())
        baseline = {i: p.compute().price for i, p in enumerate(problems)}
        for index, price in baseline.items():
            assert collected[index].result["price"] == price
        # every payload segment was consumed by its worker, every result
        # segment by the master -- nothing should survive the run
        assert _segments_with_prefix(prefix) == []

    def test_no_leak_after_worker_death(self):
        backend = MultiprocessingBackend(n_workers=1, use_shm=True, shm_min_bytes=1)
        prefix = backend._registry.prefix
        process = backend._processes[0]
        process.terminate()
        process.join(timeout=10)
        problem = _make_problem()
        # the dispatch publishes a payload segment that no worker will ever
        # attach -- exactly the leak shape the finalize sweep must reclaim
        backend.dispatch(0, _job(0, problem), _message(problem))
        assert _segments_with_prefix(prefix) != []
        backend.finalize()
        assert _segments_with_prefix(prefix) == []

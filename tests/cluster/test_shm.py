"""Lifecycle tests for the shared-memory segments (:mod:`repro.cluster.shm`).

No backend sends through them (no message of any workload reaches
``SHM_MIN_BYTES``); the module is the ``cluster.shm.*`` probe of
``benchmarks/e2e``.  A registry must never leak: every published segment is
either consumed (attach + copy + unlink) or reclaimed by the sweep.  And when
shared memory is not available at all, everything must degrade to plain
inline payloads.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.cluster.shm as shm_module
from repro.cluster.shm import (
    SHM_MIN_BYTES,
    SegmentRegistry,
    decode_result,
    encode_result,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

_SHM_DIR = "/dev/shm"


def _segments_with_prefix(prefix: str) -> list[str]:
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(entry for entry in os.listdir(_SHM_DIR) if entry.startswith(prefix))


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

"""Shared-memory array transport between the master and its workers.

Batch mode ships 10^5-path sample matrices and multi-kilobyte serialized
families through ``multiprocessing`` queues; pickling those buffers copies
them twice (once into the pipe, once out).  This module moves large buffers
through POSIX shared memory instead (:mod:`multiprocessing.shared_memory`):
the sender publishes a segment and enqueues a small *handle*, the receiver
attaches, copies out, and unlinks.

The moving parts:

* :class:`SegmentRegistry` -- a ref-counted registry of the segments this
  process created or attached.  Publishing hands out a handle with refcount
  one; :meth:`SegmentRegistry.retain`/:meth:`SegmentRegistry.release` move
  the count, and the mapping is closed when it reaches zero
  (unlink-on-close for segments that were never handed to another process).
  Consumption (:meth:`SegmentRegistry.consume_bytes` /
  :meth:`SegmentRegistry.consume_array`) is transfer-semantics: attach,
  copy, close, unlink.
* a run-scoped **name prefix** shared by the master and all its workers, so
  :meth:`SegmentRegistry.sweep` can reclaim segments leaked by a worker
  that died between publish and consume -- the master sweeps at finalize.
* a **pickle fallback**: when :func:`shm_available` is false (platform
  without the module, or monkeypatched away in tests) the handles degrade
  to inline payloads and everything still works, just slower.

Handles are plain dictionaries so they ride through queues, XDR frames and
JSON untouched.
"""

from __future__ import annotations

import os
import threading
from typing import Any

import numpy as np


try:  # pragma: no cover - import guard exercised via monkeypatching in tests
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - all supported platforms have it
    _shared_memory = None  # type: ignore[assignment]

__all__ = [
    "SHM_MIN_BYTES",
    "shm_available",
    "SegmentRegistry",
    "encode_result",
    "decode_result",
]

#: buffers below this size are cheaper to pickle than to round-trip through
#: a shared-memory segment (two syscalls + mmap); tests lower it to force
#: the shm path
SHM_MIN_BYTES = 1 << 18

#: marker keys of the transport handles (dicts so they serialize anywhere)
_ARRAY_KEY = "__shm_array__"
_BYTES_KEY = "__shm_bytes__"


def shm_available() -> bool:
    """Whether :mod:`multiprocessing.shared_memory` is importable here."""
    return _shared_memory is not None


class SegmentRegistry:
    """Ref-counted bookkeeping of shared-memory segments, unlink-on-close.

    Parameters
    ----------
    prefix:
        Run-scoped segment-name prefix.  The master and every worker of one
        backend share it, so a sweep over ``/dev/shm`` can identify (and
        reclaim) exactly this run's leftovers after a worker death.
    """

    def __init__(self, prefix: str):
        if not prefix or "/" in prefix:
            raise ValueError("prefix must be a non-empty flat name fragment")
        if _shared_memory is not None:
            # Start the resource tracker *now*, before any worker forks:
            # children then inherit its pipe and their register/unregister
            # messages land in the same cache as ours, so a segment
            # published here and unlinked in a worker (or vice versa) nets
            # out to zero instead of a spurious leak warning at shutdown.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except (ImportError, AttributeError, OSError):  # pragma: no cover
                pass
        self.prefix = str(prefix)
        self._lock = threading.Lock()
        #: name -> [segment, refcount]
        self._segments: dict[str, list[Any]] = {}
        #: every name this registry ever created (for the finalize sweep)
        self._issued: set[str] = set()
        self._seq = 0

    # -- publishing (sender side) -----------------------------------------
    def _create(self, nbytes: int) -> Any:
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        with self._lock:
            self._seq += 1
            name = f"{self.prefix}p{os.getpid()}n{self._seq}"
        segment = _shared_memory.SharedMemory(create=True, size=max(nbytes, 1), name=name)
        with self._lock:
            self._segments[name] = [segment, 1]
            self._issued.add(name)
        return segment

    def publish_bytes(self, data: bytes | bytearray | memoryview) -> dict[str, Any]:
        """Copy ``data`` into a fresh segment; returns its transport handle."""
        view = memoryview(data)
        segment = self._create(view.nbytes)
        segment.buf[: view.nbytes] = view
        return {"name": segment.name, "nbytes": view.nbytes}

    def publish_array(self, array: np.ndarray) -> dict[str, Any]:
        """Copy an ndarray into a fresh segment; returns its transport handle."""
        array = np.ascontiguousarray(array)
        segment = self._create(array.nbytes)
        target = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        target[...] = array
        return {
            "name": segment.name,
            "nbytes": array.nbytes,
            "shape": list(array.shape),
            "dtype": str(array.dtype),
        }

    # -- refcounting -------------------------------------------------------
    def retain(self, name: str) -> None:
        """Take an extra reference on a tracked segment."""
        with self._lock:
            if name not in self._segments:
                raise KeyError(f"unknown segment {name!r}")
            self._segments[name][1] += 1

    def release(self, name: str, unlink: bool = False) -> None:
        """Drop one reference; at zero the mapping closes (and unlinks).

        The sender of a transferred segment releases with ``unlink=False``
        right after enqueueing the handle -- the consumer unlinks.  Purely
        local segments release with ``unlink=True`` so the name disappears
        with the last reference.
        """
        with self._lock:
            if name not in self._segments:
                raise KeyError(f"unknown segment {name!r}")
            entry = self._segments[name]
            entry[1] -= 1
            done = entry[1] <= 0
            if done:
                del self._segments[name]
        if done:
            entry[0].close()
            if unlink:
                try:
                    entry[0].unlink()
                except FileNotFoundError:
                    pass

    def refcount(self, name: str) -> int:
        """Current local reference count (0 when untracked)."""
        with self._lock:
            entry = self._segments.get(name)
            return entry[1] if entry else 0

    @property
    def n_tracked(self) -> int:
        with self._lock:
            return len(self._segments)

    # -- consumption (receiver side) ---------------------------------------
    def _attach(self, name: str) -> Any:
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        # attaching registers with the (shared) resource tracker just like
        # creating did; the tracker cache is a set, so the consumer's
        # eventual ``unlink`` balances both registrations at once
        return _shared_memory.SharedMemory(name=name)

    def consume_bytes(self, handle: dict[str, Any]) -> bytes:
        """Attach a published segment, copy it out, close and unlink it."""
        segment = self._attach(handle["name"])
        try:
            return bytes(segment.buf[: handle["nbytes"]])
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - racing consumer
                pass

    def consume_array(self, handle: dict[str, Any]) -> np.ndarray:
        """Attach a published array segment, copy it out, close and unlink."""
        segment = self._attach(handle["name"])
        try:
            view = np.ndarray(
                tuple(handle["shape"]), dtype=np.dtype(handle["dtype"]), buffer=segment.buf
            )
            return view.copy()
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - racing consumer
                pass

    # -- cleanup -----------------------------------------------------------
    def sweep(self) -> list[str]:
        """Unlink every leftover segment of this registry's run prefix.

        Covers two leak shapes: segments *this* process issued whose
        consumer never attached (worker died between publish and consume),
        and segments a *worker* published before dying (found by listing
        ``/dev/shm`` for the shared prefix).  Returns the reclaimed names.
        """
        if _shared_memory is None:
            return []
        candidates = set(self._issued)
        shm_dir = "/dev/shm"
        if os.path.isdir(shm_dir):
            try:
                for entry in os.listdir(shm_dir):
                    if entry.startswith(self.prefix):
                        candidates.add(entry)
            except OSError:  # pragma: no cover - listing is best effort
                pass
        reclaimed = []
        for name in sorted(candidates):
            if self.refcount(name):
                continue  # still referenced locally -- not a leak
            try:
                segment = _shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue  # already consumed/unlinked -- the normal case
            segment.close()
            try:
                segment.unlink()
                reclaimed.append(name)
            except FileNotFoundError:  # pragma: no cover - racing cleanup
                pass
        return reclaimed

    def close(self) -> None:
        """Release every tracked segment (unlinking) and sweep leftovers."""
        with self._lock:
            names = list(self._segments)
        for name in names:
            while self.refcount(name):
                self.release(name, unlink=True)
        self.sweep()


# -- result-dict transport ----------------------------------------------------


def encode_result(
    obj: Any, registry: SegmentRegistry, min_bytes: int = SHM_MIN_BYTES
) -> Any:
    """Replace large ndarrays/byte strings in a result tree with handles.

    The returned structure is queue-safe and small; every published segment
    is immediately released by the sender (``unlink=False``) because the
    consumer unlinks on :func:`decode_result`.  Buffers under ``min_bytes``
    (and everything else) pass through unchanged -- the pickle fallback.
    """
    if not shm_available():
        return obj
    if isinstance(obj, dict):
        return {key: encode_result(value, registry, min_bytes) for key, value in obj.items()}
    if isinstance(obj, list):
        return [encode_result(value, registry, min_bytes) for value in obj]
    if isinstance(obj, np.ndarray) and obj.nbytes >= min_bytes:
        handle = registry.publish_array(obj)
        registry.release(handle["name"])
        return {_ARRAY_KEY: handle}
    if isinstance(obj, (bytes, bytearray)) and len(obj) >= min_bytes:
        handle = registry.publish_bytes(obj)
        registry.release(handle["name"])
        return {_BYTES_KEY: handle}
    return obj


def decode_result(obj: Any, registry: SegmentRegistry) -> Any:
    """Resolve the handles of :func:`encode_result`, consuming the segments."""
    if isinstance(obj, dict):
        if len(obj) == 1:  # a handle is a one-key dict; most dicts are not
            if _ARRAY_KEY in obj:
                return registry.consume_array(obj[_ARRAY_KEY])
            if _BYTES_KEY in obj:
                return registry.consume_bytes(obj[_BYTES_KEY])
        return {key: decode_result(value, registry) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_result(value, registry) for value in obj]
    return obj

"""Content-addressed result caching for pricing problems.

A pricing problem is fully described by the plain parameter dictionaries of
its ``(model, option, method)`` triple -- exactly what the :mod:`repro.serial`
layer ships across the cluster.  This module derives a **stable SHA-256
digest** from that description (:func:`problem_digest`) and keeps computed
:class:`~repro.pricing.methods.base.PricingResult` objects in a
digest-keyed store (:class:`ResultCache`):

* an in-memory LRU (bounded by ``max_entries``), and
* an optional on-disk JSON store (one ``<digest>.json`` file per result),
  which several processes may share and which outlives the process, so a
  warm rerun skips pricing entirely.

Digests are *content* addresses: two problems built independently, or round
tripped through ``to_params()`` / ``from_params()`` / the XDR serializer,
produce the same digest.  Methods whose results depend on anything outside
``to_params()`` (wall-clock, global state) must not be cached; everything in
the library keys its randomness on an explicit ``seed`` parameter, so results
are deterministic functions of the digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import PricingError, SerializationError
from repro.pricing.validation import check_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pricing.engine import PricingProblem
    from repro.pricing.methods.base import PricingResult

__all__ = [
    "CACHE_SCHEMA",
    "stable_digest",
    "model_digest",
    "legs_digest",
    "problem_digest",
    "CacheStats",
    "ResultCache",
]


#: folded into every problem digest, so an entry written by a build whose
#: result or wire layout differed is never read back as current.  Bump it with
#: any change to what a digest addresses: 2 = columnar replies (protocol v8;
#: the layouts of PR 15 and PR 20 went unsalted)
CACHE_SCHEMA = 2


def _plain(value: Any) -> Any:
    """``json.dumps`` hook: a NumPy value as the Python value it holds."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise PricingError(
        f"cannot build a stable digest from a {type(value).__name__} value"
    )


def stable_digest(value: Any) -> str:
    """SHA-256 hex digest of a canonical JSON rendering of ``value``.

    Accepts anything made of dicts keyed by strings, lists/tuples, NumPy
    arrays/scalars, numbers, strings and ``None``.  The digest is stable
    across processes, sessions and ``to_params`` round-trips: keys are
    sorted, and ``repr`` round-trips doubles exactly, so 0.1 rebuilt from
    params hashes identically to the original 0.1.
    """
    try:
        payload = json.dumps(value, sort_keys=True, separators=(",", ":"), default=_plain)
    except TypeError as exc:  # keys json cannot sort or write
        raise PricingError(f"cannot build a stable digest: {exc}") from exc
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def model_digest(model: Any) -> str:
    """Stable digest of a model (name + parameters)."""
    return stable_digest({"model": model.model_name, "params": model.to_params()})


def legs_digest(model: Any, product: Any, method: Any) -> str:
    """Stable digest of a ``(model, option, method)`` triple.

    Keyed on :data:`CACHE_SCHEMA` and the names and ``to_params()``
    dictionaries -- the same description the serializer writes to problem
    files.  The model leg reuses
    the memoized :meth:`~repro.pricing.models.base.Model.param_digest`
    (models carry the bulk of the parameters -- e.g. a 40x40 correlation
    matrix), so a scenario cell is addressed from its legs without a
    :class:`~repro.pricing.engine.PricingProblem` being built for it.
    """
    return stable_digest(
        {
            "schema": CACHE_SCHEMA,
            "model": model.param_digest(),
            "option": {"name": product.option_name, "params": product.to_params()},
            "method": {"name": method.method_name, "params": method.to_params()},
        }
    )


def problem_digest(problem: "PricingProblem") -> str:
    """:func:`legs_digest` of a fully specified pricing problem (memoized).

    A problem loaded from disk digests identically to the one that produced
    the file; the digest is cached on the problem until one of its legs is
    replaced.
    """
    if problem._digest_cache is None:
        problem._digest_cache = legs_digest(problem.model, problem.product, problem.method)
    return problem._digest_cache


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    puts: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ResultCache:
    """Digest-keyed store of pricing results (in-memory LRU + optional disk).

    Parameters
    ----------
    max_entries:
        Bound on the in-memory LRU; the least recently used entry is evicted
        when the bound is exceeded.  The disk store (when configured) is not
        bounded -- one small JSON file per result.
    directory:
        Optional directory for the on-disk JSON store (an empty or blank
        string is refused).  Results evicted from
        memory remain readable from disk; several processes may share one
        directory (files are written atomically via ``os.replace`` of a
        per-process temporary, so readers only ever see complete entries).
        A corrupt / truncated entry file -- e.g. left behind by a crashed
        writer, or one that does not rebuild a result with a finite price --
        is treated as a miss: it is deleted (the next ``put`` rewrites it)
        and counted in :attr:`CacheStats.corrupt`.

    Instances are thread-safe: a long-lived daemon may share one cache
    between concurrent request handlers.
    """

    max_entries: int = 4096
    directory: str | Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        # a NaN bound would never evict: the LRU would grow without limit
        self.max_entries = check_count(self.max_entries, "ResultCache.max_entries",
                                       floats=False)
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.RLock()
        if isinstance(self.directory, str) and not self.directory.strip():
            # Path("") is the working directory: one JSON file per result there
            raise PricingError(
                f"ResultCache.directory must name a directory, got {self.directory!r}"
            )
        if self.directory is not None:
            self.directory = Path(self.directory)
            self.directory.mkdir(parents=True, exist_ok=True)

    # -- core mapping ------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries or self._disk_path(digest) is not None

    def get(self, digest: str) -> "PricingResult | None":
        """Return the cached result for ``digest`` or ``None`` on a miss."""
        from repro.pricing.methods.base import PricingResult

        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                result = PricingResult.from_dict(entry)
            else:
                loaded = self._read_disk(digest)
                if loaded is None:
                    self.stats.misses += 1
                    return None
                entry, result = loaded
                self.stats.disk_hits += 1
                self._remember(digest, entry, write_disk=False)
            self._entries.move_to_end(digest)
            self.stats.hits += 1
            return result

    def put(self, digest: str, result: "PricingResult | dict[str, Any]") -> None:
        """Store ``result`` (a :class:`PricingResult` or its ``as_dict()``)."""
        entry = dict(result) if isinstance(result, dict) else result.as_dict()
        entry.pop("cache_hit", None)  # transport marker, not part of the result
        if entry.get("price") is None or not math.isfinite(entry["price"]):
            raise PricingError("refusing to cache a result without a finite price")
        with self._lock:
            self.stats.puts += 1
            self._remember(digest, entry, write_disk=True)

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left in place)."""
        with self._lock:
            self._entries.clear()

    # -- internals ----------------------------------------------------------------
    def _remember(self, digest: str, entry: dict[str, Any], write_disk: bool) -> None:
        self._entries[digest] = entry
        self._entries.move_to_end(digest)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        if write_disk and self.directory is not None:
            self._write_disk(digest, entry)

    def _disk_file(self, digest: str) -> Path | None:
        if self.directory is None:
            return None
        return Path(self.directory) / f"{digest}.json"

    def _disk_path(self, digest: str) -> Path | None:
        path = self._disk_file(digest)
        if path is not None and path.exists():
            return path
        return None

    def _read_disk(self, digest: str) -> "tuple[dict[str, Any], PricingResult] | None":
        """The entry stored for ``digest`` on disk and the result it rebuilds."""
        from repro.pricing.methods.base import PricingResult

        path = self._disk_path(digest)
        if path is None:
            return None
        try:
            entry = json.loads(path.read_text())
            result = PricingResult.from_dict(entry)
        except OSError:
            return None
        except (json.JSONDecodeError, SerializationError):
            result = None
        if result is None or not math.isfinite(result.price):
            # truncated / partially-written / garbage entry, or one without a
            # finite price: a daemon sharing one cache dir across requests
            # must treat this as a miss, not an error -- delete the file so
            # the next put rewrites it cleanly
            self.stats.corrupt += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already removed by a peer
                pass
            return None
        return entry, result

    def _write_disk(self, digest: str, entry: dict[str, Any]) -> None:
        path = self._disk_file(digest)
        assert path is not None
        # per-process temporary: two processes putting the same digest must
        # not interleave writes into one tmp file before the atomic rename
        tmp = path.with_suffix(f".json.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(entry))
        os.replace(tmp, path)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        where = f", directory={str(self.directory)!r}" if self.directory else ""
        return (
            f"ResultCache(entries={len(self._entries)}/{self.max_entries}{where}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )

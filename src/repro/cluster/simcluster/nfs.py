"""NFS file-server model.

"The cluster on which all the tests were carried out use a NFS file system,
which makes it possible for the master to only send the name of the file to
be read and let the slave read the file content."  The paper also observes
that "the NFS file system uses a caching system which makes the following
access to the same files much faster than the first one", an artefact that
visibly distorts the NFS column of Table II (the 2-CPU run pays cold-cache
reads, the later runs of the sweep reuse the warm server cache).

The model therefore keeps a persistent set of cached paths: the first read of
a path pays the cold-read cost (disk + NFS protocol), subsequent reads of the
same path -- including reads performed in *later runs of the same sweep* when
the model instance is reused, exactly as the physical server cache persisted
across the paper's successive experiments -- pay the much cheaper warm cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError

__all__ = ["NFSModel"]


@dataclass
class NFSModel:
    """Cold/warm NFS read cost model with a persistent server cache.

    Attributes
    ----------
    cold_latency:
        Fixed cost of a read that misses the server cache (disk seek + NFS
        round trips).
    warm_latency:
        Fixed cost of a read served from the server cache.
    bandwidth:
        Streaming bandwidth applied to the file size on top of the fixed
        latencies.
    cache_enabled:
        When ``False`` every read pays the cold cost (useful to model the
        "clean run with a new portfolio" the paper says would be the fair
        comparison).
    """

    cold_latency: float = 900e-6
    warm_latency: float = 220e-6
    bandwidth: float = 80e6
    cache_enabled: bool = True
    _cache: set[str] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.cold_latency < 0 or self.warm_latency < 0:
            raise SimulationError("latencies must be non-negative")
        if self.warm_latency > self.cold_latency:
            raise SimulationError("warm reads cannot be slower than cold reads")
        if self.bandwidth <= 0:
            raise SimulationError("bandwidth must be strictly positive")

    # -- reads -------------------------------------------------------------------
    def read_time(self, path: str, nbytes: int) -> float:
        """Cost of reading ``path`` (``nbytes`` long) and cache the path."""
        if nbytes < 0:
            raise SimulationError("file size must be non-negative")
        stream = nbytes / self.bandwidth
        if self.cache_enabled and path in self._cache:
            return self.warm_latency + stream
        if self.cache_enabled:
            self._cache.add(path)
        return self.cold_latency + stream

    def is_cached(self, path: str) -> bool:
        return self.cache_enabled and path in self._cache

    # -- cache management ----------------------------------------------------------
    def flush(self) -> None:
        """Empty the cache -- the "clean run with a new portfolio" scenario."""
        self._cache.clear()

    @property
    def cached_count(self) -> int:
        return len(self._cache)

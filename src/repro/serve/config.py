"""Configuration of the ``repro-serve`` daemon.

One frozen :class:`ServerConfig` describes everything the daemon owns: the
listening socket, the warm execution backend it keeps across requests, the
shared cross-request result cache, and the multi-tenancy knobs (shared-secret
auth, per-client token-bucket rate limits).  The CLI (:mod:`repro.serve.app`)
is a thin argparse layer over this dataclass; tests and the docs build one
directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.errors import ServeError
from repro.pricing.validation import check_count

__all__ = ["SERVABLE_BACKENDS", "ServerConfig"]

#: backends the daemon may own: every *executing* backend (the simulated
#: cluster prices nothing, so serving it would answer with empty results)
SERVABLE_BACKENDS = ("local", "multiprocessing", "remote")


@dataclass(frozen=True)
class ServerConfig:
    """Everything one :class:`~repro.serve.app.ReproServer` needs.

    Parameters
    ----------
    host, port:
        Listening address; ``port=0`` binds an ephemeral port (read it back
        from ``ReproServer.port``).
    backend:
        Named execution backend the daemon keeps warm across requests --
        one of :data:`SERVABLE_BACKENDS`.
    n_workers:
        Worker count for the pooled backends; with ``backend="remote"`` and
        no explicit ``hosts`` the daemon spawns this many loopback
        ``repro-worker`` processes once at startup and reuses them for every
        campaign.
    hosts:
        Explicit ``"host:port"`` worker addresses for ``backend="remote"``;
        overrides the spawned loopback pool.
    cache_dir:
        Directory of the shared on-disk result cache.  ``None`` keeps the
        cache in memory only -- still shared across requests, gone on
        restart.  An empty path is refused (it would name the working
        directory).
    cache_entries:
        Bound of the in-memory LRU of the shared cache.
    auth_token:
        Shared secret; when set, every data endpoint requires
        ``Authorization: Bearer <token>`` (or ``X-Auth-Token``).
        ``/healthz``, ``/v1/stats`` and the dashboard stay open.
    rate_limit:
        Sustained request rate (requests/second) allowed per client address
        on the pricing endpoints; ``0`` disables rate limiting.
    rate_burst:
        Token-bucket burst capacity per client.
    worker_secret:
        Shared secret of the protocol-v4 worker handshake.  When set, the
        daemon authenticates every remote worker connection
        (HMAC-SHA256 challenge/response) and passes the secret to the
        loopback pool it spawns.  Only meaningful with ``backend="remote"``;
        distinct from ``auth_token``, which protects the HTTP side.
    max_body_bytes:
        Refusal threshold for request bodies (HTTP 413 above it).
    max_events_per_job:
        Bound on the per-job progress-event buffer replayed to SSE clients.
    verbose:
        Log one line per HTTP request to stderr.
    """

    host: str = "127.0.0.1"
    port: int = 9632
    backend: str = "local"
    n_workers: int = 2
    hosts: tuple[str, ...] = ()
    cache_dir: str | None = None
    cache_entries: int = 4096
    auth_token: str | None = None
    rate_limit: float = 0.0
    rate_burst: int = 20
    worker_secret: str | None = None
    max_body_bytes: int = 8 * 1024 * 1024
    max_events_per_job: int = 10_000
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.backend not in SERVABLE_BACKENDS:
            raise ServeError(
                f"backend {self.backend!r} cannot be served; "
                f"choose one of {', '.join(SERVABLE_BACKENDS)}"
            )
        for name in ("n_workers", "cache_entries", "rate_burst", "max_body_bytes",
                     "max_events_per_job"):
            check_count(getattr(self, name), name, error=ServeError, floats=False)
        # ``nan < 0`` is false: a NaN rate would switch rate limiting off
        value = self.rate_limit
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            math.isfinite(value) and value >= 0
        ):
            raise ServeError(f"rate_limit must be a finite number >= 0 (0 disables it), "
                             f"got {value!r}")
        if self.cache_dir is not None and not str(self.cache_dir).strip():
            raise ServeError(f"cache_dir must name a directory, got {self.cache_dir!r}")
        if self.hosts and self.backend != "remote":
            raise ServeError("explicit worker hosts need backend='remote'")
        if self.worker_secret is not None and self.backend != "remote":
            raise ServeError("worker_secret needs backend='remote'")
        object.__setattr__(self, "hosts", tuple(self.hosts))

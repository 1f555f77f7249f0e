"""Typed, immutable configuration objects of the unified API.

These frozen dataclasses carry everything a
:class:`~repro.api.session.ValuationSession` needs to build backends
and schedulers.  They are plain values: hashable-by-content where
possible, safe to share between sessions and cheap to derive variants from
with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.cluster.backends import WorkerBackend, create_backend, list_backends
from repro.core.scheduler import DispatchPolicy, policy_factory
from repro.core.strategies import STRATEGIES
from repro.errors import ValuationError
from repro.pricing.kernel import DEFAULT_KERNEL, KERNELS
from repro.pricing.validation import check_count

__all__ = ["BackendSpec", "RetryPolicy", "RunConfig"]


def _frozen_options(options: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    if not options:
        return ()
    return tuple(sorted(options.items()))


@dataclass(frozen=True)
class BackendSpec:
    """Recipe for building an execution backend by registered name.

    A spec is *not* a backend: backends are one-shot objects (the scheduler
    finalizes them at the end of a run) while a spec can :meth:`create` a
    fresh one for every run of the session.
    """

    name: str = "simulated"
    n_workers: int = 2
    options: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        check_count(self.n_workers, "BackendSpec.n_workers", error=ValuationError, floats=False)
        if isinstance(self.options, Mapping):
            object.__setattr__(self, "options", _frozen_options(self.options))
        if self.name == "remote":
            self._validate_remote_options()

    def _validate_remote_options(self) -> None:
        """Check and normalise the remote backend's ``hosts`` and ``reconnect`` options.

        The worker addresses are folded into a tuple of ``"host:port"``
        strings at spec-construction time, so a bad address fails *here* --
        with a clear message, before any socket is opened -- and the frozen
        spec stays hashable (a raw list value would not be).
        """
        from repro.cluster.backends.remote import check_reconnect, normalize_hosts
        from repro.errors import ClusterError

        options = dict(self.options)
        if not options.get("hosts"):
            raise ValuationError(
                "the remote backend needs a non-empty 'hosts' option, e.g. "
                "BackendSpec('remote', options={'hosts': ['10.0.0.4:9631']}); "
                "spawn_local_workers(n).hosts gives a loopback pool"
            )
        try:
            options["hosts"] = normalize_hosts(options["hosts"])
            check_reconnect(options.get("reconnect", False))
        except ClusterError as exc:
            raise ValuationError(str(exc)) from exc
        object.__setattr__(self, "options", _frozen_options(options))

    @classmethod
    def coerce(
        cls,
        value: "str | BackendSpec | WorkerBackend",
        n_workers: int | None = None,
        options: Mapping[str, Any] | None = None,
    ) -> "BackendSpec | WorkerBackend":
        """Normalise a user-supplied backend argument.

        Strings become specs (validated against the registry), specs pass
        through (re-sized if ``n_workers`` is given), and ready-made
        :class:`WorkerBackend` instances are returned untouched so callers
        can inject a pre-configured engine.
        """
        if isinstance(value, WorkerBackend):
            if options:
                raise ValuationError(
                    "backend options cannot be applied to an already-built "
                    "WorkerBackend instance; pass a name or BackendSpec instead"
                )
            return value
        if isinstance(value, BackendSpec):
            merged = dict(value.options)
            merged.update(options or {})
            if merged != dict(value.options) or (
                n_workers is not None and n_workers != value.n_workers
            ):
                return cls(
                    value.name,
                    n_workers if n_workers is not None else value.n_workers,
                    merged,
                )
            return value
        if isinstance(value, str):
            if value not in list_backends():
                raise ValuationError(
                    f"unknown backend {value!r}; registered backends: {list_backends()}"
                )
            return cls(value, n_workers if n_workers is not None else 2,
                       _frozen_options(options))
        raise ValuationError(
            f"backend must be a name, a BackendSpec or a WorkerBackend, "
            f"got {type(value).__name__}"
        )

    def create(self, strategy: str = "serialized_load", **extra: Any) -> WorkerBackend:
        """Build a fresh backend for one run."""
        merged = dict(self.options)
        merged.update(extra)
        return create_backend(
            self.name, n_workers=self.n_workers, strategy=strategy, **merged
        )


@dataclass(frozen=True)
class RetryPolicy:
    """When and how a run survives losing the whole worker pool.

    A :class:`~repro.errors.WorkerLostError` carries the ``job_ids`` that
    were still unresolved when the pool died.  With a retry policy on the
    :class:`RunConfig`, the session catches that error, rebuilds a fresh
    backend from its :class:`BackendSpec` and re-attaches the dispatch units
    still pending to it -- up to ``max_attempts`` total attempts, with
    ``backoff * backoff_factor**(k-1)`` seconds before the ``k``-th retry so
    crashed workers have time to come back.  The report carries the same
    result table as a clean run and is bit-identical to one.  Applies wherever a
    campaign is drained: ``run(...)`` and ``stream(...).result()``.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        check_count(self.max_attempts, "RetryPolicy.max_attempts", error=ValuationError,
                    floats=False)
        # ``nan < 0`` is false, and a NaN delay is a ``time.sleep`` error mid-retry
        if not (math.isfinite(self.backoff) and self.backoff >= 0):
            raise ValuationError("RetryPolicy.backoff must be a finite number >= 0")
        if not (math.isfinite(self.backoff_factor) and self.backoff_factor >= 1.0):
            raise ValuationError("RetryPolicy.backoff_factor must be a finite number >= 1")

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class RunConfig:
    """How one portfolio (or job-list) valuation is executed.

    ``batch=True`` turns on shared-path batch pricing: positions with equal
    simulation signatures (see :mod:`repro.pricing.batch`) are coalesced into
    :class:`~repro.pricing.batch.ProblemBatch` jobs that workers price
    against one simulated path set.  A family is never split: it travels as
    one batch job.  The result cache is the session's (a run without it is
    ``session.with_options(cache=None).run(...)``).

    Two streaming-lifecycle hooks ride along (excluded from equality/hash):
    ``progress`` is called once per collected position
    with a :class:`~repro.api.futures.StreamProgress`; ``cancel`` is a
    :class:`~repro.api.futures.CancelToken` that withdraws still-queued
    positions when fired (in-flight jobs finish; withdrawn positions are
    marked cancelled in the run result).

    ``retry`` (a :class:`RetryPolicy`) makes the session survive total pool
    loss: unresolved positions from a :class:`~repro.errors.WorkerLostError`
    are transparently resubmitted on a fresh backend built from the
    session's :class:`BackendSpec`.
    """

    #: transmission strategy; ``None`` (default) keeps the session's
    strategy: str | None = None
    #: registered name or a zero-argument factory of fresh policies (a
    #: configured one is ``partial(MyPolicy, ...)``); ``None`` keeps the session's
    scheduler: str | Callable[[], DispatchPolicy] | None = None
    batch: bool = False
    #: Monte-Carlo evaluation strategy for shared-path batch jobs: "stacked"
    #: (all groups of a plan as one stacked-array computation) or the
    #: reference "loop" kernel (per-group, per-member arithmetic).
    #: Bit-identical prices either way; the kernel never enters simulation
    #: signatures or cache digests.
    kernel: str = DEFAULT_KERNEL
    #: smallest signature family coalesced into a ProblemBatch.  The default
    #: (``None``) keeps the planner's threshold of 2; scenario-grid campaigns
    #: (:mod:`repro.pricing.scenarios`) set 1 so even singleton cells ride
    #: the batch path and the stacked kernel's shared-draw cohorts.
    min_group_size: int | None = None
    progress: Callable[..., None] | None = field(default=None, compare=False)
    cancel: Any | None = field(default=None, compare=False)
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.min_group_size is not None and self.min_group_size < 1:
            raise ValuationError("RunConfig.min_group_size must be >= 1 when given")
        if self.kernel not in KERNELS:
            raise ValuationError(
                f"unknown kernel {self.kernel!r}; known: {list(KERNELS)}"
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ValuationError(
                "RunConfig.retry must be a RetryPolicy (or None), got "
                f"{type(self.retry).__name__}"
            )
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ValuationError(
                f"unknown strategy {self.strategy!r}; known: {sorted(STRATEGIES)}"
            )
        # an unknown name fails here, not mid-campaign
        policy_factory(self.scheduler)

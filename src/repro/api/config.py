"""The backend recipe of the unified API.

A :class:`BackendSpec` is the frozen value a
:class:`~repro.api.session.ValuationSession` builds a fresh backend from for
every run: hashable by content, safe to share between sessions and cheap to
derive variants from with :func:`dataclasses.replace`.  Everything else about
a run is a keyword of the call that starts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.cluster.backends import WorkerBackend, create_backend, list_backends
from repro.errors import ValuationError
from repro.pricing.validation import check_count

__all__ = ["BackendSpec"]


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

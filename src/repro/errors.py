"""Exception hierarchy shared by all ``repro`` subpackages.

Keeping the exceptions in a single leaf module avoids import cycles between
``repro.pricing``, ``repro.serial`` and ``repro.cluster`` while still letting
callers catch a single :class:`ReproError` base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class PricingError(ReproError):
    """Raised when a pricing method cannot produce a valid result."""


class IncompatibleMethodError(PricingError):
    """Raised when a pricing method is applied to an unsupported
    (model, product) pair -- e.g. a closed-form Black-Scholes formula asked to
    price an option under the Heston model."""


class RegistryError(ReproError):
    """Raised on unknown model/option/method identifiers in the
    :mod:`repro.pricing.engine` registry."""


class ProblemStateError(ReproError):
    """Raised when a :class:`~repro.pricing.engine.PricingProblem` is used
    before it is fully specified (missing model, option or method), or when
    results are requested before :meth:`compute` has run."""


class SerializationError(ReproError):
    """Raised when encoding or decoding a serialized object fails."""


class ClusterError(ReproError):
    """Base class for errors raised by the cluster / MPI substrate."""


class CollectTimeoutError(ClusterError):
    """Raised by a real backend's ``collect(timeout=...)`` when no worker
    answered in time.  The jobs stay in flight; collection can be retried."""


class WorkerLostError(ClusterError):
    """Raised when the worker pool is lost with jobs still unanswered.

    As long as at least one worker survives (or a remote backend built with
    ``reconnect=True`` can still re-dial a dead host), the remote backend
    requeues the lost worker's in-flight jobs transparently; this error
    surfaces only when the *whole* pool is gone for good.  The
    multiprocessing backend, whose survivors cannot be trusted after a
    death, raises it as soon as one worker process dies holding dispatched
    jobs.  It is retryable in the scheduling sense:
    :attr:`job_ids` lists the jobs that were in flight, so a caller can
    rebuild a backend against fresh workers and resubmit exactly those jobs
    -- which is what the session layer does automatically under
    ``RunConfig(retry=RetryPolicy(...))``."""

    def __init__(self, message: str, job_ids: tuple[int, ...] = ()) -> None:
        super().__init__(message)
        #: jobs that were dispatched but never answered
        self.job_ids = tuple(job_ids)


class SimulationError(ClusterError):
    """Raised by the discrete-event cluster simulator on inconsistent
    configurations or corrupted event state."""


class SchedulingError(ReproError):
    """Raised by the portfolio schedulers on invalid configurations
    (e.g. zero workers, unknown strategy, duplicate job ids)."""


class PortfolioError(ReproError):
    """Raised by portfolio builders and the risk layer on invalid inputs."""


class ValuationError(ReproError):
    """Raised by the :class:`~repro.api.session.ValuationSession` facade on
    invalid session configurations or misuse of job handles (e.g. reading a
    handle whose job failed, or gathering an empty batch)."""


class JobCancelledError(ValuationError):
    """Raised when reading the result of a
    :class:`~repro.api.futures.PricingFuture` that was cancelled before it
    was dispatched to a worker."""


class FutureTimeoutError(ValuationError):
    """Raised when :meth:`~repro.api.futures.PricingFuture.result` (or
    ``wait``/``as_completed``) does not complete within its ``timeout``.
    The underlying job keeps running; the call can simply be retried."""


class ServeError(ReproError):
    """Raised by the ``repro-serve`` daemon layer on malformed requests or
    invalid server configurations.  Request-parsing failures surface to HTTP
    clients as 400 responses; they never kill the daemon."""

"""``repro.api`` -- the unified, typed entry point of the package.

One facade (:class:`ValuationSession`), configured by keywords and a
registered backend name, plus a normalized result hierarchy
(:class:`PriceResult`, :class:`RunResult`, :class:`SweepResult`,
:class:`ComparisonResult`) and the streaming job
lifecycle (:class:`PricingFuture`, :class:`JobSet`, :class:`StreamingRun`,
:class:`CancelToken`): runs, sweeps and strategy comparisons, futures via
:meth:`ValuationSession.submit_many`, completion-order streaming via
:meth:`ValuationSession.stream` and named backend selection all start here.
"""

from repro.pricing.cache import ResultCache
from repro.api.futures import (
    ALL_COMPLETED,
    FIRST_COMPLETED,
    FIRST_EXCEPTION,
    CancelToken,
    JobSet,
    PricingFuture,
    StreamingRun,
    StreamProgress,
)
from repro.api.results import (
    ComparisonResult,
    PriceResult,
    RunResult,
    SweepResult,
    ValuationResult,
)
from repro.api.session import ValuationSession

__all__ = [
    "ValuationSession",
    "PricingFuture",
    "JobSet",
    "StreamingRun",
    "StreamProgress",
    "CancelToken",
    "ALL_COMPLETED",
    "FIRST_COMPLETED",
    "FIRST_EXCEPTION",
    "ResultCache",
    "ValuationResult",
    "PriceResult",
    "RunResult",
    "SweepResult",
    "ComparisonResult",
]

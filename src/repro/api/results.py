"""Normalized result hierarchy returned by :class:`~repro.api.session.ValuationSession`.

Every session call returns a :class:`ValuationResult` subclass with the same
small contract -- ``ok``, ``format()`` and ``to_dict()`` -- wrapping the
lower-level objects that already existed in the stack
(:class:`~repro.core.runner.RunReport`,
:class:`~repro.core.speedup.SpeedupTable`), so downstream code can stay
uniform while the underlying reports remain reachable for anything the
wrappers do not expose.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.core.speedup import SpeedupTable, format_comparison_table
from repro.errors import ValuationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.portfolio import Portfolio
    from repro.core.runner import RunReport
    from repro.pricing.methods.base import PricingResult

__all__ = [
    "ValuationResult",
    "PriceResult",
    "RunResult",
    "SweepResult",
    "ComparisonResult",
]


class ValuationResult(abc.ABC):
    """Common contract of everything a session hands back."""

    @property
    @abc.abstractmethod
    def ok(self) -> bool:
        """Whether the computation completed without errors."""

    @abc.abstractmethod
    def format(self) -> str:
        """Human-readable rendering (tables use the paper's layout)."""

    @abc.abstractmethod
    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary view, for logging / JSON export."""

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class PriceResult(ValuationResult):
    """One priced option (wraps a :class:`~repro.pricing.methods.base.PricingResult`)."""

    price: float
    std_error: float | None = None
    delta: float | None = None
    label: str | None = None
    method: str | None = None
    #: submission-order job id, set on results streamed out of a portfolio run
    job_id: int | None = None
    raw: "PricingResult | None" = field(default=None, compare=False, repr=False)

    @classmethod
    def from_pricing(
        cls, result: "PricingResult", label: str | None = None, method: str | None = None
    ) -> "PriceResult":
        return cls(
            price=result.price,
            std_error=result.std_error,
            delta=result.delta,
            label=label,
            method=method,
            raw=result,
        )

    @classmethod
    def from_dict(
        cls,
        result: dict[str, Any],
        label: str | None = None,
        method: str | None = None,
        job_id: int | None = None,
    ) -> "PriceResult":
        """Build from a worker's plain result dictionary (streaming path)."""
        return cls(
            price=result["price"],
            std_error=result.get("std_error"),
            delta=result.get("delta"),
            label=label,
            method=method,
            job_id=job_id,
        )

    @property
    def ok(self) -> bool:
        return True

    @property
    def confidence_interval(self) -> tuple[float, float] | None:
        """95% confidence interval, for methods that report a standard error."""
        if self.std_error is None:
            return None
        half = 1.96 * self.std_error
        return (self.price - half, self.price + half)

    def format(self) -> str:
        parts = [f"price = {self.price:.6f}"]
        if self.std_error is not None:
            parts.append(f"+/- {self.std_error:.6f}")
        if self.delta is not None:
            parts.append(f"(delta {self.delta:.6f})")
        if self.label:
            parts.append(f"[{self.label}]")
        return " ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "price": self.price,
            "std_error": self.std_error,
            "delta": self.delta,
            "label": self.label,
            "method": self.method,
            "job_id": self.job_id,
        }


@dataclass
class RunResult(ValuationResult):
    """One portfolio (or job-list) valuation on one cluster configuration."""

    report: "RunReport"
    portfolio: "Portfolio | None" = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.report.errors

    @property
    def total_time(self) -> float:
        return self.report.total_time

    @property
    def n_jobs(self) -> int:
        return self.report.n_jobs

    @property
    def n_workers(self) -> int:
        return self.report.n_workers

    @property
    def n_errors(self) -> int:
        return len(self.report.errors)

    @property
    def errors(self) -> dict[int, str]:
        return dict(self.report.errors)

    @property
    def strategy(self) -> str:
        return self.report.strategy

    def prices(self) -> dict[int, float]:
        """Job id -> price, for runs that actually executed the problems."""
        return self.report.prices()

    def value(self, portfolio: "Portfolio | None" = None) -> float:
        """Mark-to-market value of the valued portfolio.

        Uses the portfolio the session ran (when it ran one) unless an
        explicit ``portfolio`` is given.
        """
        from repro.core.risk import portfolio_value

        target = portfolio if portfolio is not None else self.portfolio
        if target is None:
            raise ValuationError(
                "this result was produced from a raw job list; "
                "pass the portfolio explicitly to value()"
            )
        return portfolio_value(target, self.prices())

    def format(self) -> str:
        report = self.report
        line = (
            f"{report.n_jobs} jobs on {report.n_workers} workers "
            f"[{report.strategy}/{report.scheduler}] in {report.total_time:.3f}s"
        )
        if report.errors:
            line += f" ({len(report.errors)} errors)"
        return line

    def to_dict(self) -> dict[str, Any]:
        report = self.report
        return {
            "n_jobs": report.n_jobs,
            "n_workers": report.n_workers,
            "strategy": report.strategy,
            "scheduler": report.scheduler,
            "total_time": report.total_time,
            "master_busy": report.master_busy,
            "bytes_sent": report.bytes_sent,
            "n_errors": len(report.errors),
            "category_times": dict(report.category_times),
        }


@dataclass
class SweepResult(ValuationResult):
    """A CPU-count sweep for one strategy (wraps a :class:`SpeedupTable`)."""

    table: SpeedupTable

    @property
    def ok(self) -> bool:
        return bool(self.table.rows)

    @property
    def label(self) -> str:
        return self.table.label

    def cpu_counts(self) -> list[int]:
        return self.table.cpu_counts()

    def times(self) -> dict[int, float]:
        return self.table.times()

    def ratios(self) -> dict[int, float]:
        return self.table.ratios()

    def best_cpu_count(self) -> int:
        """CPU count with the smallest simulated wall-clock time."""
        times = self.table.times()
        return min(times, key=times.__getitem__)

    def format(self) -> str:
        return self.table.format()

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.table.label,
            "times": self.table.times(),
            "ratios": self.table.ratios(),
        }


@dataclass
class ComparisonResult(ValuationResult):
    """Sweeps for several transmission strategies (a full Table II/III)."""

    tables: dict[str, SpeedupTable]

    @property
    def ok(self) -> bool:
        return bool(self.tables) and all(t.rows for t in self.tables.values())

    @property
    def strategies(self) -> list[str]:
        return list(self.tables)

    def __getitem__(self, strategy: str) -> SweepResult:
        if strategy not in self.tables:
            raise ValuationError(
                f"no sweep for strategy {strategy!r}; have {self.strategies}"
            )
        return SweepResult(self.tables[strategy])

    def __iter__(self) -> Iterator[str]:
        return iter(self.tables)

    def format(self) -> str:
        return format_comparison_table(self.tables.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            name: {"times": table.times(), "ratios": table.ratios()}
            for name, table in self.tables.items()
        }

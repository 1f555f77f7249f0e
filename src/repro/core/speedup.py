"""Speedup tables in the format of the paper's Tables I-III.

The paper reports, for each CPU count ``n``, the wall-clock time and the
"Speedup ratio ... CPU time for 1 CPU / (n x CPU time for n CPUs)".  With one
CPU dedicated to the master, the effective parallelism is ``n - 1`` workers
and the ratio is normalised so that the 2-CPU row (one worker) equals 1:

``ratio(n) = T(2 CPUs) / ((n - 1) * T(n CPUs))``

which reproduces the ratios printed in the published tables (0.9789 for the
4-CPU row of Table I, from the times in :mod:`repro.core.paper_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import PortfolioError

__all__ = ["SpeedupRow", "SpeedupTable", "speedup_ratio", "format_comparison_table"]


def speedup_ratio(reference_time: float, reference_workers: int, time: float, workers: int) -> float:
    """The paper's speedup ratio, generalised to an arbitrary reference row."""
    if time <= 0 or reference_time <= 0:
        raise PortfolioError("times must be strictly positive")
    if workers < 1 or reference_workers < 1:
        raise PortfolioError("worker counts must be >= 1")
    return (reference_time * reference_workers) / (workers * time)


@dataclass
class SpeedupRow:
    """One line of a speedup table."""

    n_cpus: int
    time: float
    ratio: float

    @property
    def n_workers(self) -> int:
        return self.n_cpus - 1


@dataclass
class SpeedupTable:
    """Times and speedup ratios over a CPU-count sweep, for one strategy."""

    label: str
    rows: list[SpeedupRow] = field(default_factory=list)

    @classmethod
    def from_times(cls, label: str, times: dict[int, float]) -> "SpeedupTable":
        """Build a table from ``{n_cpus: wall_time}`` measurements.

        The smallest CPU count present is the normalisation reference (the
        paper uses 2 CPUs = 1 worker).
        """
        if not times:
            raise PortfolioError("cannot build a speedup table from no measurements")
        items = sorted(times.items())
        ref_cpus, ref_time = items[0]
        if ref_cpus < 2:
            raise PortfolioError("CPU counts must be >= 2 (one master + workers)")
        rows = [
            SpeedupRow(
                n_cpus=n_cpus,
                time=time,
                ratio=speedup_ratio(ref_time, ref_cpus - 1, time, n_cpus - 1),
            )
            for n_cpus, time in items
        ]
        return cls(label=label, rows=rows)

    # -- accessors -------------------------------------------------------------
    def cpu_counts(self) -> list[int]:
        return [row.n_cpus for row in self.rows]

    def times(self) -> dict[int, float]:
        return {row.n_cpus: row.time for row in self.rows}

    def ratios(self) -> dict[int, float]:
        return {row.n_cpus: row.ratio for row in self.rows}

    def row_for(self, n_cpus: int) -> SpeedupRow:
        for row in self.rows:
            if row.n_cpus == n_cpus:
                return row
        raise PortfolioError(f"no row for {n_cpus} CPUs in table {self.label!r}")

    # -- rendering --------------------------------------------------------------
    def format(self) -> str:
        """Plain-text rendering in the layout of the paper's tables."""
        lines = [
            f"Speedup table -- {self.label}",
            f"{'CPUs':>6}  {'Time (s)':>12}  {'Speedup ratio':>14}",
        ]
        for row in self.rows:
            lines.append(f"{row.n_cpus:>6}  {row.time:>12.4f}  {row.ratio:>14.6f}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


def format_comparison_table(tables: Iterable[SpeedupTable]) -> str:
    """Render several strategies side by side (the layout of Tables II/III)."""
    tables = list(tables)
    if not tables:
        raise PortfolioError("need at least one speedup table")
    cpu_counts = tables[0].cpu_counts()
    for table in tables[1:]:
        if table.cpu_counts() != cpu_counts:
            raise PortfolioError("all tables must cover the same CPU counts")
    header = f"{'CPUs':>6}"
    for table in tables:
        header += f"  {'Time ' + table.label:>18}  {'Ratio ' + table.label:>18}"
    lines = [header]
    for n_cpus in cpu_counts:
        line = f"{n_cpus:>6}"
        for table in tables:
            row = table.row_for(n_cpus)
            line += f"  {row.time:>18.4f}  {row.ratio:>18.6f}"
        lines.append(line)
    return "\n".join(lines)

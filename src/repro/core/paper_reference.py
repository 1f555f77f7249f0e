"""The published tables of the paper, as data.

Each of Tables I--III is one :class:`PaperTable` record in
:data:`PAPER_TABLES`: the book it was measured on, the published times
transcribed verbatim from the paper, and how close the simulated cluster is
required to stay to them.  Everything that regenerates a table -- the
``repro-bench table1|table2|table3`` commands, ``examples/cluster_scaling.py``,
``benchmarks/bench_paper_tables.py`` and the tier-1 pin in
``tests/core/test_paper_reference.py`` -- iterates over that registry; the
CPU counts and strategy columns are derived from the published rows.

* Table I   -- speedup of the Premia non-regression tests;
* Table II  -- 10,000-option toy portfolio, three transmission strategies;
* Table III -- 7,931-claim realistic portfolio, three transmission strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.portfolio import (
    Portfolio,
    build_realistic_portfolio,
    build_regression_portfolio,
    build_toy_portfolio,
)
from repro.core.speedup import SpeedupTable
from repro.errors import PortfolioError

__all__ = [
    "PAPER_TABLE_I",
    "PAPER_TABLE_II",
    "PAPER_TABLE_III",
    "PaperTable",
    "PAPER_TABLES",
    "paper_speedup_table",
    "ShapeComparison",
    "compare_with_paper",
]

#: Table I -- ``{n_cpus: time_seconds}`` (serialized-load / sload strategy)
PAPER_TABLE_I: dict[int, float] = {
    2: 838.004, 4: 285.356, 6: 172.146, 8: 124.78, 10: 97.1792, 16: 67.9677,
    32: 45.6611, 64: 34.2828, 96: 31.4682, 128: 30.5574, 160: 16.1006,
    192: 30.7013, 224: 30.5024, 256: 31.3172,
}

#: Table II -- ``{strategy: {n_cpus: time_seconds}}``
PAPER_TABLE_II: dict[str, dict[int, float]] = {
    "full_load": {
        2: 8.85665, 4: 3.55046, 8: 3.86341, 10: 4.06038, 12: 3.9264, 14: 3.9624,
        16: 4.05038, 18: 3.9524, 20: 4.13337, 24: 3.77643, 28: 3.9504, 32: 4.35934,
        36: 4.05938, 40: 4.06538, 45: 4.12437, 50: 4.19136,
    },
    "nfs": {
        2: 16.3965, 4: 4.91225, 8: 2.52961, 10: 2.08968, 12: 1.77673, 14: 1.57676,
        16: 1.40579, 18: 1.27181, 20: 1.17682, 24: 1.02784, 28: 0.928859, 32: 0.848871,
        36: 0.786881, 40: 0.832873, 45: 0.768884, 50: 0.738887,
    },
    "serialized_load": {
        2: 7.17891, 4: 1.73774, 8: 1.81472, 10: 1.87771, 12: 1.88571, 14: 1.81372,
        16: 1.9367, 18: 1.9497, 20: 1.87272, 24: 1.84772, 28: 1.77273, 32: 1.83072,
        36: 1.75773, 40: 1.81572, 45: 1.78273, 50: 1.70474,
    },
}

#: Table III -- ``{strategy: {n_cpus: time_seconds}}`` (320/384/512 rows exist
#: only for the full-load and serialized-load columns in the paper)
PAPER_TABLE_III: dict[str, dict[int, float]] = {
    "full_load": {
        2: 5770.16, 4: 1980.35, 6: 1154.05, 8: 823.056, 10: 641.166, 16: 389.295,
        32: 187.441, 64: 93.2008, 96: 61.5176, 128: 46.7399, 160: 38.4812,
        192: 31.5312, 224: 27.2929, 256: 24.4743, 320: 26.1740, 384: 20.0550,
        512: 19.7960,
    },
    "nfs": {
        2: 5799.66, 4: 1939.46, 6: 1161.25, 8: 828.07, 10: 645.544, 16: 389.097,
        32: 193.937, 64: 100.384, 96: 69.7884, 128: 54.8667, 160: 41.9726,
        192: 35.7536, 224: 31.3362, 256: 28.2047,
    },
    "serialized_load": {
        2: 5776.33, 4: 1925.29, 6: 1157.22, 8: 840.403, 10: 641.096, 16: 386.745,
        32: 189.354, 64: 94.7316, 96: 63.1974, 128: 47.6968, 160: 41.1997,
        192: 33.5979, 224: 31.5822, 256: 27.8228, 320: 26.7879, 384: 22.5696,
        512: 20.1779,
    },
}


@dataclass(frozen=True)
class PaperTable:
    """One published table: its book, its numbers and how close we must stay.

    ``published`` maps each transmission-strategy column to its
    ``{n_cpus: seconds}`` rows (Table I is the one-column case), and
    ``tolerance`` bounds, per column, the worst-row time ratio
    (:attr:`ShapeComparison.max_time_ratio`) the full-size simulated column
    may show against it -- the pin ``tests/core/test_paper_reference.py``
    enforces.  The bounds are the ratios measured when the pin was
    introduced (1.554 for Table I; 1.155 / 2.172 / 1.419 for Table II
    full load / NFS / serialized load; 1.210 / 1.099 / 1.269 for Table III)
    plus a few percent of headroom.
    """

    key: str
    title: str
    summary: str
    build_book: Callable[[], Portfolio]
    published: Mapping[str, Mapping[int, float]]
    tolerance: Mapping[str, float]

    @property
    def strategies(self) -> tuple[str, ...]:
        """The published columns, in the paper's order."""
        return tuple(self.published)

    @property
    def cpu_counts(self) -> list[int]:
        """Every CPU count any column publishes, ascending."""
        return sorted({n for rows in self.published.values() for n in rows})

    def reference(self, strategy: str) -> SpeedupTable:
        """One published column as a :class:`SpeedupTable`."""
        if strategy not in self.published:
            raise PortfolioError(
                f"unknown strategy {strategy!r}; expected one of {sorted(self.published)}"
            )
        label = f"paper {self.title}"
        if len(self.published) > 1:
            label += f" ({strategy})"
        return SpeedupTable.from_times(label, self.published[strategy])


#: the paper's three tables by ``repro-bench`` command name
PAPER_TABLES: dict[str, PaperTable] = {
    table.key: table
    for table in (
        PaperTable(
            key="table1",
            title="Table I",
            summary="non-regression tests speedup",
            build_book=build_regression_portfolio,
            published={"serialized_load": PAPER_TABLE_I},
            tolerance={"serialized_load": 1.6},
        ),
        PaperTable(
            key="table2",
            title="Table II",
            summary="toy portfolio, strategy comparison",
            build_book=build_toy_portfolio,
            published=PAPER_TABLE_II,
            tolerance={"full_load": 1.2, "nfs": 2.25, "serialized_load": 1.45},
        ),
        PaperTable(
            key="table3",
            title="Table III",
            summary="realistic portfolio, strategy comparison",
            build_book=build_realistic_portfolio,
            published=PAPER_TABLE_III,
            tolerance={"full_load": 1.25, "nfs": 1.15, "serialized_load": 1.3},
        ),
    )
}


def paper_speedup_table(table: str, strategy: str = "serialized_load") -> SpeedupTable:
    """Return one published column as a :class:`SpeedupTable`.

    Parameters
    ----------
    table:
        ``"I"``, ``"II"`` or ``"III"`` (also accepts ``"1"``, ``"table2"``,
        ``"Table III"``...).
    strategy:
        Transmission strategy column (Table I publishes only
        ``serialized_load``).
    """
    wanted = table.strip().upper().removeprefix("TABLE").strip()
    for record in PAPER_TABLES.values():
        if wanted in (record.title.split()[-1], record.key[-1]):
            return record.reference(strategy)
    raise PortfolioError(f"unknown table {table!r}; expected I, II or III")


@dataclass
class ShapeComparison:
    """Row-by-row comparison of a measured table against a published one."""

    n_common_rows: int
    max_time_ratio: float
    mean_time_ratio: float
    max_ratio_difference: float
    mean_ratio_difference: float


def compare_with_paper(measured: SpeedupTable, reference: SpeedupTable) -> ShapeComparison:
    """Compare a measured sweep against a published column.

    Only CPU counts present in both tables are compared.  ``time_ratio`` is
    ``max(measured, paper) / min(measured, paper)`` (so 1.0 is a perfect
    match); ``ratio_difference`` is the absolute difference of the speedup
    ratios.
    """
    common = sorted(set(measured.cpu_counts()) & set(reference.cpu_counts()))
    if not common:
        raise PortfolioError("the two tables have no CPU count in common")
    time_ratios = []
    ratio_diffs = []
    for n_cpus in common:
        measured_row = measured.row_for(n_cpus)
        reference_row = reference.row_for(n_cpus)
        hi = max(measured_row.time, reference_row.time)
        lo = min(measured_row.time, reference_row.time)
        time_ratios.append(hi / lo if lo > 0 else float("inf"))
        ratio_diffs.append(abs(measured_row.ratio - reference_row.ratio))
    return ShapeComparison(
        n_common_rows=len(common),
        max_time_ratio=max(time_ratios),
        mean_time_ratio=sum(time_ratios) / len(time_ratios),
        max_ratio_difference=max(ratio_diffs),
        mean_ratio_difference=sum(ratio_diffs) / len(ratio_diffs),
    )

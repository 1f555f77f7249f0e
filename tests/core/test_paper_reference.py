"""Tests of the published-table data and the shape-comparison helper."""

from __future__ import annotations

import pytest

from repro.api import ValuationSession
from repro.cluster.costmodel import paper_cost_model
from repro.core.paper_reference import (
    PAPER_TABLE_I,
    PAPER_TABLE_II,
    PAPER_TABLE_III,
    PAPER_TABLES,
    compare_with_paper,
    paper_speedup_table,
)
from repro.core.speedup import SpeedupTable
from repro.errors import PortfolioError


class TestPublishedData:
    def test_table_i_has_all_cpu_counts(self):
        assert sorted(PAPER_TABLE_I) == [2, 4, 6, 8, 10, 16, 32, 64, 96, 128, 160, 192, 224, 256]

    def test_registry_keys_are_the_cli_commands(self):
        assert list(PAPER_TABLES) == ["table1", "table2", "table3"]
        assert all(table.key == key for key, table in PAPER_TABLES.items())

    @pytest.mark.parametrize("key", sorted(PAPER_TABLES))
    def test_cpu_counts_and_strategies_are_derived_from_the_published_rows(self, key):
        table = PAPER_TABLES[key]
        union = set()
        for rows in table.published.values():
            union |= set(rows)
        assert table.cpu_counts == sorted(union)
        assert table.strategies == tuple(table.published)
        assert set(table.tolerance) == set(table.published)

    def test_table_i_is_the_one_column_case(self):
        table = PAPER_TABLES["table1"]
        assert table.strategies == ("serialized_load",)
        assert table.published["serialized_load"] is PAPER_TABLE_I
        assert table.reference("serialized_load").label == "paper Table I"
        assert PAPER_TABLES["table3"].cpu_counts[-1] == 512  # past the NFS column's 256

    def test_table_ii_strategies_and_rows(self):
        assert set(PAPER_TABLE_II) == {"full_load", "nfs", "serialized_load"}
        for column in PAPER_TABLE_II.values():
            assert sorted(column)[0] == 2
            assert sorted(column)[-1] == 50
            assert len(column) == 16

    def test_table_iii_row_counts(self):
        assert len(PAPER_TABLE_III["serialized_load"]) == 17
        assert len(PAPER_TABLE_III["nfs"]) == 14  # the NFS column stops at 256

    def test_published_ratios_recomputed_correctly(self):
        """Our ratio definition must reproduce the ratios printed in the paper."""
        table_i = paper_speedup_table("I")
        assert table_i.row_for(4).ratio == pytest.approx(0.9789, abs=2e-4)
        assert table_i.row_for(256).ratio == pytest.approx(0.104935, abs=1e-5)
        table_iii = paper_speedup_table("III", "full_load")
        assert table_iii.row_for(256).ratio == pytest.approx(0.924566, abs=1e-4)
        table_ii = paper_speedup_table("II", "nfs")
        assert table_ii.row_for(4).ratio == pytest.approx(1.11263, abs=1e-3)

    def test_serialized_load_beats_full_load_in_the_published_table_ii(self):
        """Sanity check of the transcription against the paper's conclusion."""
        for n_cpus, full_time in PAPER_TABLE_II["full_load"].items():
            assert PAPER_TABLE_II["serialized_load"][n_cpus] < full_time


class TestPaperSpeedupTable:
    def test_accepts_several_spellings(self):
        assert paper_speedup_table("1").label == paper_speedup_table("I").label
        assert paper_speedup_table("table2").cpu_counts()[0] == 2

    def test_unknown_table_or_strategy(self):
        with pytest.raises(PortfolioError):
            paper_speedup_table("IV")
        with pytest.raises(PortfolioError):
            paper_speedup_table("II", strategy="carrier_pigeon")


class TestCompareWithPaper:
    def test_perfect_match(self):
        reference = paper_speedup_table("I")
        comparison = compare_with_paper(reference, reference)
        assert comparison.max_time_ratio == pytest.approx(1.0)
        assert comparison.max_ratio_difference == pytest.approx(0.0)
        assert comparison.n_common_rows == len(PAPER_TABLE_I)

    def test_partial_overlap(self):
        measured = SpeedupTable.from_times("m", {2: 900.0, 16: 80.0, 1024: 10.0})
        comparison = compare_with_paper(measured, paper_speedup_table("I"))
        assert comparison.n_common_rows == 2
        assert comparison.max_time_ratio < 1.3

    def test_no_overlap(self):
        measured = SpeedupTable.from_times("m", {3: 10.0, 5: 5.0})
        with pytest.raises(PortfolioError):
            compare_with_paper(measured, paper_speedup_table("I"))


_PINNED = [(key, strategy) for key in sorted(PAPER_TABLES) for strategy in PAPER_TABLES[key].strategies]


class TestSimulatedTablesArePinnedToThePaper:
    """Every published column, regenerated full-size on the simulated cluster,
    stays within the tolerance its :class:`PaperTable` record states."""

    @pytest.fixture(scope="class")
    def jobs_of(self):
        built = {}

        def jobs(key):
            if key not in built:
                built[key] = PAPER_TABLES[key].build_book().build_jobs(
                    cost_model=paper_cost_model()
                )
            return built[key]

        return jobs

    @pytest.mark.parametrize("key, strategy", _PINNED)
    def test_full_size_column_within_the_recorded_tolerance(self, jobs_of, key, strategy):
        table = PAPER_TABLES[key]
        reference = table.reference(strategy)
        measured = ValuationSession().sweep(
            jobs_of(key), reference.cpu_counts(), strategy=strategy
        ).table
        comparison = compare_with_paper(measured, reference)
        assert comparison.n_common_rows == len(table.published[strategy])
        assert comparison.max_time_ratio <= table.tolerance[strategy]

"""Tests of the speedup-table computation (the paper's ratio definition)."""

from __future__ import annotations

import pytest

from repro.core.paper_reference import PAPER_TABLE_I, PAPER_TABLE_III
from repro.core.speedup import SpeedupTable, format_comparison_table, speedup_ratio
from repro.errors import PortfolioError


class TestSpeedupRatio:
    def test_reference_row_is_one(self):
        assert speedup_ratio(100.0, 1, 100.0, 1) == pytest.approx(1.0)

    def test_paper_table_i_values(self):
        """Reproduce the published ratios of Table I from its times."""
        t = PAPER_TABLE_I
        assert speedup_ratio(t[2], 1, t[4], 3) == pytest.approx(0.9789, abs=2e-4)
        assert speedup_ratio(t[2], 1, t[16], 15) == pytest.approx(0.821963, abs=1e-5)
        assert speedup_ratio(t[2], 1, t[256], 255) == pytest.approx(0.104935, abs=1e-5)

    def test_paper_table_iii_values(self):
        t = PAPER_TABLE_III["full_load"]
        assert speedup_ratio(t[2], 1, t[4], 3) == pytest.approx(0.971238, abs=1e-5)
        assert speedup_ratio(t[2], 1, t[256], 255) == pytest.approx(0.924566, abs=1e-5)

    def test_invalid_inputs(self):
        with pytest.raises(PortfolioError):
            speedup_ratio(0.0, 1, 10.0, 1)
        with pytest.raises(PortfolioError):
            speedup_ratio(10.0, 1, -1.0, 1)
        with pytest.raises(PortfolioError):
            speedup_ratio(10.0, 0, 1.0, 1)


class TestSpeedupTable:
    def test_from_times(self):
        table = SpeedupTable.from_times("test", {2: 100.0, 4: 40.0, 8: 20.0})
        assert table.cpu_counts() == [2, 4, 8]
        assert table.row_for(2).ratio == pytest.approx(1.0)
        assert table.row_for(4).ratio == pytest.approx(100.0 / (3 * 40.0))
        assert table.row_for(8).ratio == pytest.approx(100.0 / (7 * 20.0))
        assert table.row_for(8).n_workers == 7

    def test_rows_sorted_by_cpu_count(self):
        table = SpeedupTable.from_times("test", {8: 20.0, 2: 100.0, 4: 40.0})
        assert table.cpu_counts() == [2, 4, 8]

    def test_times_and_ratios_accessors(self):
        table = SpeedupTable.from_times("x", {2: 10.0, 4: 5.0})
        assert table.times() == {2: 10.0, 4: 5.0}
        assert set(table.ratios()) == {2, 4}

    def test_missing_row(self):
        table = SpeedupTable.from_times("x", {2: 10.0})
        with pytest.raises(PortfolioError):
            table.row_for(16)

    def test_validation(self):
        with pytest.raises(PortfolioError):
            SpeedupTable.from_times("x", {})
        with pytest.raises(PortfolioError):
            SpeedupTable.from_times("x", {1: 5.0})

    def test_format_contains_all_rows(self):
        table = SpeedupTable.from_times("serialized_load", {2: 100.0, 4: 40.0})
        text = table.format()
        assert "serialized_load" in text
        assert "100.0000" in text and "40.0000" in text
        assert str(table) == text


class TestComparisonTable:
    def test_side_by_side_layout(self):
        a = SpeedupTable.from_times("full_load", {2: 10.0, 4: 5.0})
        b = SpeedupTable.from_times("nfs", {2: 20.0, 4: 6.0})
        text = format_comparison_table([a, b])
        assert "full_load" in text and "nfs" in text
        assert len(text.splitlines()) == 3  # header + one line per CPU count

    def test_mismatched_cpu_counts_rejected(self):
        a = SpeedupTable.from_times("a", {2: 10.0, 4: 5.0})
        b = SpeedupTable.from_times("b", {2: 20.0, 8: 6.0})
        with pytest.raises(PortfolioError):
            format_comparison_table([a, b])

    def test_empty_rejected(self):
        with pytest.raises(PortfolioError):
            format_comparison_table([])

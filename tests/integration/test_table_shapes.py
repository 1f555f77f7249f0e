"""Qualitative reproduction of the paper's Tables I, II and III.

These tests run the simulated-cluster sweeps on (sub-sampled) versions of the
paper's workloads and assert the *shape* claims of the evaluation section:
who wins, where the speedup rolls off, where the crossovers fall.  The full
tables are regenerated by the benchmark harness under ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.api import ValuationSession
from repro.cluster.costmodel import paper_cost_model
from repro.core import (
    build_realistic_portfolio,
    build_regression_portfolio,
    build_toy_portfolio,
)


@pytest.fixture(scope="module")
def cost_model():
    return paper_cost_model()


@pytest.fixture(scope="module")
def regression_jobs(cost_model):
    return build_regression_portfolio(profile="paper").build_jobs(cost_model=cost_model)


@pytest.fixture(scope="module")
def toy_jobs(cost_model):
    # 2,000 options keep the test fast; the per-job costs are identical to the
    # 10,000-option benchmark so the qualitative behaviour is unchanged
    return build_toy_portfolio(n_options=2_000).build_jobs(cost_model=cost_model)


@pytest.fixture(scope="module")
def realistic_jobs(cost_model):
    portfolio = build_realistic_portfolio(profile="paper", scale=0.1)
    return portfolio.build_jobs(cost_model=cost_model)


class TestTable1Shape:
    """Table I: non-regression tests speed up almost linearly to ~16 CPUs,
    then the short total workload caps the achievable speedup."""

    def test_linear_then_plateau(self, regression_jobs):
        table = ValuationSession().sweep(
            regression_jobs, [2, 4, 8, 16, 64, 256], strategy="serialized_load"
        ).table
        # near-linear regime at small CPU counts
        assert table.row_for(4).ratio > 0.9
        assert table.row_for(8).ratio > 0.8
        assert table.row_for(16).ratio > 0.7
        # adding many more CPUs keeps reducing the ratio...
        assert table.row_for(256).ratio < 0.5 * table.row_for(16).ratio
        # ...because the makespan plateaus near the longest single test
        longest = max(job.compute_cost for job in regression_jobs)
        assert table.row_for(256).time == pytest.approx(longest, rel=0.25)
        assert table.row_for(64).time < table.row_for(16).time

    def test_total_work_scale_matches_the_paper(self, regression_jobs):
        """T(2 CPUs) in the paper is 838 s; ours should be the same order."""
        total = sum(job.compute_cost for job in regression_jobs)
        assert 300 < total < 3000


class TestTable2Shape:
    """Table II: with near-free computations the master is the bottleneck;
    serialized load always beats full load, and NFS wins at larger CPU counts
    by offloading the file reads to the workers."""

    @pytest.fixture(scope="class")
    def tables(self, toy_jobs):
        return ValuationSession().compare(toy_jobs, [2, 4, 8, 12, 16, 24, 32, 50]).tables

    def test_serialized_load_always_beats_full_load(self, tables):
        for n_cpus in tables["full_load"].cpu_counts():
            assert (
                tables["serialized_load"].row_for(n_cpus).time
                < tables["full_load"].row_for(n_cpus).time
            )

    def test_speedup_ratios_collapse_for_cheap_jobs(self, tables):
        """Efficiency falls well below 1 once the master saturates."""
        for label in ("full_load", "serialized_load"):
            assert tables[label].row_for(50).ratio < 0.35
            assert tables[label].row_for(2).ratio == pytest.approx(1.0)

    def test_times_flatten_at_large_cpu_counts(self, tables):
        """Adding CPUs beyond the master-bound regime barely helps."""
        for label in ("full_load", "serialized_load"):
            t32, t50 = tables[label].row_for(32).time, tables[label].row_for(50).time
            assert t50 == pytest.approx(t32, rel=0.15)

    def test_full_load_flattens_higher_than_serialized_load(self, tables):
        assert (
            tables["full_load"].row_for(50).time
            > 1.5 * tables["serialized_load"].row_for(50).time
        )

    def test_nfs_slowest_on_the_cold_first_run_then_wins_at_scale(self, tables):
        # 2 CPUs: the cold NFS reads make NFS the slowest option (first row of
        # Table II: 16.4 s vs 8.9 s and 7.2 s)
        assert tables["nfs"].row_for(2).time > tables["serialized_load"].row_for(2).time
        assert tables["nfs"].row_for(2).time > tables["full_load"].row_for(2).time
        # at 50 CPUs NFS is the fastest column, as in the paper
        assert tables["nfs"].row_for(50).time < tables["serialized_load"].row_for(50).time
        assert tables["nfs"].row_for(50).time < tables["full_load"].row_for(50).time

    def test_nfs_crossover_with_serialized_load(self, tables):
        """NFS loses at small CPU counts and wins at large ones, so there is a
        crossover somewhere in between (the paper observes it around 12)."""
        nfs = tables["nfs"]
        sload = tables["serialized_load"]
        diffs = [nfs.row_for(n).time - sload.row_for(n).time for n in nfs.cpu_counts()]
        assert diffs[0] > 0
        assert diffs[-1] < 0


class TestTable3Shape:
    """Table III: the heterogeneous realistic portfolio keeps all strategies
    close together and scales nearly linearly to hundreds of CPUs, degrading
    at 512."""

    @pytest.fixture(scope="class")
    def tables(self, realistic_jobs):
        return ValuationSession().compare(realistic_jobs, [2, 8, 26, 51], strategies=(
            "full_load", "nfs", "serialized_load",
        )).tables

    def test_strategies_within_a_few_percent(self, tables):
        """'The computation times ... are fairly the same no matter how the
        objects are sent' (communication is negligible vs compute)."""
        for n_cpus in (2, 8, 26):
            times = [tables[s].row_for(n_cpus).time for s in tables]
            assert max(times) / min(times) < 1.10

    def test_near_linear_speedup_in_the_scaled_range(self, tables):
        # the sub-sampled portfolio has ~790 jobs; 25 and 50 workers are the
        # scaled equivalents of the paper's 256 and 512 CPUs
        for strategy in tables:
            assert tables[strategy].row_for(8).ratio > 0.95
            assert tables[strategy].row_for(26).ratio > 0.85

    def test_speedup_degrades_when_workers_approach_job_granularity(self, tables):
        for strategy in tables:
            assert tables[strategy].row_for(51).ratio < tables[strategy].row_for(26).ratio

    def test_full_scale_total_work_matches_table_iii(self, cost_model):
        portfolio = build_realistic_portfolio(profile="paper")
        total = portfolio.total_estimated_cost(cost_model)
        # paper: 5770 s on one worker
        assert total == pytest.approx(5770.0, rel=0.25)

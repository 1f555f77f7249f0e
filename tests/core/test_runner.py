"""Tests of the run report and the CPU-count sweeps, through the session."""

from __future__ import annotations

import pytest

from repro.api import ValuationSession
from repro.cluster.costmodel import paper_cost_model
from repro.core.portfolio import build_toy_portfolio
from repro.core.runner import RunReport
from repro.core.scheduler import ChunkedPolicy


@pytest.fixture(scope="module")
def toy_jobs():
    """A small, cheap, simulation-only job list."""
    return build_toy_portfolio(n_options=300).build_jobs(cost_model=paper_cost_model())


class TestRunPortfolio:
    def test_sequential_execution_produces_prices(self):
        portfolio = build_toy_portfolio(n_options=12)
        report = ValuationSession("local", "serialized_load", n_workers=1).run(portfolio).report
        assert report.n_jobs == 12
        assert not report.errors
        prices = report.prices()
        assert len(prices) == 12
        assert all(p >= 0 for p in prices.values())
        assert report.strategy == "serialized_load"
        assert report.scheduler == "robin_hood"
        assert report.n_cpus == report.n_workers + 1

    def test_multiprocessing_matches_sequential(self):
        portfolio = build_toy_portfolio(n_options=16)
        sequential = ValuationSession("local", n_workers=1).run(portfolio)
        parallel = ValuationSession("multiprocessing", n_workers=2).run(portfolio)
        assert parallel.prices() == pytest.approx(sequential.prices())

    def test_store_based_run_with_nfs_strategy(self, tmp_path):
        portfolio = build_toy_portfolio(n_options=10)
        store = portfolio.to_store(tmp_path / "store")
        report = ValuationSession("local", "nfs", n_workers=1).run(portfolio, store=store)
        assert not report.errors
        assert len(report.prices()) == 10

    def test_simulated_run_reports_virtual_time(self, toy_jobs):
        report = ValuationSession("simulated", "serialized_load", n_workers=3).run(
            toy_jobs
        ).report
        assert report.total_time > 0
        assert report.n_workers == 3
        assert report.results[0] is None  # timing-only simulation
        assert report.category_times["vanilla_cf"] > 0
        assert 0.0 < report.mean_worker_utilisation <= 1.0

    def test_report_from_outcome_consistency(self, toy_jobs):
        report = ValuationSession("simulated", n_workers=3).run(toy_jobs).report
        assert isinstance(report, RunReport)
        assert report.n_jobs == len(toy_jobs)
        assert report.bytes_sent > 0
        assert report.master_busy <= report.total_time + 1e-9


class TestSweeps:
    def test_sweep_returns_monotone_speedups_for_compute_bound_work(self):
        # make the jobs expensive enough that adding workers always helps
        jobs = build_toy_portfolio(n_options=64).build_jobs(
            cost_model=paper_cost_model().with_scale(2000.0)
        )
        table = ValuationSession().sweep(jobs, [2, 3, 5, 9], strategy="serialized_load").table
        times = table.times()
        assert times[2] > times[3] > times[5] > times[9]
        assert table.row_for(2).ratio == pytest.approx(1.0)
        for row in table.rows:
            assert 0.5 < row.ratio <= 1.05

    def test_sweep_custom_scheduler(self, toy_jobs):
        session = ValuationSession(scheduler=ChunkedPolicy)
        table = session.sweep(toy_jobs, [2, 4], strategy="nfs")
        assert set(table.times()) == {2, 4}

    def test_shared_nfs_cache_reproduces_the_table_ii_artefact(self, toy_jobs):
        session = ValuationSession()
        shared = session.sweep(toy_jobs, [2, 4], strategy="nfs", share_nfs_cache=True)
        # with a shared server cache, the 4-CPU run benefits from the files
        # the 2-CPU run already touched: the apparent speedup is super-linear
        assert shared.ratios()[4] > 1.0
        cold = session.sweep(toy_jobs, [2, 4], strategy="nfs", share_nfs_cache=False)
        assert cold.ratios()[4] < shared.ratios()[4]

    def test_compare_strategies_covers_all_three(self, toy_jobs):
        tables = ValuationSession().compare(toy_jobs, [2, 4, 8]).tables
        assert set(tables) == {"full_load", "nfs", "serialized_load"}
        for table in tables.values():
            assert table.cpu_counts() == [2, 4, 8]

    def test_serialized_load_beats_full_load_everywhere(self, toy_jobs):
        """The paper: 'The only objective comparison is between the full load
        and serialized load, the latter is always the faster.'"""
        tables = ValuationSession().compare(
            toy_jobs, [2, 4, 8, 16], strategies=("full_load", "serialized_load")
        ).tables
        for n_cpus in (2, 4, 8, 16):
            assert (
                tables["serialized_load"].row_for(n_cpus).time
                < tables["full_load"].row_for(n_cpus).time
            )

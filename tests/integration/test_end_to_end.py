"""End-to-end integration tests across the pricing, serial, cluster and core
layers."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from repro.api import ValuationSession
from repro.cluster import paper_cost_model
from repro.core import (
    build_realistic_portfolio,
    build_toy_portfolio,
    portfolio_value,
)
from repro.core.paper_reference import PAPER_TABLES


class TestPortfolioAcrossBackends:
    """The same portfolio must give identical prices on every backend and
    under every transmission strategy."""

    @pytest.fixture(scope="class")
    def portfolio(self):
        return build_realistic_portfolio(profile="fast", scale=0.005, seed=7)

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory, portfolio):
        return portfolio.to_store(tmp_path_factory.mktemp("portfolio"))

    @pytest.fixture(scope="class")
    def reference_prices(self, portfolio, store):
        report = ValuationSession("local", "serialized_load", n_workers=1).run(
            portfolio, store=store
        )
        assert not report.errors
        return report.prices()

    @pytest.mark.parametrize("strategy", ["full_load", "nfs", "serialized_load"])
    def test_sequential_strategies_agree(self, portfolio, store, reference_prices, strategy):
        report = ValuationSession("local", strategy, n_workers=1).run(portfolio, store=store)
        assert not report.errors
        assert report.prices() == pytest.approx(reference_prices)

    @pytest.mark.parametrize("strategy", ["full_load", "nfs", "serialized_load"])
    def test_multiprocessing_strategies_agree(self, portfolio, store, reference_prices, strategy):
        report = ValuationSession("multiprocessing", strategy, n_workers=2).run(
            portfolio, store=store
        )
        assert not report.errors
        assert report.prices() == pytest.approx(reference_prices)

    def test_portfolio_value_consistent(self, portfolio, reference_prices):
        value_from_cluster = portfolio_value(portfolio, reference_prices)
        value_recomputed = portfolio_value(portfolio)
        assert value_from_cluster == pytest.approx(value_recomputed, rel=1e-9)


class TestFig4MasterWorkerScript:
    """Behavioural reproduction of the paper's Fig. 4/5 master/slave listing
    (``examples/master_worker_mpi.py``) over real worker processes, shipping
    serialized problems end to end."""

    @pytest.mark.parametrize("n_problems", [18, 2])  # 2: fewer jobs than slaves
    def test_robin_hood_with_serialized_problems(self, tmp_path, n_problems):
        example = Path(__file__).resolve().parents[2] / "examples" / "master_worker_mpi.py"
        master = runpy.run_path(str(example))["master"]
        portfolio = build_toy_portfolio(n_options=n_problems)
        store = portfolio.to_store(tmp_path / "problems")
        expected = {index: store.load(index).compute().price for index in range(n_problems)}

        assert master(portfolio.build_jobs(store=store), n_slaves=3) == expected


class TestCommandLine:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BlackScholes1D" in out and "CF_Call" in out

    def test_price_command(self, capsys):
        from repro.cli import main

        assert main(["price", "--spot", "100", "--strike", "100", "--maturity", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "price  = 10.45" in out

    @pytest.mark.parametrize("key", sorted(PAPER_TABLES))
    def test_table_commands_print_the_registry_sweep(self, capsys, key):
        """``repro-bench <key>`` is ``session.compare`` over ``PAPER_TABLES[key]``."""
        from repro.cli import main

        assert main([key, "--cpus", "2", "4", "8"]) == 0
        out = capsys.readouterr().out

        table = PAPER_TABLES[key]
        session = ValuationSession(backend="simulated", cost_model=paper_cost_model())
        book = table.build_book()
        if key == "table1":  # the one-column table keeps SpeedupTable's layout
            expected = session.sweep(book, [2, 4, 8], strategy="serialized_load").format()
            assert "Speedup" in expected
        else:
            expected = session.compare(book, [2, 4, 8], strategies=table.strategies).format()
        assert out == expected + "\n"

    def test_run_command(self, capsys):
        from repro.cli import main

        assert main(["run", "--portfolio", "toy", "--positions", "12", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "portfolio value" in out

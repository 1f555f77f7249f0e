"""End-to-end integration tests across the pricing, serial, cluster and core
layers."""

from __future__ import annotations

import pytest

from repro.api import ValuationSession
from repro.cluster import MultiprocessingBackend, SequentialBackend, mpi, paper_cost_model
from repro.cluster.simcluster import ClusterSpec, SimulatedClusterBackend
from repro.core import (
    build_realistic_portfolio,
    build_toy_portfolio,
    portfolio_value,
)
from repro.serial import Serial, sload


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
        report = ValuationSession(SequentialBackend(), "serialized_load").run(
            portfolio, store=store
        )
        assert not report.errors
        return report.prices()

    @pytest.mark.parametrize("strategy", ["full_load", "nfs", "serialized_load"])
    def test_sequential_strategies_agree(self, portfolio, store, reference_prices, strategy):
        report = ValuationSession(SequentialBackend(), strategy).run(portfolio, store=store)
        assert not report.errors
        assert report.prices() == pytest.approx(reference_prices)

    @pytest.mark.parametrize("strategy", ["full_load", "nfs", "serialized_load"])
    def test_multiprocessing_strategies_agree(self, portfolio, store, reference_prices, strategy):
        backend = MultiprocessingBackend(n_workers=2)
        report = ValuationSession(backend, strategy).run(portfolio, store=store)
        assert not report.errors
        assert report.prices() == pytest.approx(reference_prices)

    def test_simulated_backend_in_execute_mode_agrees(self, portfolio, store, reference_prices):
        backend = SimulatedClusterBackend(
            ClusterSpec.homogeneous(4), strategy="serialized_load", execute=True
        )
        jobs = portfolio.build_jobs(store=store, attach_problems=True)
        report = ValuationSession(backend, "serialized_load").run(jobs)
        assert not report.errors
        assert report.prices() == pytest.approx(reference_prices)
        assert report.total_time > 0  # virtual seconds

    def test_portfolio_value_consistent(self, portfolio, reference_prices):
        value_from_cluster = portfolio_value(portfolio, reference_prices)
        value_recomputed = portfolio_value(portfolio)
        assert value_from_cluster == pytest.approx(value_recomputed, rel=1e-9)


class TestFig4MasterWorkerScript:
    """Behavioural reproduction of the paper's Fig. 4/5 master/slave listing
    on the MPI facade, shipping serialized problems end to end."""

    def test_robin_hood_with_serialized_problems(self, tmp_path):
        portfolio = build_toy_portfolio(n_options=18)
        store = portfolio.to_store(tmp_path / "problems")
        paths = store.paths()
        expected = {
            str(path): store.load(i).compute().price for i, path in enumerate(paths)
        }

        TAG_NAME, TAG_PROBLEM, TAG_RESULT = 1, 2, 3

        def slave(comm):
            while True:
                name = comm.recv_obj(source=0, tag=TAG_NAME)
                if name == "":
                    break
                packed = comm.recv(source=0, tag=TAG_PROBLEM)
                problem = mpi.unpack(packed)
                result = problem.compute()
                comm.send_obj({"name": name, "price": result.price}, dest=0, tag=TAG_RESULT)

        def send_problem(comm, path, dest):
            serial: Serial = sload(path)
            comm.send_obj(str(path), dest=dest, tag=TAG_NAME)
            comm.send(mpi.pack(serial), dest=dest, tag=TAG_PROBLEM)

        n_slaves = 3
        results = {}
        with mpi.spawn(n_slaves, slave) as comm:
            queue = list(paths)
            for rank in range(1, n_slaves + 1):
                send_problem(comm, queue.pop(0), rank)
            while queue:
                status = comm.probe(source=mpi.ANY_SOURCE, tag=TAG_RESULT)
                answer = comm.recv_obj(source=status.source, tag=TAG_RESULT)
                results[answer["name"]] = answer["price"]
                send_problem(comm, queue.pop(0), status.source)
            for _ in range(n_slaves):
                answer = comm.recv_obj(source=mpi.ANY_SOURCE, tag=TAG_RESULT)
                results[answer["name"]] = answer["price"]
            for rank in range(1, n_slaves + 1):
                comm.send_obj("", dest=rank, tag=TAG_NAME)

        assert results == pytest.approx(expected)


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

    def test_table1_command_quick(self, capsys):
        from repro.cli import main

        assert main(["table1", "--cpus", "2", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "Speedup" in out
        assert " 8 " in out or "     8" in out

    def test_run_command(self, capsys):
        from repro.cli import main

        assert main(["run", "--portfolio", "toy", "--positions", "12", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "portfolio value" in out

"""Integration tests of the ``repro-bench sweep`` subcommand."""

from __future__ import annotations

from repro.cli import build_parser, main


class TestSweepParser:
    def test_sweep_registered_with_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.portfolio == "toy"
        assert args.cpus == [2, 4, 8, 16]
        assert args.strategy == "serialized_load"
        assert args.scheduler is None
        assert args.cold_nfs_cache is False

    def test_sweep_accepts_cpu_list_and_strategy(self):
        args = build_parser().parse_args(
            ["sweep", "--cpus", "2", "4", "--strategy", "nfs", "--cold-nfs-cache"]
        )
        assert args.cpus == [2, 4]
        assert args.strategy == "nfs"
        assert args.cold_nfs_cache is True


class TestSweepExecution:
    def test_sweep_prints_speedup_table(self, capsys):
        code = main(
            ["sweep", "--portfolio", "toy", "--positions", "30", "--cpus", "2", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Speedup table" in out
        assert "toy/serialized_load" in out
        # one row per CPU count plus the summary line
        assert "fastest configuration:" in out
        for n_cpus in ("2", "4"):
            assert any(
                line.strip().startswith(n_cpus) for line in out.splitlines()
            ), f"missing row for {n_cpus} CPUs"

    def test_sweep_with_scheduler_and_cold_cache(self, capsys):
        code = main(
            [
                "sweep", "--portfolio", "toy", "--positions", "20",
                "--cpus", "2", "4", "--strategy", "nfs",
                "--scheduler", "chunked_robin_hood", "--cold-nfs-cache",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "toy/nfs" in out

    def test_sweep_rejects_unknown_scheduler(self, capsys):
        # validated through RunConfig, reported as a clean CLI error
        assert main(["sweep", "--positions", "10", "--scheduler", "fifo"]) == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_sweep_scheduler_options_flow_through(self, capsys):
        code = main([
            "sweep", "--positions", "16", "--cpus", "2", "4",
            "--scheduler", "chunked_robin_hood", "--scheduler-opt", "chunk_size=4",
        ])
        assert code == 0
        assert "Speedup table" in capsys.readouterr().out

    def test_batch_flag_reaches_the_sweep(self, capsys):
        # --batch used to be parsed and silently ignored
        from repro.api import ValuationSession
        from repro.core import PORTFOLIO_BUILDERS

        argv = ["sweep", "--portfolio", "regression", "--cpus", "2", "4"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--batch"]) == 0
        batched = capsys.readouterr().out
        assert batched != plain
        expected = ValuationSession(backend="simulated").sweep(
            PORTFOLIO_BUILDERS["regression"](profile="fast"), [2, 4],
            label="regression/serialized_load", batch=True,
        )
        assert batched.startswith(expected.format())

    def test_scheduler_opt_without_scheduler_is_rejected(self, capsys):
        assert main(["sweep", "--scheduler-opt", "chunk_size=4"]) == 2
        assert "options need a registered scheduler name" in capsys.readouterr().err

    def test_bad_scheduler_option_value_is_rejected(self, capsys):
        code = main([
            "sweep", "--scheduler", "chunked_robin_hood",
            "--scheduler-opt", "chunk_size=0",
        ])
        assert code == 2
        assert "chunk_size" in capsys.readouterr().err

    def test_list_shows_backend_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Backends:" in out
        for name in ("local", "multiprocessing", "simulated"):
            assert f"  {name}" in out

"""Integration tests of the ``repro-bench sweep`` subcommand."""

from __future__ import annotations

import pytest

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

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["sweep", "--positions", "10", "--scheduler", "fifo"], "unknown scheduler"),
            (["sweep", "--cpus", "0"], "at least 2 CPUs"),
            (["run", "--workers", "0"], "n_workers must be >= 1"),
            (["run", "--strategy", "bogus"], "unknown strategy"),
            (["run", "--backend", "bogus"], "unknown backend"),
            (["run", "--backend", "remote", "--hosts", "nonsense"], "not 'host:port'"),
            (["table2", "--strategy", "bogus"], "unknown strategy"),
            (["price", "--method", "bogus"], "unknown method"),
        ],
    )
    def test_bad_input_is_one_clean_error_line(self, capsys, argv, message):
        # every ReproError leaves through main's one handler, not a traceback
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_scheduler_opt_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--scheduler", "chunked_robin_hood", "--scheduler-opt", "k=4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    def test_list_shows_backend_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Backends:" in out
        for name in ("local", "multiprocessing", "simulated"):
            assert f"  {name}" in out

"""Command-line interface of the benchmark.

``repro-bench`` exposes the main workflows without writing Python; every
subcommand is a thin veneer over the unified
:class:`~repro.api.session.ValuationSession` facade:

* ``repro-bench list`` -- registered models, options, methods, backends
  and schedulers;
* ``repro-bench price`` -- price one option from the command line;
* ``repro-bench table1|table2|table3`` -- regenerate the paper's tables on
  the simulated cluster (one subcommand per entry of
  :data:`repro.core.paper_reference.PAPER_TABLES`);
* ``repro-bench run`` -- actually value a (scaled-down) portfolio, either on
  local multiprocessing workers or on remote TCP workers
  (``--backend remote --hosts host:port ...``; see the ``repro-worker``
  console script in :mod:`repro.cluster.worker`);
* ``repro-bench risk`` -- portfolio Greeks and a historical-VaR campaign on
  the CRN scenario-grid engine (:mod:`repro.pricing.scenarios`);
* ``repro-bench sweep`` -- simulate one portfolio over a list of CPU counts
  and print the speedup table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__

__all__ = ["main", "build_parser"]

_PORTFOLIO_CHOICES = ("toy", "realistic", "regression")


def _add_portfolio_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--portfolio", choices=_PORTFOLIO_CHOICES, default="toy")
    cmd.add_argument("--positions", type=int, default=64, help="number of positions")


def _add_scheduler_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--scheduler",
        default=None,
        help="registered scheduler name (see repro.core.scheduler.SCHEDULERS; "
        "default robin_hood)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Risk-management benchmark for parallel architectures "
        "(Premia/Nsp/MPI reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list",
        help="list registered models, options, methods, backends and schedulers",
    )

    price = sub.add_parser("price", help="price a single option")
    price.add_argument("--model", default="BlackScholes1D")
    price.add_argument("--option", default="CallEuro")
    price.add_argument("--method", default="CF_Call")
    price.add_argument("--spot", type=float, default=100.0)
    price.add_argument("--strike", type=float, default=100.0)
    price.add_argument("--maturity", type=float, default=1.0)
    price.add_argument("--rate", type=float, default=0.05)
    price.add_argument("--volatility", type=float, default=0.2)

    from repro.core.paper_reference import PAPER_TABLES

    for table in PAPER_TABLES.values():
        cmd = sub.add_parser(
            table.key, help=f"regenerate {table.title} ({table.summary})"
        )
        cmd.add_argument(
            "--cpus",
            type=int,
            nargs="+",
            default=None,
            help="CPU counts to simulate (default: the paper's counts)",
        )
        cmd.add_argument("--strategy", default=None, help="restrict to one strategy")
        cmd.add_argument(
            "--batch",
            action="store_true",
            help="regenerate the table with shared-simulation batching "
            "(coalesced families cost one path simulation plus per-member "
            "payoff sweeps in the simulated cluster)",
        )
        _add_scheduler_args(cmd)

    run = sub.add_parser("run", help="value a scaled-down portfolio for real")
    _add_portfolio_args(run)
    run.add_argument("--workers", type=int, default=2, help="worker processes")
    run.add_argument("--strategy", default="serialized_load")
    run.add_argument(
        "--backend",
        default="multiprocessing",
        help="registered execution backend name (see `repro-bench list`); "
        "'remote' talks to repro-worker TCP servers",
    )
    run.add_argument(
        "--hosts",
        nargs="+",
        default=None,
        metavar="HOST:PORT",
        help="remote worker addresses for --backend remote (default: spawn "
        "--workers loopback workers on 127.0.0.1)",
    )
    run.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="group same-simulation positions and price them against shared "
        "path sets (--no-batch prices every position independently)",
    )
    run.add_argument(
        "--kernel",
        choices=("loop", "stacked"),
        default=None,
        help="Monte-Carlo evaluation kernel for --batch groups: 'loop' "
        "prices members one by one against the shared paths, 'stacked' "
        "(the default) evaluates whole groups as one stacked-array "
        "computation (bit-identical prices, much faster on large families)",
    )
    run.add_argument(
        "--cache",
        action="store_true",
        help="enable the digest-keyed result cache for this run",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="back the master's result cache with an on-disk store in DIR, "
        "kept across runs (implies --cache)",
    )
    run.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="value the portfolio N times (with --cache the repeats are "
        "answered from the cache; useful to measure hit rates)",
    )
    run.add_argument(
        "--progress",
        action="store_true",
        help="stream per-position completion as results land (count + "
        "running mean std-error), built on session.stream",
    )
    _add_scheduler_args(run)

    risk = sub.add_parser(
        "risk",
        help="portfolio Greeks and a historical-VaR campaign on the CRN "
        "scenario-grid engine",
    )
    risk.add_argument(
        "--positions", type=int, default=8, help="Monte-Carlo call ladder size"
    )
    risk.add_argument(
        "--paths", type=int, default=16_000, help="Monte-Carlo paths per simulation"
    )
    risk.add_argument(
        "--var-scenarios",
        type=int,
        default=100,
        help="historical spot-return scenarios in the VaR campaign",
    )
    risk.add_argument("--confidence", type=float, default=0.99)
    risk.add_argument(
        "--seed", type=int, default=0, help="seed for the synthetic return history"
    )
    sweep = sub.add_parser(
        "sweep", help="simulate one portfolio over a list of CPU counts"
    )
    _add_portfolio_args(sweep)
    sweep.add_argument(
        "--cpus",
        type=int,
        nargs="+",
        default=[2, 4, 8, 16],
        help="CPU counts to simulate",
    )
    sweep.add_argument("--strategy", default="serialized_load")
    _add_scheduler_args(sweep)
    sweep.add_argument(
        "--cold-nfs-cache",
        action="store_true",
        help="give every CPU count an independent cold NFS cache",
    )
    sweep.add_argument(
        "--batch",
        action="store_true",
        help="coalesce shared-simulation families before sweeping",
    )
    return parser


def _build_cli_portfolio(args: argparse.Namespace):
    from repro.core import PORTFOLIO_BUILDERS

    if args.portfolio == "toy":
        return PORTFOLIO_BUILDERS["toy"](n_options=args.positions)
    if args.portfolio == "realistic":
        return PORTFOLIO_BUILDERS["realistic"](
            profile="fast", scale=max(args.positions / 7931.0, 1e-3)
        )
    return PORTFOLIO_BUILDERS["regression"](profile="fast")


def _cmd_list() -> int:
    from repro.cluster.backends import list_backends
    from repro.core.scheduler import SCHEDULERS
    from repro.pricing import list_methods, list_models, list_products

    print("Models:")
    for name in list_models():
        print(f"  {name}")
    print("Options:")
    for name in list_products():
        print(f"  {name}")
    print("Methods (including aliases):")
    for name in list_methods():
        print(f"  {name}")
    print("Backends:")
    for name in list_backends():
        print(f"  {name}")
    print("Schedulers:")
    for name in sorted(SCHEDULERS):
        print(f"  {name}")
    return 0


def _cmd_price(args: argparse.Namespace) -> int:
    from repro.api import ValuationSession

    session = ValuationSession(backend="local")
    result = session.price(
        model=args.model,
        option=args.option,
        method=args.method,
        model_params={"spot": args.spot, "rate": args.rate, "volatility": args.volatility},
        option_params={"strike": args.strike, "maturity": args.maturity},
    )
    print(f"price  = {result.price:.6f}")
    if result.delta is not None:
        print(f"delta  = {result.delta:.6f}")
    if result.std_error is not None:
        print(f"stderr = {result.std_error:.6f}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.api import ValuationSession
    from repro.cluster import paper_cost_model
    from repro.core.paper_reference import PAPER_TABLES

    table = PAPER_TABLES[args.command]
    session = ValuationSession(
        backend="simulated", cost_model=paper_cost_model(), scheduler=args.scheduler
    )
    strategies = [args.strategy] if args.strategy else table.strategies
    comparison = session.compare(
        table.build_book(), args.cpus or table.cpu_counts,
        strategies=strategies, batch=args.batch,
    )
    if len(table.strategies) == 1:
        # Table I publishes one column: the paper's single-table layout
        print(comparison[strategies[0]].format())
        return 0
    if args.batch:
        print(f"({table.key} regenerated with shared-simulation batching)")
    print(comparison.format())
    return 0


def _run_with_progress(session, portfolio, batch: bool, kernel: str | None):
    """Stream a portfolio run, rendering per-position completion lines.

    Results land in completion order (the paper's master collecting from any
    source); each tick shows the collected count and the running mean
    standard error over the Monte-Carlo positions seen so far.
    """
    streamed = session.stream(portfolio, batch=batch, kernel=kernel)
    total = streamed.n_total
    count = 0
    se_sum = 0.0
    se_count = 0
    for price in streamed:
        count += 1
        if price.std_error is not None:
            se_sum += price.std_error
            se_count += 1
        mean_se = f"{se_sum / se_count:.6f}" if se_count else "-"
        label = price.label or f"job {price.job_id}"
        print(
            f"\r  [{count}/{total}] {label:<28.28s} price={price.price:>10.4f} "
            f"mean stderr={mean_se}",
            end="",
            flush=True,
        )
    print()
    return streamed.result()


def _cmd_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.api import ValuationSession

    if args.hosts and args.backend != "remote":
        print("error: --hosts only applies to --backend remote", file=sys.stderr)
        return 2
    portfolio = _build_cli_portfolio(args)
    cache: object = args.cache_dir if args.cache_dir else bool(args.cache)
    with ExitStack() as stack:
        backend_options = None
        if args.backend == "remote":
            hosts = args.hosts
            if not hosts:
                # no external workers given: spawn a loopback pool so the
                # remote path is exercisable from a single machine
                from repro.cluster.worker import spawn_local_workers

                pool = stack.enter_context(spawn_local_workers(args.workers))
                print(f"spawned {len(pool)} loopback workers: {', '.join(pool)}")
                hosts = pool.hosts
            backend_options = {"hosts": hosts}
        session = ValuationSession(
            backend=args.backend,
            strategy=args.strategy,
            n_workers=args.workers,
            scheduler=args.scheduler,
            cache=cache,
            backend_options=backend_options,
        )
        repeats = max(1, args.repeat)
        for iteration in range(repeats):
            if args.progress:
                result = _run_with_progress(
                    session, portfolio, batch=args.batch, kernel=args.kernel
                )
            else:
                result = session.run(portfolio, batch=args.batch, kernel=args.kernel)
            report = result.report
            prefix = f"[{iteration + 1}/{repeats}] " if repeats > 1 else ""
            print(
                f"{prefix}valued {report.n_jobs} positions on {report.n_workers} workers "
                f"in {report.total_time:.2f}s ({len(report.errors)} errors, "
                f"batch={'on' if args.batch else 'off'})"
            )
    print(f"portfolio value = {result.value():.2f}")
    if report.peak_window:  # empty when the cache answered every position
        # most jobs each worker held at once: 1 is Fig. 4's one job per slave
        print(f"peak in-flight window = {report.peak_window}")
    if session.cache is not None:
        stats = session.cache.stats
        print(
            f"cache: {stats.hits} hits / {stats.lookups} lookups "
            f"(hit rate {stats.hit_rate:.0%}, {stats.evictions} evictions)"
        )
    return 0


def _build_risk_portfolio(n_positions: int, n_paths: int):
    """A single-model Monte-Carlo call ladder: the CRN engine's best case.

    Every position shares one Black-Scholes model and one seeded method
    configuration, so the whole bumped scenario grid collapses into a
    handful of shared-draw stacked simulations.
    """
    from repro.core import Portfolio, Position
    from repro.pricing import PricingProblem

    portfolio = Portfolio(name="risk_ladder")
    for index in range(n_positions):
        strike = 80.0 + 40.0 * index / max(n_positions - 1, 1)
        problem = PricingProblem(label=f"call_K{strike:.2f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.045, volatility=0.22)
        problem.set_option("CallEuro", strike=strike, maturity=1.0)
        problem.set_method("MC_European", n_paths=n_paths, seed=0)
        portfolio.add(
            Position(problem=problem, category="vanilla_mc", label=problem.label)
        )
    return portfolio


def _cmd_risk(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.core.risk import historical_var, portfolio_greeks

    portfolio = _build_risk_portfolio(args.positions, args.paths)
    returns = np.random.default_rng(args.seed).normal(0.0, 0.01, args.var_scenarios)

    start = time.perf_counter()
    greeks = portfolio_greeks(portfolio)
    greeks_elapsed = time.perf_counter() - start
    print(f"portfolio Greeks (CRN scenario grid, {args.positions} positions):")
    print(
        f"  value = {greeks.total_value:.4f}  delta = {greeks.total_delta:.4f}  "
        f"gamma = {greeks.total_gamma:.6f}"
    )
    print(
        f"  vega  = {greeks.total_vega:.4f}  rho   = {greeks.total_rho:.4f}  "
        f"theta = {greeks.total_theta:.4f}"
    )
    print(f"  elapsed {greeks_elapsed:.3f}s")

    start = time.perf_counter()
    var = historical_var(portfolio, returns.tolist(), confidence=args.confidence)
    var_elapsed = time.perf_counter() - start
    print(
        f"historical VaR ({args.var_scenarios} scenarios, "
        f"{args.confidence:.0%} confidence):"
    )
    print(
        f"  base value = {var['base_value']:.4f}  VaR = {var['var']:.4f}  "
        f"ES = {var['expected_shortfall']:.4f}  worst = {var['worst_loss']:.4f}"
    )
    print(f"  elapsed {var_elapsed:.3f}s")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import ValuationSession

    portfolio = _build_cli_portfolio(args)
    session = ValuationSession(
        backend="simulated", strategy=args.strategy, scheduler=args.scheduler
    )
    result = session.sweep(
        portfolio,
        args.cpus,
        share_nfs_cache=not args.cold_nfs_cache,
        label=f"{args.portfolio}/{args.strategy}",
        batch=args.batch,
    )
    print(result.format())
    best = result.best_cpu_count()
    print(f"fastest configuration: {best} CPUs ({result.times()[best]:.3f}s simulated)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-bench`` console script."""
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "price":
            return _cmd_price(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "risk":
            return _cmd_risk(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_table(args)  # every other subcommand is a PAPER_TABLES key
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

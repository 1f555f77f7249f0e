"""Benchmark T2 -- Table II of the paper.

"A toy portfolio for discriminating communication strategies": 10,000 vanilla
options priced by closed-form formulas, where the computation is essentially
free and the three transmission strategies (full load / NFS / serialized
load) are compared for 2 to 50 CPUs.

The benchmark regenerates the three columns on the simulated cluster, checks
the qualitative claims of Section 4.2 (serialized load always beats full
load; the NFS column is biased by the server cache but wins at larger CPU
counts; the times flatten once the master saturates) and writes the
comparison table to ``benchmarks/results/table2_toy_portfolio.txt``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_bench_json, write_result
from repro.api import ValuationSession
from repro.cluster.costmodel import paper_cost_model
from repro.core import build_toy_portfolio, format_comparison_table

#: the CPU counts of Table II
TABLE2_CPUS = [2, 4, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40, 45, 50]

#: published Table II times (seconds) for the three strategies
PAPER_TABLE2 = {
    "full_load": {2: 8.85665, 8: 3.86341, 16: 4.05038, 32: 4.35934, 50: 4.19136},
    "nfs": {2: 16.3965, 8: 2.52961, 16: 1.40579, 32: 0.848871, 50: 0.738887},
    "serialized_load": {2: 7.17891, 8: 1.81472, 16: 1.9367, 32: 1.83072, 50: 1.70474},
}


@pytest.fixture(scope="module")
def toy_jobs():
    portfolio = build_toy_portfolio(n_options=10_000)
    return portfolio.build_jobs(cost_model=paper_cost_model())


def test_table2_strategy_comparison(benchmark, toy_jobs):
    """Regenerate the full three-strategy Table II."""

    import time as time_module

    def regenerate():
        return ValuationSession().compare(toy_jobs, TABLE2_CPUS).tables

    start = time_module.perf_counter()
    tables = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    wall_s = time_module.perf_counter() - start
    write_bench_json(
        "table2_toy_portfolio",
        {
            "wall_s": round(wall_s, 4),
            "n_jobs": len(toy_jobs),
            "cpu_counts": TABLE2_CPUS,
            "simulated_times_s": {
                strategy: {str(n): table.row_for(n).time for n in TABLE2_CPUS}
                for strategy, table in tables.items()
            },
        },
    )

    lines = [format_comparison_table(tables.values()), "", "Paper reference times (s):"]
    for strategy, rows in PAPER_TABLE2.items():
        for n_cpus, paper_time in rows.items():
            measured = tables[strategy].row_for(n_cpus).time
            lines.append(
                f"  {strategy:16s} {n_cpus:>3} CPUs  paper {paper_time:8.3f}s   "
                f"measured {measured:8.3f}s"
            )
    write_result("table2_toy_portfolio.txt", "\n".join(lines))

    full, nfs, sload = tables["full_load"], tables["nfs"], tables["serialized_load"]

    # serialized load beats full load on every row ("the only objective
    # comparison ... the latter is always the faster")
    for n_cpus in TABLE2_CPUS:
        assert sload.row_for(n_cpus).time < full.row_for(n_cpus).time

    # absolute times are the same order as the paper at both ends of the sweep
    for strategy, table in tables.items():
        assert 0.3 * PAPER_TABLE2[strategy][2] < table.row_for(2).time < 3.0 * PAPER_TABLE2[strategy][2]
        assert 0.3 * PAPER_TABLE2[strategy][50] < table.row_for(50).time < 3.0 * PAPER_TABLE2[strategy][50]

    # full load and serialized load flatten at their master-bound floors
    assert full.row_for(50).time == pytest.approx(full.row_for(32).time, rel=0.15)
    assert sload.row_for(50).time == pytest.approx(sload.row_for(32).time, rel=0.15)
    # and the full-load floor is markedly higher
    assert full.row_for(50).time > 1.5 * sload.row_for(50).time

    # NFS: worst on the cold 2-CPU run, best at 50 CPUs (cache + offloaded reads)
    assert nfs.row_for(2).time > max(full.row_for(2).time, sload.row_for(2).time)
    assert nfs.row_for(50).time < min(full.row_for(50).time, sload.row_for(50).time)

    # a crossover between NFS and serialized load exists inside the sweep
    diffs = [nfs.row_for(n).time - sload.row_for(n).time for n in TABLE2_CPUS]
    assert diffs[0] > 0 and diffs[-1] < 0


def test_table2_single_strategy_sweep(benchmark, toy_jobs):
    """Micro-benchmark: the serialized-load column alone."""
    def run():
        return ValuationSession().sweep(
            toy_jobs, [2, 8, 32, 50], strategy="serialized_load"
        ).table

    table = benchmark(run)
    assert table.row_for(2).time > table.row_for(50).time

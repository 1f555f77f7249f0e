"""Benchmark T1 -- Table I of the paper.

"Speedup table for the non-regression tests of Premia": the suite of one
instance of every pricing problem, distributed with the Robin-Hood scheduler
and the serialized-load (``sload``) strategy, for 2 to 256 CPUs.

The benchmark regenerates the full table on the simulated cluster (virtual
time), times the regeneration, checks the qualitative shape of the published
table and writes the rows to ``benchmarks/results/table1_regression.txt``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_bench_json, write_result
from repro.api import ValuationSession
from repro.cluster.costmodel import paper_cost_model
from repro.core import build_regression_portfolio

#: the CPU counts of Table I
TABLE1_CPUS = [2, 4, 6, 8, 10, 16, 32, 64, 96, 128, 160, 192, 224, 256]

#: the published Table I (CPUs -> (time in s, speedup ratio)) for reference
PAPER_TABLE1 = {
    2: (838.004, 1.0),
    4: (285.356, 0.9789),
    6: (172.146, 0.973597),
    8: (124.78, 0.959407),
    10: (97.1792, 0.958142),
    16: (67.9677, 0.821963),
    32: (45.6611, 0.592023),
    64: (34.2828, 0.387998),
    96: (31.4682, 0.280317),
    128: (30.5574, 0.215937),
    160: (16.1006, 0.327347),
    192: (30.7013, 0.142908),
    224: (30.5024, 0.123199),
    256: (31.3172, 0.104935),
}


@pytest.fixture(scope="module")
def regression_jobs():
    portfolio = build_regression_portfolio(profile="paper")
    return portfolio.build_jobs(cost_model=paper_cost_model())


def test_table1_regression_speedup(benchmark, regression_jobs):
    """Regenerate Table I and compare its shape with the published numbers."""

    import time as time_module

    def regenerate():
        return ValuationSession().sweep(
            regression_jobs, TABLE1_CPUS, strategy="serialized_load",
            label="serialized load (Table I)",
        ).table

    start = time_module.perf_counter()
    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    wall_s = time_module.perf_counter() - start
    write_bench_json(
        "table1_regression",
        {
            "wall_s": round(wall_s, 4),
            "n_jobs": len(regression_jobs),
            "cpu_counts": TABLE1_CPUS,
            "simulated_times_s": {str(n): table.row_for(n).time for n in TABLE1_CPUS},
            "speedup_ratios": {str(n): table.row_for(n).ratio for n in TABLE1_CPUS},
        },
    )

    lines = [table.format(), "", "Paper reference (Table I):"]
    for n_cpus, (time, ratio) in PAPER_TABLE1.items():
        row = table.row_for(n_cpus)
        lines.append(
            f"  {n_cpus:>4} CPUs  paper {time:>9.2f}s ({ratio:6.4f})   "
            f"measured {row.time:>9.2f}s ({row.ratio:6.4f})"
        )
    write_result("table1_regression.txt", "\n".join(lines))

    # -- shape assertions against the published table -------------------------
    # total single-worker work is the same order of magnitude as the paper
    assert 0.3 * PAPER_TABLE1[2][0] < table.row_for(2).time < 3.0 * PAPER_TABLE1[2][0]
    # near-linear speedup up to ~10 CPUs
    for n_cpus in (4, 6, 8, 10):
        assert table.row_for(n_cpus).ratio > 0.8
    # efficiency collapses at high CPU counts because the workload is small
    assert table.row_for(64).ratio < 0.6
    assert table.row_for(256).ratio < 0.25
    # the makespan plateaus: 4x more CPUs past 64 buys almost nothing
    assert table.row_for(256).time > 0.6 * table.row_for(64).time


def test_table1_single_configuration_cost(benchmark, regression_jobs):
    """Micro-benchmark: one 256-CPU simulated run of the regression suite."""

    def run_once():
        return ValuationSession().sweep(
            regression_jobs, [256], strategy="serialized_load"
        ).table

    table = benchmark(run_once)
    assert table.row_for(256).time > 0

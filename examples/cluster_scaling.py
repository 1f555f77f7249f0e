#!/usr/bin/env python
"""Reproduce the paper's speedup tables on the simulated cluster.

Regenerates the three data artefacts of the paper's evaluation section --
Table I (non-regression tests), Table II (10,000-option toy portfolio with
the three transmission strategies) and Table III (7,931-claim realistic
portfolio) -- using the discrete-event cluster simulator, so that the whole
study runs in a few seconds on a laptop.

Run with:  python examples/cluster_scaling.py [--quick]
"""

from __future__ import annotations

import sys

from repro.api import ValuationSession
from repro.cluster import paper_cost_model
from repro.core import (
    build_realistic_portfolio,
    build_regression_portfolio,
    build_toy_portfolio,
)

TABLE1_CPUS = [2, 4, 6, 8, 10, 16, 32, 64, 96, 128, 160, 192, 224, 256]
TABLE2_CPUS = [2, 4, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40, 45, 50]
TABLE3_CPUS = [2, 4, 6, 8, 10, 16, 32, 64, 96, 128, 160, 192, 224, 256, 320, 384, 512]

QUICK_CPUS = [2, 4, 16, 64, 256]


def table1(cpus: list[int]) -> None:
    print("=" * 72)
    print("Table I -- speedup of the Premia non-regression tests")
    print("=" * 72)
    portfolio = build_regression_portfolio(profile="paper")
    jobs = portfolio.build_jobs(cost_model=paper_cost_model())
    print(f"{len(jobs)} regression problems, "
          f"{sum(j.compute_cost for j in jobs):.0f}s of single-worker work")
    print(ValuationSession().sweep(jobs, cpus, strategy="serialized_load").format())


def table2(cpus: list[int]) -> None:
    print("=" * 72)
    print("Table II -- 10,000-option toy portfolio, strategy comparison")
    print("=" * 72)
    portfolio = build_toy_portfolio(n_options=10_000)
    jobs = portfolio.build_jobs(cost_model=paper_cost_model())
    print(ValuationSession().compare(jobs, cpus).format())
    print("\nNote: the NFS column of the paper is biased by the server cache "
          "surviving between runs; rerun with share_nfs_cache=False in "
          "ValuationSession.compare for cold-cache numbers.")


def table3(cpus: list[int]) -> None:
    print("=" * 72)
    print("Table III -- 7,931-claim realistic portfolio, strategy comparison")
    print("=" * 72)
    portfolio = build_realistic_portfolio(profile="paper")
    jobs = portfolio.build_jobs(cost_model=paper_cost_model())
    print(f"portfolio composition: {portfolio.count_by_category()}")
    print(f"total single-worker work: {sum(j.compute_cost for j in jobs):.0f}s")
    print(ValuationSession().compare(jobs, cpus).format())


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    table1(QUICK_CPUS if quick else TABLE1_CPUS)
    print()
    table2(QUICK_CPUS if quick else TABLE2_CPUS)
    print()
    table3(QUICK_CPUS if quick else TABLE3_CPUS)

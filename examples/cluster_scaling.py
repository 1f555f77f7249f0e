#!/usr/bin/env python
"""Reproduce the paper's speedup tables on the simulated cluster.

Regenerates the three data artefacts of the paper's evaluation section --
Table I (non-regression tests), Table II (10,000-option toy portfolio with
the three transmission strategies) and Table III (7,931-claim realistic
portfolio) -- using the discrete-event cluster simulator, so that the whole
study runs in a few seconds on a laptop.  Books, CPU counts, strategy
columns and the published times all come from
:data:`repro.core.paper_reference.PAPER_TABLES`, the same registry behind
``repro-bench table1|table2|table3``.

Run with:  python examples/cluster_scaling.py [--quick]
"""

from __future__ import annotations

import sys

from repro.api import ValuationSession
from repro.cluster import paper_cost_model
from repro.core.paper_reference import PAPER_TABLES, PaperTable, compare_with_paper

QUICK_CPUS = [2, 4, 16, 64, 256]


def regenerate(table: PaperTable, cpus: list[int]) -> None:
    print("=" * 72)
    print(f"{table.title} -- {table.summary}")
    print("=" * 72)
    jobs = table.build_book().build_jobs(cost_model=paper_cost_model())
    print(f"{len(jobs)} positions, "
          f"{sum(j.compute_cost for j in jobs):.0f}s of single-worker work")
    comparison = ValuationSession().compare(jobs, cpus, strategies=table.strategies)
    if len(table.strategies) == 1:
        print(comparison[table.strategies[0]].format())
    else:
        print(comparison.format())
    for strategy in table.strategies:
        shape = compare_with_paper(comparison.tables[strategy], table.reference(strategy))
        print(f"{strategy}: worst-row time ratio against the paper "
              f"{shape.max_time_ratio:.2f} over {shape.n_common_rows} published rows")


if __name__ == "__main__":
    quick = "--quick" in sys.argv[1:]
    for table in PAPER_TABLES.values():
        regenerate(table, QUICK_CPUS if quick else table.cpu_counts)
        print()
    print("Note: the NFS columns of the paper are biased by the server cache "
          "surviving between runs; rerun with share_nfs_cache=False in "
          "ValuationSession.compare for cold-cache numbers.")

"""Ranked master-CPU budget of one ``benchmarks/e2e`` repeat.

    python3 benchmarks/profile_master.py var_campaign_mp

Runs the workload's warm-up, then one full-size repeat on its real backend
under ``cProfile`` (the master thread only; the workers are other processes)
and prints where the master's non-waiting time went, then what was sent --
jobs dispatched, ``RunReport.bytes_sent`` per position (per cell of a risk
campaign) and the widths of its scenario-grid slices -- and what the workers
made of it: their idle share and the in-flight window the run reached
(``RunReport.peak_window``).  ``cProfile`` taxes every
Python call, so read the table for its ranking and call counts, not for
absolute seconds -- those come from ``benchmarks/e2e/bench.py``.  The numbers
in ``docs/performance.md`` are this script's output.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.harness import execute, make_session, set_up  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
from repro.pricing.scenarios import ScenarioGrid  # noqa: E402

#: cumulative time of every function of that name: the layers of one campaign
#: (``columns`` decides which cells of a risk grid exist, ``build_plan`` turns
#: a book or a grid into jobs)
LAYERS = (
    "columns", "build_plan", "prepare", "dispatch", "decode_result", "_assemble", "deepcopy",
)
#: where the master sleeps: queue reads poll(), the remote selector epoll()s
_WAITS = ("<method 'poll' of 'select.poll' objects>", "<method 'poll' of 'select.epoll' objects>")


def main(name: str) -> None:
    workload = WORKLOADS[name]
    pool, inputs = set_up(workload, seed=1, smoke=False)
    session = make_session(workload, pool)
    campaigns = []
    open_campaign = session._open_campaign

    def recording(*args, **kwargs):  # a risk campaign returns a summary, not its report
        campaigns.append(open_campaign(*args, **kwargs))
        return campaigns[-1]

    session._open_campaign = recording
    profile = cProfile.Profile()
    try:
        profile.runcall(execute, workload, session, inputs)
    finally:
        if pool is not None:
            pool.stop()
    stats = pstats.Stats(profile).stats

    def cumulative(function: str) -> float:
        return sum(row[3] for key, row in stats.items() if key[2] == function)

    waiting = sum(cumulative(wait) for wait in _WAITS)
    busy = max(row[3] for row in stats.values()) - waiting
    rows = {layer: cumulative(layer) for layer in LAYERS}
    rows["collect (minus waiting)"] = cumulative("collect") - waiting
    print(f"{name}: {busy:.2f} s profiled on the master, not waiting")
    for layer, seconds in sorted(rows.items(), key=lambda item: -item[1]):
        print(f"  {layer:26s} {seconds:6.2f} s  {seconds / busy:6.1%}")
    for campaign in campaigns:
        report, jobs = campaign.finish().report, campaign.plan.jobs
        widths = [len(job.problem.scenarios) for job in jobs
                  if isinstance(job.problem, ScenarioGrid)]
        print(f"  {len(jobs)} jobs dispatched for {report.n_jobs} positions, "
              f"{report.bytes_sent / report.n_jobs:.1f} B sent per position"
              + (f"; slice widths {widths}" if widths else ""))
        idle = 1.0 - sum(report.worker_busy.values()) / (report.total_time * report.n_workers)
        print(f"  workers idle {idle:.1%} of {report.total_time:.2f} s x {report.n_workers}; "
              f"peak in-flight window {report.peak_window}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "var_campaign_mp")

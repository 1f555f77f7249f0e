"""Traced peak and resident set of the units a workload's workers price.

    python3 benchmarks/profile_memory.py realistic_mp

Builds the full-size input of one ``benchmarks/e2e`` workload and prices,
each in a child forked from this process (as a worker process is forked
from the master), one ``compute()`` of

* the first position of every category of the book, and
* the largest and the heaviest dispatch unit of the plan the session makes
  for the workload's backend (a book slice, a scenario-grid slice or a
  ``ProblemBatch``): the one answering the most positions, and the one
  whose child reaches the highest ``ru_maxrss`` when every unit is priced
  once untraced.

For each it prints the child's resident set when it starts, the
``tracemalloc`` peak of that ``compute()`` and the child's ``ru_maxrss``.  The plan
is the session's own -- ``build_plan`` is intercepted on its way into a
campaign, which is then abandoned before anything is dispatched (the
session stops the workers it started).  ``tracemalloc`` slows the unit
down, so no time is printed; wall-clock figures come from
``benchmarks/e2e/bench.py``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import resource
import sys
import tracemalloc
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.api.session as session_module  # noqa: E402
from benchmarks.e2e.harness import execute, make_session  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

KIB = 1024.0  # ru_maxrss is in KiB


class _Planned(Exception):
    """Raised by the intercepted ``build_plan`` once the plan is recorded."""


def session_plan(workload, inputs) -> Any:
    """The plan a session on the workload's backend makes for ``inputs``."""
    plans = []
    build_plan = session_module.build_plan

    def recording(*args, **kwargs):
        plans.append(build_plan(*args, **kwargs))
        raise _Planned

    session_module.build_plan = recording
    try:
        execute(workload, make_session(workload, None), inputs)
    except _Planned:
        pass
    finally:
        session_module.build_plan = build_plan
    return plans[0]


def _measure(payload: Any, traced: bool, conn) -> None:
    at_fork = resident_mb()
    peak = float("nan")
    if traced:
        tracemalloc.start()
    payload.compute()
    if traced:
        peak = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    conn.send((at_fork, peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / KIB))


def in_child(payload: Any, traced: bool = True) -> tuple[float, float, float]:
    """``payload.compute()`` in a forked child: its resident set at the fork,
    the traced peak of the call (NaN untraced) and the child's
    ``ru_maxrss``, in MB."""
    context = mp.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_measure, args=(payload, traced, send))
    child.start()
    send.close()
    try:
        return receive.recv()
    finally:
        child.join()


def resident_mb() -> float:
    """This process's current resident set, in MB."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def main(name: str) -> None:
    workload = WORKLOADS[name]
    inputs = workload.build_profile(seed=1, smoke=False)
    first: dict[str, Any] = {}
    for position in inputs.portfolio:
        first.setdefault(position.category, position.problem)
    plan = session_plan(workload, inputs)
    answered = {job.job_id: len(plan.batch_members.get(job.job_id, (job.job_id,)))
                for job in plan.jobs}

    print(f"{name}: {len(inputs.portfolio)} positions in {len(first)} categories, "
          f"{len(plan.jobs)} dispatch units")
    print(f"  {'unit':36s} {'positions':>9s} {'at fork':>10s} {'traced peak':>12s} "
          f"{'ru_maxrss':>10s}")

    def show(label: str, row: tuple[float, float, float], positions: int) -> None:
        at_fork, peak, maxrss = row
        print(f"  {label:36s} {positions:9d} {at_fork:7.1f} MB {peak:9.1f} MB "
              f"{maxrss:7.1f} MB")

    for category, problem in first.items():
        show(f"category {category}", in_child(problem), 1)
    # every unit untraced, at full speed; the two shown again under tracemalloc
    maxrss = {job.job_id: in_child(job.problem, traced=False)[2] for job in plan.jobs}
    largest = max(plan.jobs, key=lambda job: answered[job.job_id])
    heaviest = max(plan.jobs, key=lambda job: maxrss[job.job_id])
    for label, job in (("largest", largest), ("heaviest", heaviest)):
        show(f"{label} unit ({type(job.problem).__name__})", in_child(job.problem),
             answered[job.job_id])


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "realistic_mp")

"""Ranked master-CPU budget of one ``benchmarks/e2e`` repeat.

    python3 benchmarks/profile_master.py var_campaign_mp

Runs the workload's warm-up, then one full-size repeat on its real backend
under ``cProfile`` (the master thread only; the workers are other processes)
and prints where the master's non-waiting time went, how many per-position
Python objects it built (futures minted, result dictionaries received or
materialised) and how many parameter digests it computed
(:func:`repro.pricing.cache.stable_digest` calls), then what was sent --
jobs dispatched, ``RunReport.bytes_sent`` per position (per cell of a risk
campaign) and how many positions each of its slices (of a scenario grid, of
a plain book) answers -- and what the workers made of it: their idle share
and the in-flight window the run reached (``RunReport.peak_window``).
``cProfile`` taxes every
Python call, so read the table for its ranking and call counts, not for
absolute seconds -- those come from ``benchmarks/e2e/bench.py``.  The
absolute figures printed are three layers of the master, each timed again on
the campaign's own inputs after the profiled repeat, outside the profiler:
the plan (:func:`repro.api.plan.build_plan` on the arguments the session gave
it), the book write -- the columnar book of each dispatched slice or batch
(:func:`repro.pricing.book.write_book`, a batch's under its leader's headers)
and its XDR encode, in microseconds and bytes a position -- and the scatter
of the replies the campaign received into a fresh result table
(:meth:`repro.core.runner.ResultTable.scatter`).
Each of those lines is the fastest of :data:`PASSES` passes over the same
inputs, so one cold pass does not set it.
The numbers in ``docs/performance.md`` are this script's output.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.harness import execute, make_session, set_up  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
import repro.api.session  # noqa: E402
from repro.api.futures import PricingFuture  # noqa: E402
from repro.core.runner import ResultTable  # noqa: E402
from repro.pricing.batch import ProblemBatch  # noqa: E402
from repro.pricing.book import write_book  # noqa: E402
from repro.pricing.methods.base import ResultColumns  # noqa: E402
from repro.serial import xdr  # noqa: E402

#: cumulative time of every function of that name (in the file ending so,
#: where the name alone is ambiguous): the layers of one campaign, outbound
#: (``columns`` decides which cells of a risk grid exist, ``build_plan`` turns
#: a book or a grid into jobs -- of that, ``plan_batches`` groups a batch
#: run's problems by simulation signature, and ``param_digest`` is every model
#: and method digest, wherever it is made -- ``job encode`` is
#: ``Job.wire_bytes``, a job's bytes made at its first dispatch; of that,
#: ``book encode`` is a grid's or book slice's book -- ``write_book``'s columns
#: and their XDR encode -- and ``write_book`` the columns of every book, a
#: batch's members included) and back (the queue's unpickle, the write into
#: the result table, the report)
LAYERS = {
    "columns": ("columns", ""),
    "build_plan": ("build_plan", ""),
    "plan_batches": ("plan_batches", "pricing/batch.py"),
    "param_digest": ("param_digest", ""),
    "_acquire_backend": ("_acquire_backend", ""),
    "Campaign.__init__": ("__init__", "api/campaign.py"),
    "prepare": ("prepare", ""),
    "job encode": ("wire_bytes", "backends/base.py"),
    "book encode": ("wire_bytes", "pricing/scenarios.py"),
    "write_book": ("write_book", "pricing/book.py"),
    "dispatch": ("dispatch", ""),
    "queue unpickle": ("<built-in method _pickle.loads>", ""),
    "_resolve_completed": ("_resolve_completed", ""),
    "_assemble": ("_assemble", ""),
    "deepcopy": ("deepcopy", ""),
}
#: the per-position Python objects a master can build: a future, a result
#: dictionary that arrived as one, a row dictionary materialised from columns
_OBJECTS = {
    "futures minted": (PricingFuture, "__init__"),
    "result dicts received": (ResultTable, "write"),
    "row dicts materialised": (ResultColumns, "row"),
}


#: passes over the same inputs each unprofiled line takes the fastest of
PASSES = 7


def _fastest(one_pass: Callable[[], float]) -> float:
    """The least of :data:`PASSES` readings of ``one_pass`` (seconds)."""
    return min(one_pass() for _ in range(PASSES))


def _record_calls(owner, name: str) -> tuple[list[tuple[tuple, dict]], Callable]:
    """The ``(args, kwargs)`` of every call of ``owner.name`` from now on,
    and the function itself."""
    calls: list[tuple[tuple, dict]] = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    setattr(owner, name, recording)
    return calls, original


def plan_again(plans, build_plan: Callable) -> float:
    """Microseconds a position of making each recorded plan again (a scenario
    grid keeps which cells it has, so a risk plan does not decide it again)."""
    positions = sum(len(build_plan(*args, **kwargs).original_ids) for args, kwargs in plans)

    def one_pass() -> float:
        start = time.perf_counter()
        for args, kwargs in plans:
            build_plan(*args, **kwargs)
        return time.perf_counter() - start

    return 1e6 * _fastest(one_pass) / max(positions, 1)


def scatter_again(scatters, scatter: Callable) -> float:
    """Microseconds a position of scattering each recorded reply again, into
    fresh tables with the ids of the ones it went into."""
    positions = sum(len(members) for (_table, _reply, members), _ in scatters)

    def one_pass() -> float:
        fresh = {id(table): ResultTable(table.ids) for (table, _, _), _ in scatters}
        start = time.perf_counter()
        for (table, reply, members), _ in scatters:
            scatter(fresh[id(table)], reply, members)
        return time.perf_counter() - start

    return 1e6 * _fastest(one_pass) / max(positions, 1)


def _book_of(payload) -> dict:
    """The book ``payload`` writes: a batch's under its leader's headers."""
    if isinstance(payload, ProblemBatch):
        return payload.wire_view()["book"]
    return write_book(payload.problems)


def book_write(jobs) -> tuple[float, float, int, int]:
    """Microseconds and bytes a position of writing the books of ``jobs``
    (each distinct book once: a risk campaign's slices share theirs) as the
    master does on dispatch, timed outside the profiler; positions, books."""
    books = {id(job.problem.problems): job.problem for job in jobs
             if job.problem is not None and hasattr(job.problem, "problems")}
    nbytes = sum(len(xdr.encode(_book_of(payload))) for payload in books.values())

    def one_pass() -> float:
        start = time.perf_counter()
        for payload in books.values():
            xdr.encode(_book_of(payload))
        return time.perf_counter() - start

    positions = sum(len(payload.problems) for payload in books.values())
    return (1e6 * _fastest(one_pass) / max(positions, 1), nbytes / max(positions, 1),
            positions, len(books))


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
    objects = {label: _record_calls(owner, name)[0] for label, (owner, name) in _OBJECTS.items()}
    plans, build_plan = _record_calls(repro.api.session, "build_plan")
    scatters, scatter = _record_calls(ResultTable, "scatter")
    profile = cProfile.Profile()
    try:
        profile.runcall(execute, workload, session, inputs)
    finally:
        if pool is not None:
            pool.stop()
    stats = pstats.Stats(profile).stats

    def cumulative(function: str, file_suffix: str = "") -> float:
        return sum(row[3] for key, row in stats.items()
                   if key[2] == function and key[0].endswith(file_suffix))

    waiting = sum(cumulative(wait) for wait in _WAITS)
    busy = max(row[3] for row in stats.values()) - waiting
    rows = {layer: cumulative(*where) for layer, where in LAYERS.items()}
    rows["collect (minus waiting)"] = cumulative("collect") - waiting
    print(f"{name}: {busy:.2f} s profiled on the master, not waiting")
    for layer, seconds in sorted(rows.items(), key=lambda item: -item[1]):
        print(f"  {layer:26s} {seconds:6.3f} s  {seconds / busy:6.1%}")
    print("  per-position objects built: "
          + ", ".join(f"{len(calls)} {label}" for label, calls in objects.items()))
    digests = sum(row[1] for key, row in stats.items()
                  if key[2] == "stable_digest" and key[0].endswith("pricing/cache.py"))
    print(f"  digests computed: {digests} for "
          f"{sum(len(campaign.plan.original_ids) for campaign in campaigns)} members")
    for campaign in campaigns:
        report, jobs = campaign.finish().report, campaign.plan.jobs
        members = [len(campaign.plan.batch_members[job.job_id]) for job in jobs
                   if job.job_id in campaign.plan.batch_members]
        print(f"  {len(jobs)} jobs dispatched for {report.n_jobs} positions, "
              f"{report.bytes_sent / report.n_jobs:.1f} B sent per position"
              + (f"; positions answered per slice {members}" if members else ""))
        us, per_position, positions, books = book_write(jobs)
        if books:
            print(f"  book write {us:.1f} us and {per_position:.0f} B a position "
                  f"({positions} positions in {books} books, best of {PASSES} "
                  f"unprofiled passes)")
        idle = 1.0 - sum(report.worker_busy.values()) / (report.total_time * report.n_workers)
        print(f"  workers idle {idle:.1%} of {report.total_time:.2f} s x {report.n_workers}; "
              f"peak in-flight window {report.peak_window}")
    print(f"  build_plan {plan_again(plans, build_plan):.1f} us and ResultTable.scatter "
          f"{scatter_again(scatters, scatter):.1f} us a position (best of {PASSES} "
          f"unprofiled passes)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "var_campaign_mp")

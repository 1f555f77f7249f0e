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
absolute seconds -- those come from ``benchmarks/e2e/bench.py``.

The absolute figures come from two kinds of unprofiled reading.  First, each
layer's CPU *in situ*: :data:`IN_SITU_REPEATS` repeats on fresh inputs, before
the profiled one, with :func:`time.thread_time` deltas around the plan
(:func:`repro.api.plan.build_plan`), the ``sload`` load pass
(:meth:`repro.core.strategies.SerializedLoadStrategy.load`), the start of a
``multiprocessing`` pool's processes, the book write
(:func:`repro.pricing.book.write_book`), the XDR encode outside it
(:func:`repro.serial.xdr.encode`: labels, keys, arrays, the job and frame
records) and the reply decode (:func:`pickle.loads` of a worker process's
reply, :func:`repro.serial.xdr.decode` of a remote worker's), each net of the
others nested inside it, as the median in ms a repeat and us a position,
beside the minor page faults the master thread took in it
(``getrusage(RUSAGE_THREAD).ru_minflt`` deltas) and the CPU it spent there
after the pool started, then the master's CPU off its main thread
(:func:`time.process_time` less :func:`time.thread_time`: a transport's
helper threads).  These are the costs a campaign pays; warm loops over
the same inputs read 2-3x lower.  Second, three
layers timed again after the profiled repeat, each the fastest of
:data:`PASSES` passes: the plan (``build_plan`` on the arguments the session
gave it, over freshly built problems, so digests and signatures are made
again), the book write -- the columnar book of each dispatched slice or batch
(a batch's under its leader's headers) and its XDR encode, in microseconds and
bytes a position -- and the scatter of the replies the campaign received into
a fresh result table (:meth:`repro.core.runner.ResultTable.scatter`).
The numbers in ``docs/performance.md`` are this script's output.
"""

from __future__ import annotations

import cProfile
import gc
import pickle
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.harness import execute, make_session, set_up  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402
import repro.api.session  # noqa: E402
import repro.pricing.batch  # noqa: E402
import repro.pricing.scenarios  # noqa: E402
from repro.api.futures import PricingFuture  # noqa: E402
from repro.cluster.backends import MultiprocessingBackend  # noqa: E402
from repro.core.portfolio import Portfolio  # noqa: E402
from repro.core.runner import ResultTable  # noqa: E402
from repro.core.strategies import SerializedLoadStrategy  # noqa: E402
from repro.pricing.batch import ProblemBatch  # noqa: E402
from repro.pricing.book import write_book  # noqa: E402
from repro.pricing.methods.base import ResultColumns  # noqa: E402
from repro.pricing.scenarios import ScenarioGrid  # noqa: E402
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
#: batch's members included) and back (the replies read off a worker's link,
#: a process's socket pair or a remote host's connection -- of that, a
#: process's replies unpickled, a remote pool's decoded -- the write into the
#: result table, the report)
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
    "link reply read": ("_read", "backends/base.py"),
    "reply unpickle": ("<built-in method _pickle.loads>", "~"),
    "reply decode": ("decode", "serial/xdr.py"),
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

#: the layers timed in situ: name -> the (module or class, attribute) pairs
#: the master calls (``write_book`` is imported by name where books are made;
#: a reply is unpickled off a worker process's socket pair, or decoded out of
#: a remote worker's result frame)
IN_SITU = {
    "build_plan": ((repro.api.session, "build_plan"),),
    "load pass": ((SerializedLoadStrategy, "load"),),
    "pool start": ((MultiprocessingBackend, "_start_processes"),),
    "book write": ((repro.pricing.scenarios, "write_book"), (repro.pricing.batch, "write_book")),
    "xdr encode outside the book": ((xdr, "encode"),),
    "reply decode": ((pickle, "loads"), (xdr, "decode")),
}
#: unprofiled repeats the in-situ lines take the median of
IN_SITU_REPEATS = 5


def _thread_now() -> tuple[float, int]:
    """The master thread's CPU seconds and minor page faults so far."""
    return time.thread_time(), resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


class _LayerClock:
    """The master thread's CPU and minor faults in each :data:`IN_SITU`
    layer, net of the layers called inside it (a grid's encode holds its
    book's write and encode: the write is the book's, the two encodes the
    codec's), and the CPU of each spent after the repeat's pool started."""

    def __init__(self) -> None:
        self.reset()
        self._open: list[list[float]] = []  # [cpu, faults at start, cpu, faults nested]

    def reset(self) -> None:
        self.spent = dict.fromkeys(IN_SITU, 0.0)
        self.faults = dict.fromkeys(IN_SITU, 0)
        self.after_start = dict.fromkeys(IN_SITU, 0.0)
        self.started = False

    def timed(self, layer: str, function: Callable) -> Callable:
        def timed_call(*args, **kwargs):
            after_start = self.started
            call = [*_thread_now(), 0.0, 0]
            self._open.append(call)
            try:
                return function(*args, **kwargs)
            finally:
                self._open.pop()
                cpu, faults = _thread_now()
                cpu, faults = cpu - call[0], faults - call[1]
                self.spent[layer] += cpu - call[2]
                self.faults[layer] += faults - call[3]
                if after_start:
                    self.after_start[layer] += cpu - call[2]
                if self._open:
                    self._open[-1][2] += cpu
                    self._open[-1][3] += faults
                self.started |= layer == "pool start"

        return timed_call


def in_situ(workload, pool) -> tuple[dict[str, tuple[float, float, float]], float, float,
                                     float, int]:
    """Median CPU seconds, minor faults and CPU seconds after the pool start
    a repeat of each :data:`IN_SITU` layer; median CPU seconds and minor
    faults of the whole master thread, and CPU seconds of the master's other
    threads (:func:`time.process_time` less :func:`time.thread_time`), over
    :data:`IN_SITU_REPEATS` unprofiled repeats on fresh inputs (as each round
    of ``bench.py`` builds its own); positions."""
    clock = _LayerClock()
    originals = [(owner, name, getattr(owner, name))
                 for pairs in IN_SITU.values() for owner, name in pairs]
    for layer, pairs in IN_SITU.items():
        for owner, name in pairs:
            setattr(owner, name, clock.timed(layer, getattr(owner, name)))
    samples: dict[str, list[tuple[float, int, float]]] = {layer: [] for layer in IN_SITU}
    totals, total_faults, off_main = [], [], []
    try:
        for _ in range(IN_SITU_REPEATS):
            inputs = workload.build_profile(1, False)
            session = make_session(workload, pool)
            gc.collect()
            clock.reset()
            process_start, (start, faults) = time.process_time(), _thread_now()
            execute(workload, session, inputs)
            end, end_faults = _thread_now()
            totals.append(end - start)
            off_main.append(time.process_time() - process_start - totals[-1])
            total_faults.append(end_faults - faults)
            for layer in IN_SITU:
                samples[layer].append(
                    (clock.spent[layer], clock.faults[layer], clock.after_start[layer]))
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    medians = {layer: tuple(map(statistics.median, zip(*values)))
               for layer, values in samples.items()}
    return (medians, statistics.median(totals), statistics.median(total_faults),
            statistics.median(off_main), inputs.n_positions)


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


def _fresh(source: Any, portfolio: Portfolio) -> Any:
    """``source`` of a recorded plan rebuilt from ``portfolio``, fresh
    inputs of the same seed: problems that hold no digest, signature or
    written parameters yet.  A scenario grid keeps its scenarios and which
    cells it has (a risk plan does not decide that; ``columns`` is its own
    row); a prepared job list is taken as recorded."""
    if isinstance(source, Portfolio):
        return portfolio
    if isinstance(source, ScenarioGrid) and len(source.problems) == len(portfolio):
        grid = ScenarioGrid(
            [position.problem for position in portfolio], source.scenarios,
            on_missing=source.on_missing, kernel=source.kernel, offset=source.offset,
            n_scenarios=source.n_scenarios, answered=source.answered, rows=source.rows,
        )
        grid.columns()
        return grid
    return source


def plan_again(plans, build_plan: Callable, workload) -> float:
    """Microseconds a position of making each recorded plan again, each pass
    over freshly built inputs (:func:`_fresh`), built outside the timing."""
    positions = sum(len(build_plan(*args, **kwargs).original_ids) for args, kwargs in plans)

    def one_pass() -> float:
        fresh = [((_fresh(args[0], workload.build_profile(1, False).portfolio), *args[1:]),
                  kwargs) for args, kwargs in plans]
        start = time.perf_counter()
        for args, kwargs in fresh:
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


#: where the master sleeps: in its backend's selector (epoll on Linux)
_WAITS = ("<method 'poll' of 'select.poll' objects>", "<method 'poll' of 'select.epoll' objects>")


def main(name: str) -> None:
    workload = WORKLOADS[name]
    pool, inputs = set_up(workload, seed=1, smoke=False)
    campaigns = []
    profile = cProfile.Profile()
    try:
        layers, master, master_faults, off_main, units = in_situ(workload, pool)
        session = make_session(workload, pool)
        open_campaign = session._open_campaign

        def recording(*args, **kwargs):  # a risk campaign returns a summary, not its report
            campaigns.append(open_campaign(*args, **kwargs))
            return campaigns[-1]

        session._open_campaign = recording
        objects = {label: _record_calls(owner, name)[0]
                   for label, (owner, name) in _OBJECTS.items()}
        plans, build_plan = _record_calls(repro.api.session, "build_plan")
        scatters, scatter = _record_calls(ResultTable, "scatter")
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
    print(f"  build_plan {plan_again(plans, build_plan, workload):.1f} us (fresh inputs) and "
          f"ResultTable.scatter {scatter_again(scatters, scatter):.1f} us a position (best of "
          f"{PASSES} unprofiled passes)")
    print(f"  in situ, median of {IN_SITU_REPEATS} unprofiled repeats: master thread "
          f"{1e3 * master:.1f} ms and {master_faults:.0f} minor faults a repeat, of which")
    forks = layers["pool start"][0] > 0  # a remote pool was up before the repeat
    for layer, (seconds, faults, after_start) in layers.items():
        print(f"    {layer:28s} {1e3 * seconds:6.1f} ms a repeat {1e6 * seconds / units:6.2f} "
              f"us a position {seconds / master:6.1%} {faults:6.0f} minor faults"
              + (f" {1e3 * after_start:6.1f} ms after the pool start" if forks else ""))
    print(f"  master CPU off the main thread {1e3 * off_main:.1f} ms a repeat "
          f"(process less main-thread CPU)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "var_campaign_mp")

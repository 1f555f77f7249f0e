"""The traced run: one workload replayed stage by stage, layer by layer.

End-to-end metrics never come from here.  The replay re-enacts, in a single
process and through public functions only, what the session does between
submit and assembled result -- in the order ROADMAP's north star lists the
layers -- and opens exactly one span around each stage.  Spans are held in
memory and written in Chrome trace-event format when the run ends.

Three kinds of numbers come out:

* **replay stages** on the workload's own inputs (``*_us_per_position`` ...);
* **real runs** of the same inputs: the ``local`` backend (the plain
  single-process baseline the stages must add up to -- ``trace.coverage``)
  and the workload's real backend (bytes sent, worker busy fraction,
  parallel efficiency), plus one-job-at-a-time ping-pong on both transports;
* **fixed probes**, the same on every workload: one problem per pricing
  method, a small basket grid through both kernels, a 1 MiB array through
  the shared-memory transport.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.api import ValuationSession
from repro.api.results import RunResult
from repro.cluster.backends import CompletedJob, Job, create_backend, materialize_problem
from repro.cluster.backends.base import BackendStats
from repro.cluster.shm import SegmentRegistry, decode_result, encode_result
from repro.cluster.worker import LocalWorkerPool, spawn_local_workers
from repro.core.portfolio import Portfolio, Position
from repro.core.runner import RunReport
from repro.core.scheduler import RobinHoodPolicy, ScheduleOutcome, ScheduleStream
from repro.core.strategies import get_strategy
from repro.pricing import ProblemBatch, ResultCache, plan_batches, price_problems, problem_digest
from repro.pricing.batch import BatchPlan, batch_digest
from repro.pricing.scenarios import (
    Scenario,
    collect_cell_prices,
    expand_scenarios,
    historical_scenarios,
)
from repro.serial import FRAME_JOB, FrameAssembler, encode_frame, unserialize, xdr

from benchmarks.e2e.harness import make_session, measured
from benchmarks.e2e.workloads import (
    N_WORKERS,
    Inputs,
    Workload,
    build_basket_grid,
    build_realistic,
)

#: the replay's stage spans, in replay order, and whether the ``local``
#: backend's run performs the stage ("always", only when "batched", "never");
#: only performed stages count towards ``trace.coverage``
REPLAY_STAGES: tuple[tuple[str, str], ...] = (
    ("pricing.scenarios.expand", "always"),
    ("core.portfolio.build_jobs", "always"),
    ("pricing.cache.digest", "batched"),
    ("pricing.batch.plan", "batched"),
    ("serial.xdr.encode", "always"),
    ("serial.frames.encode", "never"),
    ("serial.frames.assemble", "never"),
    ("cluster.backends.multiproc.roundtrip", "never"),
    ("cluster.backends.remote.roundtrip", "never"),
    ("serial.xdr.decode", "never"),
    ("cluster.execution.materialize", "always"),
    ("pricing.methods.compute", "always"),
    ("serial.xdr.result_encode", "never"),
    ("serial.xdr.result_decode", "never"),
    ("api.assemble", "always"),
    ("pricing.cache.put", "never"),
    ("pricing.cache.get", "never"),
)

#: every other span of a traced run (each opened exactly once)
OTHER_SPANS: tuple[str, ...] = (
    "replay",
    "core.scheduler.loop",
    "api.session.local_run",
    "api.session.first_result",
    "api.session.real_run",
    "pricing.cache.warm_rerun",
    "probe.cluster.shm",
    "probe.pricing.methods",
    "probe.pricing.kernel",
)

#: layers summed into the ``trace.share.*`` metrics: shares of the replay's
#: staged total (the performed stages), which add up to 1; the box's speed
#: drifts by +-15 % within seconds, so a share against the separately timed
#: local run would carry that drift -- ``trace.coverage`` relates the two
SHARE_GROUPS: dict[str, tuple[str, ...]] = {
    "portfolio": ("core.portfolio.build_jobs",),
    "planning": ("pricing.scenarios.expand", "pricing.cache.digest", "pricing.batch.plan"),
    "serial": ("serial.xdr.encode", "cluster.execution.materialize"),
    "compute": ("pricing.methods.compute",),
    "assemble": ("api.assemble",),
}

METHOD_CATEGORIES = ("vanilla_cf", "barrier_pde", "basket_mc", "localvol_mc",
                     "american_pde", "american_basket_ls")

_PROBE_MB = 1 << 20
_FEED_BYTES = 1 << 16


class Tracer:
    """In-memory span recorder; one trace per workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self._origin = time.perf_counter()
        self._events: list[dict[str, Any]] = []
        self._seconds: dict[str, float] = {}

    @contextmanager
    def span(self, name: str, parent: str | None = "replay") -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._seconds[name] = end - start
            self._events.append({
                "name": name, "cat": name.rsplit(".", 1)[0], "ph": "X",
                "ts": 1e6 * (start - self._origin), "dur": 1e6 * (end - start),
                "pid": 1, "tid": 1,
                "args": {"parent": parent, "workload": self.workload},
            })

    def seconds(self, name: str) -> float:
        return self._seconds[name]

    def names(self) -> list[str]:
        return [event["name"] for event in self._events]

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON (loads in Perfetto / chrome://tracing)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        events = sorted(self._events, key=lambda event: event["ts"])
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}) + "\n")


# -- shared pieces ------------------------------------------------------------------


def expand(workload: Workload, inputs: Inputs):
    """The (expanded) book a run dispatches: scenario cells for a risk campaign.

    Plain workloads expand against the lone base scenario, which hands the
    same problems back -- every workload passes through the same call.
    """
    positions = inputs.portfolio.positions
    scenarios = (historical_scenarios(inputs.spot_returns) if workload.risk
                 else (Scenario(name="base"),))
    problems, cells = expand_scenarios(
        [position.problem for position in positions], scenarios, on_missing="base")
    grid = Portfolio(name=f"{inputs.portfolio.name}_grid", positions=[
        Position(problem=problem, category=positions[cell.problem_index].category,
                 label=problem.label or f"cell{index:06d}")
        for index, (problem, cell) in enumerate(zip(problems, cells))
    ])
    return grid, problems, cells, scenarios


def run_grid(workload: Workload, session: ValuationSession, inputs: Inputs) -> RunResult:
    """Expand and run on ``session`` -- what ``session.risk`` does inside,
    but handing back the :class:`RunResult` (report, bytes, busy times)."""
    grid = expand(workload, inputs)[0]
    return session.run(grid, **workload.run_options)


def _ordered_prices(result: RunResult) -> list[float]:
    prices = result.prices()
    return [prices[job_id] for job_id in sorted(prices)]


def _coalesce(jobs: list[Job], problems: list[Any], plan: BatchPlan, kernel: str) -> list[Job]:
    """Shared-simulation groups as :class:`ProblemBatch` super-jobs (what the
    session dispatches under ``batch=True``), singles unchanged."""
    units = [jobs[index] for index in plan.singles]
    for group in plan.groups:
        members = [jobs[index] for index in group.indices]
        bundle = ProblemBatch([problems[index] for index in group.indices],
                              keys=[job.job_id for job in members], kernel=kernel)
        units.append(Job(
            job_id=members[0].job_id,
            path=f"/virtual/batch/{batch_digest(bundle)[:16]}.pb",
            file_size=sum(job.file_size for job in members),
            compute_cost=sum(job.compute_cost for job in members),
            category=members[0].category,
            problem=bundle,
        ))
    return sorted(units, key=lambda job: job.job_id)


def _ping_pong(tracer: Tracer, span: str, backend_name: str, job: Job, message: Any,
               budget_s: float, **options: Any) -> dict[str, float]:
    """One job in flight at a time on a real backend: transport latency.

    The worker reports its own compute time with every result, so each
    sample is the round trip minus the compute it carried.
    """
    start = time.perf_counter()
    backend = create_backend(backend_name, n_workers=N_WORKERS, **options)
    spawn_s = time.perf_counter() - start
    samples: list[float] = []
    try:
        with tracer.span(span):
            deadline = time.perf_counter() + budget_s
            while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 400):
                begin = time.perf_counter()
                backend.dispatch(len(samples) % N_WORKERS, job, message)
                done = backend.collect()
                samples.append(time.perf_counter() - begin - done.compute_time)
    finally:
        start = time.perf_counter()
        backend.finalize()
        finalize_s = time.perf_counter() - start
    return {"roundtrip_us": 1e6 * statistics.median(samples), "spawn_s": spawn_s,
            "finalize_s": finalize_s}


# -- the replay ---------------------------------------------------------------------


def _replay(tracer: Tracer, workload: Workload, inputs: Inputs, pool: LocalWorkerPool,
            budget_s: float) -> tuple[dict[str, float], list[float], list[Job], ResultCache]:
    """Stage-by-stage replay; returns (metrics, prices, dispatched units, warm cache)."""
    batched = bool(workload.run_options.get("batch"))
    kernel = workload.run_options.get("kernel", "loop")
    m: dict[str, float] = {}

    with tracer.span("pricing.scenarios.expand"):
        grid, problems, cells, scenarios = expand(workload, inputs)
    n = len(problems)
    with tracer.span("core.portfolio.build_jobs"):
        jobs = grid.build_jobs(attach_problems=True)
    with tracer.span("pricing.cache.digest"):
        digests = [problem_digest(problem) for problem in problems]
    with tracer.span("pricing.batch.plan"):
        plan = plan_batches(problems,
                            min_group_size=workload.run_options.get("min_group_size", 2))
        units = _coalesce(jobs, problems, plan, kernel) if batched else jobs

    strategy = get_strategy("serialized_load")
    with tracer.span("serial.xdr.encode"):
        messages = [strategy.prepare(job) for job in units]
    with tracer.span("serial.frames.encode"):
        frames = [
            encode_frame(FRAME_JOB, xdr.encode(
                {"job_id": job.job_id, "kind": message.kind, "payload": message.payload}))
            for job, message in zip(units, messages)
        ]
    stream = b"".join(frames)
    with tracer.span("serial.frames.assemble"):
        assembler = FrameAssembler()
        n_frames = 0
        for offset in range(0, len(stream), _FEED_BYTES):
            assembler.feed(stream[offset:offset + _FEED_BYTES])
            n_frames += sum(1 for _ in assembler)

    cheapest = min(range(len(units)), key=lambda index: units[index].compute_cost)
    multiproc = _ping_pong(tracer, "cluster.backends.multiproc.roundtrip", "multiprocessing",
                           units[cheapest], messages[cheapest], budget_s)
    remote = _ping_pong(tracer, "cluster.backends.remote.roundtrip", "remote",
                        units[cheapest], messages[cheapest], budget_s, hosts=pool.hosts)

    with tracer.span("serial.xdr.decode"):
        for message in messages:
            unserialize(message.payload)
    with tracer.span("cluster.execution.materialize"):
        materialized = [materialize_problem(message.kind, message.payload)
                        for message in messages]

    completed: list[CompletedJob] = []
    with tracer.span("pricing.methods.compute"):
        origin = time.perf_counter()
        for job, problem in zip(units, materialized):
            begin = time.perf_counter()
            if isinstance(problem, ProblemBatch):
                members = problem.compute()
                result: dict[str, Any] = {
                    "batch": True, "n_members": len(problem),
                    "results": {str(key): entry for key, entry in members.items()},
                }
            else:
                result = problem.compute().as_dict()
            end = time.perf_counter()
            completed.append(CompletedJob(job_id=job.job_id, worker_id=0, result=result,
                                          compute_time=end - begin, collected_at=end - origin))

    with tracer.span("serial.xdr.result_encode"):
        encoded = [
            xdr.encode({"job_id": done.job_id, "result": done.result,
                        "elapsed": done.compute_time, "error": None})
            for done in completed
        ]
    with tracer.span("serial.xdr.result_decode"):
        for blob in encoded:
            xdr.decode(blob)

    with tracer.span("api.assemble"):
        compute_s = sum(done.compute_time for done in completed)
        outcome = ScheduleOutcome(
            completed=completed,
            stats=BackendStats(total_time=compute_s, n_jobs=len(units), n_workers=1,
                               worker_busy={0: compute_s}),
            scheduler_name="robin_hood",
        )
        report = RunReport.from_outcome(outcome, units, strategy.name)
        flat: dict[int, dict[str, Any]] = {}
        for job_id, entry in report.results.items():
            if entry.get("batch"):
                flat.update((int(key), member) for key, member in entry["results"].items())
            else:
                flat[job_id] = entry
        prices = [flat[index]["price"] for index in range(n)]
        collect_cell_prices(prices, cells, scenarios, len(inputs.portfolio))

    cache = ResultCache(max_entries=n)
    with tracer.span("pricing.cache.put"):
        for index, digest in enumerate(digests):
            cache.put(digest, flat[index])
    with tracer.span("pricing.cache.get"):
        for digest in digests:
            cache.get(digest)

    def us(span: str, count: int) -> float:
        return 1e6 * tracer.seconds(span) / count

    m["pricing.scenarios.expand_us_per_cell"] = us("pricing.scenarios.expand", n)
    m["pricing.scenarios.n_cells"] = n
    m["core.portfolio.build_jobs_us_per_position"] = us("core.portfolio.build_jobs", n)
    m["pricing.cache.digest_us_per_problem"] = us("pricing.cache.digest", n)
    m["pricing.cache.put_us"] = us("pricing.cache.put", n)
    m["pricing.cache.get_us"] = us("pricing.cache.get", n)
    m["pricing.batch.plan_us_per_position"] = us("pricing.batch.plan", n)
    m["pricing.batch.n_groups"] = len(plan.groups)
    m["pricing.batch.simulations_saved"] = plan.n_simulations_saved
    m["serial.xdr.encode_us_per_problem"] = us("serial.xdr.encode", n)
    m["serial.xdr.decode_us_per_problem"] = us("serial.xdr.decode", n)
    m["serial.xdr.bytes_per_problem"] = sum(message.nbytes for message in messages) / n
    m["serial.xdr.result_encode_us"] = us("serial.xdr.result_encode", len(units))
    m["serial.xdr.result_decode_us"] = us("serial.xdr.result_decode", len(units))
    m["serial.frames.encode_us_per_frame"] = us("serial.frames.encode", len(units))
    m["serial.frames.assemble_us_per_frame"] = us("serial.frames.assemble", n_frames)
    m["cluster.backends.multiproc.roundtrip_us"] = multiproc["roundtrip_us"]
    m["cluster.backends.multiproc.spawn_s"] = multiproc["spawn_s"]
    m["cluster.backends.multiproc.finalize_s"] = multiproc["finalize_s"]
    m["cluster.backends.remote.roundtrip_us"] = remote["roundtrip_us"]
    m["cluster.backends.remote.connect_s"] = remote["spawn_s"]
    m["cluster.execution.materialize_us_per_job"] = us("cluster.execution.materialize",
                                                       len(units))
    m["pricing.methods.compute_ms_per_job"] = 1e3 * statistics.median(
        done.compute_time for done in completed)
    return m, prices, units, cache


# -- fixed probes ---------------------------------------------------------------------


def _probe_shm(tracer: Tracer, repeats: int) -> dict[str, float]:
    registry = SegmentRegistry(f"rshm{os.getpid()}p")
    payload = {"values": np.arange(_PROBE_MB // 8, dtype=np.float64)}
    try:
        with tracer.span("probe.cluster.shm", parent=None):
            for _ in range(repeats):
                decode_result(encode_result(payload, registry, 0), registry)
    finally:
        registry.close()
    return {"cluster.shm.encode_decode_us_per_mb":
            1e6 * tracer.seconds("probe.cluster.shm") / repeats}


def _probe_methods(tracer: Tracer, seed: int, repeats: int) -> dict[str, float]:
    """Median ``problem.compute()`` of one problem per Table III method."""
    panel: dict[str, Any] = {}
    for position in build_realistic(seed, fraction=1e-6).portfolio:
        panel.setdefault(position.category, position.problem)
    samples: dict[str, list[float]] = {category: [] for category in METHOD_CATEGORIES}
    with tracer.span("probe.pricing.methods", parent=None):
        for category in METHOD_CATEGORIES:
            for _ in range(repeats):
                begin = time.perf_counter()
                panel[category].compute()
                samples[category].append(time.perf_counter() - begin)
    return {f"pricing.methods.compute_ms.{category}": 1e3 * statistics.median(values)
            for category, values in samples.items()}


def _probe_kernel(tracer: Tracer, seed: int, fraction: float) -> dict[str, float]:
    """A small basket grid through both kernels, in-process and via the session."""

    def grid() -> Inputs:
        return build_basket_grid(seed, fraction)

    sizes = grid().sizes
    with tracer.span("probe.pricing.kernel", parent=None):
        seconds: dict[str, float] = {}
        prices: dict[str, list[float]] = {}
        for kernel in ("loop", "stacked"):
            problems = [position.problem for position in grid().portfolio]
            results, cost = measured(lambda: price_problems(problems, kernel=kernel))
            seconds[kernel] = cost["wall_s"]
            prices[kernel] = [result.price for result in results]
            book = grid().portfolio
            run, cost = measured(
                lambda: ValuationSession(backend="local").run(book, batch=True, kernel=kernel))
            seconds[f"session_{kernel}"] = cost["wall_s"]
            prices[f"session_{kernel}"] = _ordered_prices(run)
    if len({tuple(vector) for vector in prices.values()}) != 1:
        raise RuntimeError("kernel probe: loop / stacked / session prices differ")
    return {
        "pricing.kernel.loop_s": seconds["loop"],
        "pricing.kernel.stacked_s": seconds["stacked"],
        "pricing.kernel.paths_per_s": sizes["families"] * sizes["paths"] / seconds["stacked"],
        "pricing.kernel.session_stacked_over_loop":
            seconds["session_loop"] / seconds["session_stacked"],
    }


# -- the traced run -----------------------------------------------------------------


def run_traced(workload: Workload, seed: int, smoke: bool, trace_path: Path) -> dict[str, Any]:
    """Replay, real runs and probes of one workload; writes the trace file."""
    tracer = Tracer(workload.name)
    budget_s = 0.1 if smoke else 0.5

    def fresh() -> Inputs:
        return workload.build_profile(seed, smoke)

    pool = spawn_local_workers(N_WORKERS)
    try:
        with tracer.span("replay", parent=None):
            m, replay_prices, units, cache = _replay(tracer, workload, fresh(), pool, budget_s)

        inputs = fresh()
        with tracer.span("api.session.local_run", parent=None):
            local = run_grid(workload, make_session(workload, None, backend="local"), inputs)
        local_wall = tracer.seconds("api.session.local_run")

        inputs = fresh()
        session = make_session(workload, pool)
        with tracer.span("api.session.real_run", parent=None):
            real, real_cost = measured(lambda: run_grid(workload, session, inputs))
        real_wall = real_cost["wall_s"]

        inputs = fresh()
        with tracer.span("api.session.first_result", parent=None):
            stream = make_session(workload, None, backend="local").stream(
                expand(workload, inputs)[0], **workload.run_options)
            next(iter(stream))
        stream.cancel()
        stream.result()
    finally:
        pool.stop()

    inputs = fresh()
    hits_before = cache.stats.hits
    with tracer.span("pricing.cache.warm_rerun", parent=None):
        warm = run_grid(workload, ValuationSession(backend="local", cache=cache), inputs)

    strategy = get_strategy("serialized_load")
    with tracer.span("core.scheduler.loop", parent=None):
        ScheduleStream(units, create_backend("simulated", n_workers=N_WORKERS), strategy,
                       policy=RobinHoodPolicy()).finish()

    m.update(_probe_shm(tracer, repeats=5 if smoke else 50))
    m.update(_probe_methods(tracer, seed, repeats=2 if smoke else 5))
    m.update(_probe_kernel(tracer, seed, fraction=0.04 if smoke else 0.2))

    n = len(replay_prices)
    performed = {"always"} | ({"batched"} if workload.run_options.get("batch") else set())
    staged = sum(tracer.seconds(name) for name, when in REPLAY_STAGES if when in performed)
    report = real.report
    m["pricing.cache.warm_rerun_s"] = tracer.seconds("pricing.cache.warm_rerun")
    m["pricing.cache.hit_rate"] = (cache.stats.hits - hits_before) / n
    m["core.scheduler.loop_us_per_job"] = 1e6 * tracer.seconds("core.scheduler.loop") / len(units)
    m["core.scheduler.parallel_efficiency"] = local_wall / (N_WORKERS * real_wall)
    m["cluster.bytes_sent_per_position"] = report.bytes_sent / n
    m["cluster.worker_busy_fraction"] = sum(report.worker_busy.values()) / (
        len(report.worker_busy) * report.total_time)
    m["api.session.self_s"] = local_wall - staged
    m["api.first_result_s"] = tracer.seconds("api.session.first_result")
    m["trace.local_wall_s"] = local_wall
    m["trace.real_wall_s"] = real_wall
    m["trace.real_cpu_s_total"] = real_cost["cpu_s_total"]
    m["trace.real_master_cpu_us_per_position"] = 1e6 * real_cost["master_cpu_s"] / n
    m["trace.coverage"] = staged / local_wall
    for group, names in SHARE_GROUPS.items():
        m[f"trace.share.{group}"] = sum(
            tracer.seconds(name) for name, when in REPLAY_STAGES
            if name in names and when in performed) / staged

    tracer.write(trace_path)
    runs = {"local": local, "real": real, "warm": warm}
    mismatched = [name for name, run in runs.items() if _ordered_prices(run) != replay_prices]
    failed = sum(len(run.report.errors) for run in runs.values())
    return {
        "sizes": inputs.sizes,
        "backend": workload.backend,
        "correct": not mismatched and failed == 0,
        "attempted": n * len(runs),
        "failed": failed,
        "mismatched_runs": mismatched,
        "spans": {name: tracer.seconds(name) for name in tracer.names()},
        "trace_file": str(trace_path),
        "metrics": m,
    }

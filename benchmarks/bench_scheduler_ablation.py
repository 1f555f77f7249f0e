"""Benchmark S1 -- the scheduler ablation on one skewed portfolio.

Every registered scheduler is a :class:`~repro.core.scheduler.DispatchPolicy`
over the same streaming master loop, so this ablation is a pure policy
comparison: static block partitioning, Robin Hood (the paper's loop),
chunked Robin Hood (one message per chunk, the chunks cut from the queue by
estimated cost) and work stealing (static blocks plus stealing from the
most-loaded tail) value the *same* skewed workload on
the same simulated cluster, and only the virtual makespans differ.

The workload is deliberately hostile to static partitioning: a long run of
cheap vanilla-style jobs with one contiguous band of expensive American-style
jobs, so whichever worker draws the band becomes the static critical path.
Dynamic policies (robin hood, work stealing) must beat the static baseline;
work stealing must land in the same league as robin hood, and the derived
chunks must stay within a tenth of it.

A second axis stresses the same policies under **churn**: a
:class:`~repro.cluster.simcluster.ChurnSchedule` kills a slice of the workers
mid-run and joins a replacement later, all in deterministic virtual time, so
the benchmark answers "how gracefully does each policy degrade when the
cluster shrinks under it?" without a single real socket.

The full profile also replays the paper's own books (``paper_books`` in the
JSON): the realistic portfolio (scale 0.25) on 64 workers, where dynamic
balancing must beat the static baseline and chunking must cost next to
nothing (its chunks shrink to single jobs as the queue drains), and 5,000
cheap toy options on 32 workers, where the conclusion's two refinements --
chunked messages and :func:`~repro.core.scheduler.simulate_hierarchical`
sub-masters -- pay off.

Results land in ``benchmarks/results/BENCH_scheduler_ablation.json`` and
``benchmarks/results/BENCH_churn.json``.

Run standalone for the CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_scheduler_ablation.py --smoke
    PYTHONPATH=src python benchmarks/bench_scheduler_ablation.py --churn --smoke
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.conftest import write_bench_json  # noqa: E402
from repro.cluster.backends.base import Job  # noqa: E402
from repro.cluster.simcluster import (  # noqa: E402
    ChurnSchedule,
    ClusterSpec,
    SimulatedClusterBackend,
)
from repro.cluster.costmodel import paper_cost_model  # noqa: E402
from repro.core.portfolio import build_realistic_portfolio, build_toy_portfolio  # noqa: E402
from repro.core.scheduler import (  # noqa: E402
    ChunkedPolicy,
    DispatchPolicy,
    RobinHoodPolicy,
    ScheduleOutcome,
    ScheduleStream,
    StaticBlockPolicy,
    WorkStealingPolicy,
    simulate_hierarchical,
)
from repro.core.strategies import get_strategy  # noqa: E402

#: full-profile workload (the acceptance configuration)
FULL_CHEAP = 1_600
FULL_EXPENSIVE = 120
FULL_WORKERS = 64
#: smoke-profile sizes for the CI check
SMOKE_CHEAP = 200
SMOKE_EXPENSIVE = 16
SMOKE_WORKERS = 8

CHEAP_COST = 0.02
EXPENSIVE_COST = 2.5
STRATEGY_NAME = "serialized_load"


def build_skewed_jobs(n_cheap: int, n_expensive: int) -> list[Job]:
    """Cheap head + one contiguous expensive band + cheap tail.

    The band sits at one third of the portfolio so a static contiguous
    partition concentrates it on a few workers -- the pathology dynamic
    load balancing exists to fix.
    """
    costs = [CHEAP_COST] * n_cheap
    band_start = n_cheap // 3
    costs[band_start:band_start] = [EXPENSIVE_COST] * n_expensive
    return [
        Job(job_id=index, path=f"/virtual/skew/{index}.pb", file_size=700,
            compute_cost=cost, category="skewed")
        for index, cost in enumerate(costs)
    ]


def _drain(
    policy: DispatchPolicy, jobs: list[Job], n_workers: int, churn: ChurnSchedule | None = None
) -> ScheduleOutcome:
    """One simulated run: the same streaming path the futures API uses."""
    backend = SimulatedClusterBackend(
        ClusterSpec.homogeneous(n_workers), strategy=STRATEGY_NAME, churn=churn
    )
    return ScheduleStream(jobs, backend, get_strategy(STRATEGY_NAME), policy).finish()


def _makespan(policy: DispatchPolicy, jobs: list[Job], n_workers: int) -> float:
    return round(_drain(policy, jobs, n_workers).total_time, 6)


def run_paper_books() -> dict:
    """The paper's books: where each refinement of the conclusion helps or hurts."""
    realistic = build_realistic_portfolio(profile="paper", scale=0.25).build_jobs(
        cost_model=paper_cost_model()
    )
    cheap = build_toy_portfolio(n_options=5_000).build_jobs(cost_model=paper_cost_model())

    def hierarchical(jobs: list[Job], n_workers: int) -> float:
        return round(simulate_hierarchical(jobs, n_workers, n_groups=4)["total_time"], 6)

    return {
        "realistic_x0.25": {
            "n_jobs": len(realistic),
            "n_workers": 64,
            "ideal_makespan_s": round(sum(job.compute_cost for job in realistic) / 64, 6),
            "virtual_makespan_s": {
                "static_block": _makespan(StaticBlockPolicy(), realistic, 64),
                "robin_hood": _makespan(RobinHoodPolicy(), realistic, 64),
                "chunked_robin_hood": _makespan(ChunkedPolicy(), realistic, 64),
                "hierarchical(4 groups)": hierarchical(realistic, 64),
            },
        },
        "toy_5000_cheap": {
            "n_jobs": len(cheap),
            "n_workers": 32,
            "virtual_makespan_s": {
                "robin_hood": _makespan(RobinHoodPolicy(), cheap, 32),
                "chunked_robin_hood": _makespan(ChunkedPolicy(), cheap, 32),
                "hierarchical(4 groups)": hierarchical(cheap, 32),
            },
        },
    }


def run_scheduler_ablation(n_cheap: int, n_expensive: int, n_workers: int) -> dict:
    jobs = build_skewed_jobs(n_cheap, n_expensive)
    policies = {
        "static_block": StaticBlockPolicy(),
        "robin_hood": RobinHoodPolicy(),
        "chunked_robin_hood": ChunkedPolicy(),
        "work_stealing": WorkStealingPolicy(),
    }
    times = {
        name: _makespan(policy, jobs, n_workers) for name, policy in policies.items()
    }

    ideal = sum(job.compute_cost for job in jobs) / n_workers
    return {
        "n_jobs": len(jobs),
        "n_cheap": n_cheap,
        "n_expensive": n_expensive,
        "n_workers": n_workers,
        "strategy": STRATEGY_NAME,
        "ideal_makespan_s": round(ideal, 6),
        "virtual_makespan_s": times,
        "speedup_vs_static": {
            name: round(times["static_block"] / time, 3)
            for name, time in times.items()
        },
    }


def _churn_schedule(n_workers: int, ideal: float) -> ChurnSchedule:
    """Kill a quarter of the pool mid-run, join one replacement later.

    Times are fractions of the ideal makespan so the same *shape* of churn
    scales from the smoke profile to the full profile.
    """
    schedule = ChurnSchedule()
    for index in range(max(1, n_workers // 4)):
        schedule.kill(index, at=(0.25 + 0.1 * index) * ideal)
    schedule.join(at=0.6 * ideal)
    return schedule


def run_churn_ablation(n_cheap: int, n_expensive: int, n_workers: int) -> dict:
    """The churn axis: the same skewed workload, with workers dying under it."""
    jobs = build_skewed_jobs(n_cheap, n_expensive)
    ideal = sum(job.compute_cost for job in jobs) / n_workers
    schedulers = {
        "robin_hood": RobinHoodPolicy,
        "work_stealing": WorkStealingPolicy,
    }
    baseline: dict[str, float] = {}
    churned: dict[str, float] = {}
    counters: dict[str, dict] = {}
    for name, policy_cls in schedulers.items():
        out = _drain(policy_cls(), jobs, n_workers)
        assert len(out.completed) == len(jobs)
        baseline[name] = round(out.stats.total_time, 6)

        out = _drain(policy_cls(), jobs, n_workers, _churn_schedule(n_workers, ideal))
        assert len(out.completed) == len(jobs)
        churned[name] = round(out.stats.total_time, 6)
        counters[name] = {
            key: value
            for key, value in out.stats.extra.items()
            if key.startswith("churn_")
        }

    schedule = _churn_schedule(n_workers, ideal)
    return {
        "n_jobs": len(jobs),
        "n_workers": n_workers,
        "strategy": STRATEGY_NAME,
        "ideal_makespan_s": round(ideal, 6),
        "churn_schedule": {
            "kills": [
                {"worker_id": wid, "at_s": round(at, 6)}
                for wid, at in sorted(schedule.kills.items())
            ],
            "joins": [
                {"at_s": round(at, 6), "speed": speed}
                for at, speed in schedule.joins
            ],
        },
        "virtual_makespan_s": {
            name: {"baseline": baseline[name], "churn": churned[name]}
            for name in schedulers
        },
        "degradation": {
            name: round(churned[name] / baseline[name], 3) for name in schedulers
        },
        "churn_counters": counters,
    }


def _check_churn(payload: dict) -> list[str]:
    """The churn axis' acceptance conditions; returns failure messages."""
    failures = []
    for name, times in payload["virtual_makespan_s"].items():
        if not times["churn"] >= times["baseline"]:
            failures.append(f"{name}: churn cannot be faster than a healthy pool")
    for name, counters in payload["churn_counters"].items():
        disrupted = counters.get("churn_redirects", 0) + counters.get(
            "churn_restarts", 0
        )
        if payload["churn_schedule"]["kills"] and disrupted == 0:
            failures.append(f"{name}: churn killed workers but disrupted no job")
    return failures


def _check(payload: dict) -> list[str]:
    """The ablation's acceptance conditions; returns failure messages."""
    times = payload["virtual_makespan_s"]
    failures = []
    if not times["robin_hood"] < times["static_block"]:
        failures.append("robin hood must beat the static baseline")
    if not times["work_stealing"] < times["static_block"]:
        failures.append("work stealing must beat the static baseline")
    if not times["work_stealing"] <= 1.25 * times["robin_hood"]:
        failures.append("work stealing must land in robin hood's league")
    # the cut rule's pins: chunks derived from the book must cost next to
    # nothing where per-job balancing wins and gain where the master is the
    # bottleneck -- no fixed chunk size did both.  (The smoke profile's 16
    # expensive jobs on 8 workers are too coarse for the full book's 10 %.)
    league = 1.10 if "paper_books" in payload else 1.25
    if not times["chunked_robin_hood"] <= league * times["robin_hood"]:
        failures.append(f"derived chunks must stay within {league:.2f}x of robin hood")
    if "paper_books" in payload:
        book = payload["paper_books"]["realistic_x0.25"]
        times = book["virtual_makespan_s"]
        if not times["robin_hood"] < times["static_block"]:
            failures.append("realistic book: robin hood must beat the static baseline")
        if not times["chunked_robin_hood"] <= 1.05 * times["robin_hood"]:
            failures.append("realistic book: derived chunks must stay within 5 % of robin hood")
        if not times["robin_hood"] < 1.5 * book["ideal_makespan_s"]:
            failures.append("realistic book: robin hood must land near the ideal bound")
        times = payload["paper_books"]["toy_5000_cheap"]["virtual_makespan_s"]
        # fewer, larger messages and sub-masters both relieve the master
        if not times["chunked_robin_hood"] <= 0.85 * times["robin_hood"]:
            failures.append("cheap book: chunked messages must beat per-job dispatch by 15 %")
        if not times["hierarchical(4 groups)"] < times["robin_hood"]:
            failures.append("cheap book: sub-masters must relieve the master bottleneck")
    return failures


def test_scheduler_ablation_emits_bench_json(benchmark):
    """Full-profile ablation: dynamic policies beat static, JSON committed."""
    payload = benchmark.pedantic(
        run_scheduler_ablation,
        args=(FULL_CHEAP, FULL_EXPENSIVE, FULL_WORKERS),
        rounds=1,
        iterations=1,
    )
    payload["paper_books"] = run_paper_books()
    write_bench_json("scheduler_ablation", payload)
    assert not _check(payload)


def test_churn_ablation_emits_bench_json(benchmark):
    """Full-profile churn axis: graceful degradation under worker deaths."""
    payload = benchmark.pedantic(
        run_churn_ablation,
        args=(FULL_CHEAP, FULL_EXPENSIVE, FULL_WORKERS),
        rounds=1,
        iterations=1,
    )
    write_bench_json("churn", payload)
    assert not _check_churn(payload)


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (CI smoke: tiny sizes, same invariants)."""
    args = argv if argv is not None else sys.argv[1:]
    smoke = "--smoke" in args
    sizes = (
        (SMOKE_CHEAP, SMOKE_EXPENSIVE, SMOKE_WORKERS)
        if smoke
        else (FULL_CHEAP, FULL_EXPENSIVE, FULL_WORKERS)
    )
    if "--churn" in args:
        payload = run_churn_ablation(*sizes)
        path = write_bench_json("churn_smoke" if smoke else "churn", payload)
        print(f"wrote {path}")
        for scheduler, times in payload["virtual_makespan_s"].items():
            print(f"  {scheduler:24s} healthy {times['baseline']:10.3f}s  "
                  f"churn {times['churn']:10.3f}s  "
                  f"({payload['degradation'][scheduler]:.2f}x degradation)")
        failures = _check_churn(payload)
    else:
        payload = run_scheduler_ablation(*sizes)
        if not smoke:
            payload["paper_books"] = run_paper_books()
        name = "scheduler_ablation_smoke" if smoke else "scheduler_ablation"
        path = write_bench_json(name, payload)
        print(f"wrote {path}")
        for scheduler, time in payload["virtual_makespan_s"].items():
            print(f"  {scheduler:24s} {time:10.3f}s  "
                  f"({payload['speedup_vs_static'][scheduler]:.2f}x vs static)")
        failures = _check(payload)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

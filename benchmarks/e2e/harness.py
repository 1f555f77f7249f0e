"""The untraced run of one workload: set-up, timed repeats, verification.

Everything here measures the pipeline from outside, through the session's
public entry points (``ValuationSession.run`` / ``.risk``) on a **real**
backend.  One call of :func:`run_end_to_end` is one benchmark run:

    closed loop of rounds for ``seconds`` (at least ``MIN_REPEATS`` of them, and
       no round is started that would not fit), each round a set-up (inputs
       from the seed, remote pool, warm-up at 1/10 size) and one timed repeat
       on those inputs and a fresh backend, as users pay it; medians over the
       rounds are reported
    -> untimed verification of the prices.

Set-up is redone before every repeat so that its samples spread over the whole
measuring window: the sizing box's speed drifts within seconds, and five
set-ups taken back to back at the start of a run all see the same drift.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing as mp
import os
import resource
import statistics
import struct
import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.api import ValuationSession
from repro.cluster.worker import LocalWorkerPool, spawn_local_workers
from repro.core.risk import historical_var
from repro.pricing import analytics
from repro.pricing.scenarios import apply_scenario, historical_scenarios

from benchmarks.e2e.workloads import N_WORKERS, WARMUP_FRACTION, Inputs, Workload

MIN_REPEATS = 3

T = TypeVar("T")

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class Outcome:
    """One run of a workload, reduced to what the benchmark compares."""

    #: price vector in submission order (risk: base value, then scenario values)
    prices: list[float]
    n_failed: int
    #: the risk campaign's summary dict (``None`` for plain runs)
    summary: dict[str, Any] | None = None

    def digest(self) -> str:
        return hashlib.sha256(struct.pack(f"<{len(self.prices)}d", *self.prices)).hexdigest()


def make_session(
    workload: Workload, pool: LocalWorkerPool | None, backend: str | None = None
) -> ValuationSession:
    """A session on the workload's backend (or ``backend``), defaults otherwise."""
    name = backend or workload.backend
    options = {"hosts": pool.hosts} if name == "remote" and pool is not None else None
    return ValuationSession(backend=name, n_workers=N_WORKERS, backend_options=options)


def execute(workload: Workload, session: ValuationSession, inputs: Inputs) -> Outcome:
    """Submit the inputs and wait for the assembled result."""
    if workload.risk:
        summary = session.risk(inputs.portfolio, spot_returns=inputs.spot_returns)
        prices = [summary["base_value"], *summary["scenario_values"]]
        return Outcome(prices=prices, n_failed=0, summary=summary)
    result = session.run(inputs.portfolio, **workload.run_options)
    prices = result.prices()
    ordered = [prices[job_id] for job_id in sorted(prices)]
    return Outcome(prices=ordered, n_failed=len(inputs.portfolio) - len(ordered))


# -- resource accounting ------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def worker_cpu_seconds() -> float:
    """CPU consumed so far by every worker this process started.

    Joined workers (multiprocessing backends finalize theirs inside the run)
    show up in ``RUSAGE_CHILDREN``; the long-lived remote pool is still alive
    and is read from ``/proc``.
    """
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = sum(_proc_cpu_seconds(child.pid) for child in mp.active_children())
    return usage.ru_utime + usage.ru_stime + live


def peak_rss_mb() -> float:
    """Peak resident set of the master plus that of its largest joined child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measured(call: Callable[[], T]) -> tuple[T, dict[str, float]]:
    """``call()``, its wall time and the CPU the master and the workers spent on it."""
    workers0, master0 = worker_cpu_seconds(), time.process_time()
    start = time.perf_counter()
    value = call()
    wall = time.perf_counter() - start
    master = time.process_time() - master0
    return value, {"wall_s": wall, "master_cpu_s": master,
                   "cpu_s_total": master + worker_cpu_seconds() - workers0}


# -- the run ------------------------------------------------------------------------


def set_up(workload: Workload, seed: int, smoke: bool) -> tuple[LocalWorkerPool | None, Inputs]:
    """Build inputs, start the remote pool where used, run the warm-up."""
    inputs = workload.build_profile(seed, smoke)
    warm = workload.build_profile(seed, smoke, WARMUP_FRACTION)
    pool = spawn_local_workers(N_WORKERS) if workload.backend == "remote" else None
    try:
        execute(workload, make_session(workload, pool), warm)
    except BaseException:
        if pool is not None:
            pool.stop()
        raise
    return pool, inputs


def run_end_to_end(workload: Workload, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """One untraced benchmark run; returns the workload's result record."""
    pool: LocalWorkerPool | None = None
    setup_samples: list[float] = []
    repeats: list[dict[str, float]] = []
    outcomes: list[Outcome] = []
    min_repeats = 1 if smoke else MIN_REPEATS
    begun = time.perf_counter()
    try:
        # a round is started only if one of the mean length so far still fits,
        # so a run ends within ``seconds`` and the driver's time cap holds
        while (len(repeats) < min_repeats
               or (time.perf_counter() - begun) * (1 + 1 / len(repeats)) < seconds):
            if pool is not None:
                pool.stop()
            # every round starts from the same collector state: left alone, a
            # full collection (~70 ms) lands in every other set-up and splits
            # its samples into two modes
            gc.collect()
            start = time.perf_counter()
            pool, inputs = set_up(workload, seed, smoke)
            setup_samples.append(time.perf_counter() - start)

            session = make_session(workload, pool)
            outcome, cost = measured(lambda: execute(workload, session, inputs))
            repeats.append(cost)
            outcomes.append(outcome)
    finally:
        if pool is not None:
            pool.stop()
    # memory is read before verification re-prices anything in this process
    peak_rss = peak_rss_mb()

    n_positions = inputs.n_positions
    start = time.perf_counter()
    checks = verify(workload, workload.build_profile(seed, smoke), outcomes)
    verify_s = time.perf_counter() - start
    mismatches = sum(checks.values())
    attempted = n_positions * len(repeats)
    failed = sum(outcome.n_failed for outcome in outcomes)

    def metric(samples: list[float], unit: str) -> dict[str, Any]:
        return {"value": statistics.median(samples), "unit": unit, "min": min(samples),
                "max": max(samples), "n": len(samples), "samples": samples}

    return {
        "sizes": inputs.sizes,
        "backend": workload.backend,
        "repeats": len(repeats),
        "correct": failed == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "price_mismatches": mismatches,
        "verification": {"seconds": verify_s, "checks": checks,
                         "price_digest": outcomes[0].digest()},
        # the end-to-end metrics BENCHMARK.json declares: ratios of two readings
        # of one repeat (the box's speed drift cancels), memory and set-up
        "metrics": {
            "busy_cores": metric([r["cpu_s_total"] / r["wall_s"] for r in repeats], "cores"),
            "master_cpu_share": metric(
                [r["master_cpu_s"] / r["cpu_s_total"] for r in repeats], "ratio"),
            "peak_rss_mb": metric([peak_rss], "MB"),
            "setup_s": metric(setup_samples, "s"),
        },
        # the raw times: reported and compared, but they follow the box's speed
        # (+-25 % between one minute and the next) and cannot carry a bound
        "times": {
            "wall_s": metric([r["wall_s"] for r in repeats], "s"),
            "master_cpu_us_per_position": metric(
                [1e6 * r["master_cpu_s"] / n_positions for r in repeats], "us"),
            "cpu_s_total": metric([r["cpu_s_total"] for r in repeats], "s"),
        },
    }


# -- verification -------------------------------------------------------------------


def _stride_sample(n: int, k: int) -> range:
    """At most ``k`` indices of ``range(n)`` at a fixed stride."""
    return range(0, n, max(1, math.ceil(n / max(k, 1))))


def verify(workload: Workload, inputs: Inputs, outcomes: list[Outcome]) -> dict[str, int]:
    """Count price mismatches, by check; ``inputs`` must be freshly built.

    * every repeat's price vector hashes identically;
    * a fixed-stride sample is re-priced alone in-process with
      ``problem.compute()`` and compared with ``==`` (batched members too --
      bit-identity is the repo's contract).  A risk campaign exposes scenario
      totals, not cells, so whole scenarios are re-priced cell by cell;
    * closed-form positions match :mod:`repro.pricing.analytics` to 1e-12;
    * a risk summary ``==`` :func:`repro.core.risk.historical_var`.
    """
    reference = outcomes[0]
    checks = {"repeat_digest": sum(o.digest() != reference.digest() for o in outcomes[1:])}
    positions = inputs.portfolio.positions

    if workload.risk:
        assert inputs.spot_returns is not None
        scenarios = historical_scenarios(inputs.spot_returns)
        picked = _stride_sample(len(scenarios), max(1, workload.verify_sample // len(positions)))
        checks["resample"] = sum(
            sum(
                position.quantity * apply_scenario(position.problem, scenarios[j]).compute().price
                for position in positions
            ) != reference.prices[j]
            for j in picked
        )
        oracle = historical_var(inputs.portfolio, inputs.spot_returns)
        checks["historical_var"] = int(reference.summary != oracle)
        return checks

    if len(reference.prices) != len(positions):
        checks["resample"] = len(positions) - len(reference.prices)
        return checks
    checks["resample"] = sum(
        positions[i].problem.compute().price != reference.prices[i]
        for i in _stride_sample(len(positions), workload.verify_sample)
    )
    closed_forms = {"CF_Call": analytics.bs_call_price, "CF_Put": analytics.bs_put_price}
    off = 0
    for position, price in zip(positions, reference.prices):
        formula = closed_forms.get(position.problem.method_name)
        if formula is None:
            continue
        model, product = position.problem.model, position.problem.product
        expected = float(formula(model.spot, product.strike, model.rate, model.volatility,
                                 product.maturity, model.dividend))
        off += abs(price - expected) > 1e-12 * max(1.0, abs(expected))
    checks["closed_form"] = off
    return checks

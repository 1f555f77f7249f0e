"""Ablation A2 -- message batching and compressed serialization.

Two optimisations the paper mentions without measuring:

* "it is always advisable to send a single large message rather [than]
  several smaller messages" -- per-job dispatch against the chunks
  :class:`~repro.core.scheduler.ChunkedPolicy` cuts from the book quantifies
  the gain of batching on the master-bound toy workload;
* "the possibility to compress the serialized buffer ... compression, which
  takes most of the CPU time, can be done off line when preparing a set of
  problems" -- the compression benchmark measures the size reduction of real
  problem files and its simulated effect on transmission times.

Results are written to ``benchmarks/results/ablation_batching.txt`` and
``benchmarks/results/ablation_compression.txt``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.cluster.costmodel import paper_cost_model
from repro.cluster.simcluster import ClusterSpec, SimulatedClusterBackend
from repro.core import (
    ChunkedPolicy,
    RobinHoodPolicy,
    ScheduleStream,
    build_toy_portfolio,
    get_strategy,
)
from repro.serial import serialize

N_WORKERS = 32


@pytest.fixture(scope="module")
def toy_jobs():
    return build_toy_portfolio(n_options=5_000).build_jobs(cost_model=paper_cost_model())


class _CountingBackend(SimulatedClusterBackend):
    """The simulated cluster, counting the master-to-worker messages."""

    n_messages = 0

    def dispatch_batch(self, worker_id, jobs, messages=None):
        self.n_messages += 1
        super().dispatch_batch(worker_id, jobs, messages)


def _run(policy, jobs, strategy="serialized_load"):
    """``(virtual makespan, messages sent)`` of one simulated run."""
    backend = _CountingBackend(ClusterSpec.homogeneous(N_WORKERS), strategy=strategy)
    outcome = ScheduleStream(jobs, backend, get_strategy(strategy), policy).finish()
    return outcome.total_time, backend.n_messages


def test_batching_per_job_vs_derived_chunks(benchmark, toy_jobs):
    """Makespan and message count of the toy portfolio, per job and chunked."""

    def both():
        return {
            "per job": _run(RobinHoodPolicy(), toy_jobs),
            "derived chunks": _run(ChunkedPolicy(), toy_jobs),
        }

    runs = benchmark.pedantic(both, rounds=1, iterations=1)

    lines = [f"Message batching -- 5,000 cheap options, {N_WORKERS} workers",
             f"{'dispatch':>14}  {'messages':>8}  {'time (s)':>10}  {'speedup vs per job':>18}"]
    base, base_messages = runs["per job"]
    for name, (time, n_messages) in runs.items():
        lines.append(f"{name:>14}  {n_messages:>8}  {time:>10.3f}  {base / time:>18.2f}x")
    write_result("ablation_batching.txt", "\n".join(lines))

    time, n_messages = runs["derived chunks"]
    assert base_messages == len(toy_jobs)
    # fewer, larger messages relieve the master-bound run
    assert n_messages < base_messages
    assert time < base


def test_compressed_problem_files(benchmark):
    """Size and simulated-transmission effect of compressed serials."""
    portfolio = build_toy_portfolio(n_options=500)

    def measure():
        raw_sizes = []
        compressed_sizes = []
        for position in portfolio:
            serial = serialize(position.problem)
            raw_sizes.append(serial.nbytes)
            compressed_sizes.append(serial.compress().nbytes)
        return sum(raw_sizes), sum(compressed_sizes)

    raw_total, compressed_total = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = compressed_total / raw_total

    # simulated effect on the serialized-load strategy: smaller messages
    jobs = portfolio.build_jobs(cost_model=paper_cost_model())
    compressed_jobs = [
        type(job)(job_id=job.job_id, path=job.path,
                  file_size=max(64, int(job.file_size * ratio)),
                  compute_cost=job.compute_cost, category=job.category)
        for job in jobs
    ]
    plain_time, _ = _run(RobinHoodPolicy(), jobs)
    compressed_time, _ = _run(RobinHoodPolicy(), compressed_jobs)

    lines = [
        "Compressed serialization -- 500 toy problems",
        f"raw payload bytes        : {raw_total}",
        f"compressed payload bytes : {compressed_total}  ({100 * ratio:.1f}% of raw)",
        f"simulated makespan raw        : {plain_time:.3f}s",
        f"simulated makespan compressed : {compressed_time:.3f}s",
    ]
    write_result("ablation_compression.txt", "\n".join(lines))

    # compression shrinks the XDR problem files substantially
    assert ratio < 0.8
    # and cannot hurt the (bandwidth part of the) simulated transmission
    assert compressed_time <= plain_time * 1.01

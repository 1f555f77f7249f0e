"""Ablation A2 -- message batching and compressed serialization.

Two optimisations the paper mentions without measuring:

* "it is always advisable to send a single large message rather [than]
  several smaller messages" -- the chunk-size sweep quantifies the gain of
  batching on the master-bound toy workload;
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
CHUNK_SIZES = [1, 2, 5, 10, 25, 50, 100]


@pytest.fixture(scope="module")
def toy_jobs():
    return build_toy_portfolio(n_options=5_000).build_jobs(cost_model=paper_cost_model())


def _run_chunked(jobs, chunk_size, strategy="serialized_load"):
    backend = SimulatedClusterBackend(ClusterSpec.homogeneous(N_WORKERS), strategy=strategy)
    policy = RobinHoodPolicy() if chunk_size == 1 else ChunkedPolicy(chunk_size=chunk_size)
    return ScheduleStream(jobs, backend, get_strategy(strategy), policy).finish().total_time


def test_batching_chunk_size_sweep(benchmark, toy_jobs):
    """Makespan of the toy portfolio as a function of the batch size."""

    def sweep():
        return {size: _run_chunked(toy_jobs, size) for size in CHUNK_SIZES}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [f"Message batching -- 5,000 cheap options, {N_WORKERS} workers",
             f"{'chunk size':>10}  {'time (s)':>10}  {'speedup vs unbatched':>20}"]
    base = times[1]
    for size in CHUNK_SIZES:
        lines.append(f"{size:>10}  {times[size]:>10.3f}  {base / times[size]:>20.2f}x")
    write_result("ablation_batching.txt", "\n".join(lines))

    # batching monotonically helps until the chunks are "large enough"
    assert times[10] < times[1]
    assert times[100] < times[1]
    # diminishing returns: going from 25 to 100 changes little
    assert times[100] == pytest.approx(times[25], rel=0.25)


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
    plain_time = _run_chunked(jobs, 1)
    compressed_time = _run_chunked(compressed_jobs, 1)

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

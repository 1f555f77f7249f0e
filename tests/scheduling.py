"""The policy spelling of "run this scheduler to completion", for the tests."""

from __future__ import annotations

from repro.core.scheduler import ChunkedPolicy, ScheduleStream


def run_policy(policy, jobs, backend, strategy):
    """Drain one :class:`ScheduleStream` over ``jobs`` under ``policy``."""
    return ScheduleStream(jobs, backend, strategy, policy).finish()


def cut_chunks(jobs, n_workers):
    """The chunks :class:`ChunkedPolicy` cuts from ``jobs``, in order: each
    depends only on what was cut before it, never on which worker asks or when."""
    policy = ChunkedPolicy()
    policy.plan(list(jobs), n_workers)
    chunks = []
    while policy.n_queued:
        chunks.append(policy._next_chunk(0))
    return chunks

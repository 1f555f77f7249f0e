"""The policy spelling of "run this scheduler to completion", for the tests."""

from __future__ import annotations

from repro.core.scheduler import ScheduleStream


def run_policy(policy, jobs, backend, strategy):
    """Drain one :class:`ScheduleStream` over ``jobs`` under ``policy``."""
    return ScheduleStream(jobs, backend, strategy, policy).finish()

"""Generator self-test: seeds decide the inputs and never shrink the load."""

from __future__ import annotations

import pytest

from benchmarks.e2e.layers import expand
from benchmarks.e2e.workloads import WORKLOADS
from repro.pricing import problem_digest


def _digests(name: str, seed: int) -> list[str]:
    workload = WORKLOADS[name]
    # the expanded cells are what the session prices (and would dedup)
    problems = expand(workload, workload.build_profile(seed, smoke=False))[1]
    return [problem_digest(problem) for problem in problems]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_decides_the_inputs(name):
    first = _digests(name, seed=5)
    assert first == _digests(name, seed=5)
    assert first != _digests(name, seed=6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_position_collapses_to_a_duplicate(name):
    digests = _digests(name, seed=5)
    assert len(set(digests)) == len(digests)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_does_not_change_the_amount_of_work(name):
    workload = WORKLOADS[name]
    a, b = (workload.build_profile(seed, smoke=False) for seed in (5, 6))
    assert a.sizes == b.sizes and a.n_positions == b.n_positions

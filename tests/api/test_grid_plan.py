"""A scenario grid is planned into slices that partition its cells.

For every book, scenario list, worker count and ``on_missing``: each cell the
grid answers is a member of exactly one slice, a skipped cell of none, the
slices tile the scenario list in order, and the widths are those of the
scheduler's chunk rule.  Nothing here prices: the plan is made from the base
book and the scenarios alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.plan import build_plan
from repro.cluster.costmodel import paper_cost_model
from repro.core.scheduler import cut_chunks
from repro.errors import PricingError
from repro.pricing import PricingProblem
from repro.pricing.scenarios import Scenario, ScenarioGrid, expand_scenarios
from tests.oracles.books import SigmaOnlyModel  # noqa: F401 - registers TestSigmaOnly1D


def _position(index: int, sigma_only: bool) -> PricingProblem:
    problem = PricingProblem(label=f"p{index}")
    if sigma_only:
        problem.set_model("TestSigmaOnly1D", spot=100.0, rate=0.03, sigma=0.2)
    else:
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.045, volatility=0.22)
    problem.set_option("CallEuro", strike=90.0 + index, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


#: realised by every position / by Black-Scholes only / by sigma-only / by none
_PARAMS = ("spot", "volatility", "sigma", "skewness")


def _scenarios(params: list[int]) -> list[Scenario]:
    return [Scenario(name="base")] + [
        Scenario(name=f"s{index}", target="model", param=_PARAMS[param], bump=0.001 * (index + 1))
        for index, param in enumerate(params)
    ]


def _plan(problems, scenarios, on_missing, n_workers):
    grid = ScenarioGrid(problems, scenarios, on_missing=on_missing)
    plan = build_plan(
        grid, executing=True, cost_model=paper_cost_model(), n_workers=n_workers
    )
    return grid, plan


@settings(max_examples=60, deadline=None)
@given(
    mask=st.lists(st.booleans(), min_size=1, max_size=6),
    params=st.lists(st.integers(min_value=0, max_value=3), max_size=40),
    n_workers=st.integers(min_value=1, max_value=5),
    on_missing=st.sampled_from(["raise", "skip", "base"]),
)
def test_slices_partition_the_cells(mask, params, n_workers, on_missing):
    problems = [_position(index, sigma_only) for index, sigma_only in enumerate(mask)]
    scenarios = _scenarios(params)
    n_scenarios = len(scenarios)
    try:
        _expanded, cells = expand_scenarios(problems, scenarios, on_missing=on_missing)
    except PricingError:
        with pytest.raises(PricingError):  # the master raises what the expansion raises
            _plan(problems, scenarios, on_missing, n_workers)
        return
    expected = {cell.problem_index * n_scenarios + cell.scenario_index for cell in cells}

    grid, plan = _plan(problems, scenarios, on_missing, n_workers)
    assert sorted(plan.original_ids) == sorted(expected) and not plan.problem_by_id
    members = [cell for job in plan.jobs for cell in plan.batch_members[job.job_id]]
    assert sorted(members) == sorted(expected)  # every cell exactly once, skipped ones never
    assert len({job.job_id for job in plan.jobs}) == len(plan.jobs)

    # the slices tile the scenario list, each at least one scenario wide; a
    # slice whose every cell was skipped is simply not sent
    offset = 0
    for job in plan.jobs:
        part = job.problem
        assert isinstance(part, ScenarioGrid) and part.n_scenarios == n_scenarios
        assert part.offset >= offset and len(part.scenarios) >= 1
        assert part.scenarios == tuple(scenarios[part.offset:part.offset + len(part.scenarios)])
        assert set(plan.batch_members[job.job_id]) == {
            cell for cell in expected
            if part.offset <= cell % n_scenarios < part.offset + len(part.scenarios)
        }
        assert job.job_id == plan.batch_members[job.job_id][0]
        offset = part.offset + len(part.scenarios)

    # widths are the scheduler's rule over one shared-simulation cost per scenario
    costs = [job.compute_cost for job in plan.jobs]
    assert all(cost > 0 for cost in costs)
    if len(expected) == len(problems) * n_scenarios:  # every column is the whole book
        model = paper_cost_model()
        cost = model.estimate_batch_jobs([model.estimate(problem) for problem in problems])
        assert [len(job.problem.scenarios) for job in plan.jobs] == cut_chunks(
            [cost] * n_scenarios, n_workers)


def test_the_campaign_sizing_of_the_benchmark_book():
    """151 scenarios on 2 workers: ~18 slices, wide first (docs/performance.md).

    A width whose cap is an exact multiple of the scenario cost (7 of 28 left)
    may round either way with the cost's last bit, so the tail is not pinned.
    """
    problems = [_position(index, False) for index in range(50)]
    scenarios = _scenarios([0] * 150)
    _grid, plan = _plan(problems, scenarios, "base", 2)
    widths = [len(job.problem.scenarios) for job in plan.jobs]
    assert widths[:6] == [37, 28, 21, 16, 12, 9] and widths[-5:] == [1] * 5
    assert sum(widths) == 151 and len(widths) in (18, 19)
    assert len(plan.original_ids) == 7_550 and not plan.digests

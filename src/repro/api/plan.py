"""Campaign planning: job building -> cache pass -> slicing or batch coalescing.

:func:`build_plan` is the one place where a portfolio, a prepared job list
or a scenario grid becomes the jobs a campaign dispatches.  Every session
entry point -- ``run``, ``stream``, ``submit_many``, ``sweep``, ``compare``,
``greeks``, ``risk`` -- plans through it; the resulting :class:`CampaignPlan`
is plain data that a :class:`~repro.api.campaign.Campaign` executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.api.config import RunConfig
from repro.cluster.backends import Job
from repro.cluster.costmodel import CostModel
from repro.core.portfolio import Portfolio
from repro.core.scheduler import ChunkedPolicy, DispatchPolicy, RobinHoodPolicy, cut_chunks
from repro.core.strategies import is_real_file
from repro.errors import SchedulingError
from repro.pricing.batch import ProblemBatch, plan_batches
from repro.pricing.cache import ResultCache, problem_digest
from repro.pricing.engine import PricingProblem
from repro.pricing.scenarios import Scenario, ScenarioGrid

__all__ = ["CampaignPlan", "build_plan"]


@dataclass
class CampaignPlan:
    """Everything one campaign needs, prepared before anything executes."""

    #: jobs to dispatch (cache hits removed, batches coalesced)
    jobs: list[Job]
    #: submission-ordered ids of every position (pre-coalescing, pre-cache)
    original_ids: list[int]
    problem_by_id: dict[int, PricingProblem]
    cached_results: dict[int, dict[str, Any]] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)
    #: id of a job that travels with members -> the positions it still has to
    #: answer: the family of a :class:`ProblemBatch`, the cells of a
    #: scenario-grid slice, the positions of a book slice.  The job goes by
    #: the id of the first member it was planned with; a book slice loses a
    #: member cancelled while the slice is still queued
    #: (:meth:`~repro.api.campaign.Campaign.cancel_job`)
    batch_members: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: whether a member may be left out of its still-queued job (the
    #: positions of a book slice stand alone; a grid's cells fold into one
    #: measure and a :class:`ProblemBatch` cannot drop a member)
    members_stand_alone: bool = False
    #: position id -> its job's category, where the positions travel in book
    #: slices: what ``RunReport.category_times`` is still broken down by
    member_categories: dict[int, str] = field(default_factory=dict)
    run_cache: ResultCache | None = None
    portfolio: Portfolio | None = None
    #: ``(label, method name)`` of a position no problem was built for (the
    #: cells of a grid); the others are described by their problem
    describe_cell: Callable[[int], tuple[str | None, str | None]] | None = None

    def describe(self, job_id: int) -> tuple[str | None, str | None]:
        """``(label, method name)`` of a position: what its future and its
        progress ticks carry, worked out when one is asked for."""
        if self.describe_cell is not None:
            return self.describe_cell(job_id)
        problem = self.problem_by_id.get(job_id)
        return getattr(problem, "label", None), getattr(problem, "method_name", None)

    def dealer(self, new_policy: Callable[[], DispatchPolicy]) -> Callable[[], DispatchPolicy]:
        """The factory of the policy that deals :attr:`jobs`: ``new_policy``,
        but never :class:`ChunkedPolicy` over book slices, which it would cut
        a second time."""
        if self.members_stand_alone and type(new_policy()) is ChunkedPolicy:
            return _SliceDealer
        return new_policy


class _SliceDealer(RobinHoodPolicy):
    """Robin Hood over book slices -- the chunks, cut once, by the planner --
    reporting as the chunked refinement that was asked for."""

    name = ChunkedPolicy.name


def build_plan(
    source: Portfolio | Sequence[Job] | ScenarioGrid,
    options: RunConfig,
    *,
    executing: bool,
    cost_model: CostModel,
    run_cache: ResultCache | None = None,
    store: Any = None,
    n_workers: int = 1,
    queues_jobs: bool = False,
    strategy: str = "serialized_load",
    new_policy: Callable[[], DispatchPolicy] = RobinHoodPolicy,
) -> CampaignPlan:
    """Plan one campaign over ``source``.

    ``executing`` says whether the backend prices the problems (vs. advancing
    virtual time).  Portfolio jobs carry their problem when it does and no
    ``store`` holds them as files, and whenever ``options.batch`` coalesces
    them.  Nothing is serialized here on an executing backend: a job's bytes
    are made when it is first dispatched (:meth:`Job.wire_bytes`), so a
    position folded into a :class:`ProblemBatch` is only ever written as a
    member of its batch.  With a ``run_cache`` on an executing backend,
    positions already priced are answered here and never dispatched.

    A :class:`~repro.pricing.scenarios.ScenarioGrid` is planned into slices
    of its scenario list (:func:`_plan_grid`), sized for ``n_workers``; so are
    the positions of a plain campaign whose messages cross a process boundary
    (:func:`_travels_in_slices` reads ``queues_jobs``, the transmission
    ``strategy`` and what ``new_policy``, the campaign's factory of dispatch
    policies, makes for that).
    """
    if isinstance(source, ScenarioGrid):
        return _plan_grid(
            source, options, cost_model, run_cache if executing else None, n_workers
        )
    if isinstance(source, Portfolio):
        jobs = source.build_jobs(
            cost_model=cost_model,
            store=store,
            attach_problems=store is None and (executing or options.batch),
        )
        portfolio: Portfolio | None = source
        problem_by_id = {
            job.job_id: position.problem for job, position in zip(jobs, source)
        }
    else:
        jobs = list(source)
        portfolio = None
        problem_by_id = {
            job.job_id: job.problem for job in jobs if job.problem is not None
        }
    if not jobs:
        raise SchedulingError("cannot schedule an empty job list")
    plan = CampaignPlan(
        jobs=jobs,
        original_ids=[job.job_id for job in jobs],
        problem_by_id=problem_by_id,
        run_cache=run_cache,
        portfolio=portfolio,
    )

    # cache pass: positions already priced never reach the backend
    if run_cache is not None and executing:
        _cache_pass(
            plan,
            {job_id: problem_digest(problem) for job_id, problem in problem_by_id.items()},
        )
        if plan.cached_results:
            plan.jobs = [job for job in jobs if job.job_id not in plan.cached_results]

    if _travels_in_slices(plan, options, queues_jobs, store, strategy, new_policy):
        _slice_book(plan, options, n_workers)
    elif options.batch:
        plan.jobs, plan.batch_members = _coalesce_jobs(
            plan.jobs, problem_by_id, options, cost_model, executing
        )
    return plan


def _travels_in_slices(
    plan: CampaignPlan,
    options: RunConfig,
    queues_jobs: bool,
    store: Any,
    strategy: str,
    new_policy: Callable[[], DispatchPolicy],
) -> bool:
    """Whether a plain campaign's positions are sent as book slices.

    "It is always advisable to send a single large message rather [than]
    several smaller messages" (the paper's conclusion) -- where there is a
    message, and the policy does not deal in single positions:

    1. the backend's workers queue what they are sent
       (``WorkerBackend.queues_jobs``: processes, remote hosts).  The
       in-process backend stays the per-position reference the parallel ones
       are compared against, the simulated cluster keeps the per-position
       virtual times Tables I-III are pinned to;
    2. every position's problem is in memory: no ``store``, no problem file
       behind a prepared job's path (a book without a store names none), and
       not the ``nfs`` strategy, whose transmission is per file by definition;
    3. the policy is the paper's Robin Hood itself -- the default, however it
       was spelled -- or its chunked refinement itself, which *asks* for
       several positions per message: here the slice is that message, cut
       once (:meth:`CampaignPlan.dealer`).  Every other policy, a subclass
       of either too, says something about single positions (a priority
       each, contiguous blocks, stolen tails, a sort key) and keeps them;
    4. ``batch`` is not set: coalescing families into :class:`ProblemBatch`
       jobs is the other way of sending several positions together.
    """
    return (
        queues_jobs
        and store is None
        and strategy != "nfs"
        and type(new_policy()) in (RobinHoodPolicy, ChunkedPolicy)
        and not options.batch
        and all(
            isinstance(job.problem, PricingProblem)
            and job.problem.is_complete
            and (plan.portfolio is not None or not is_real_file(job))
            for job in plan.jobs
        )
    )


def _cache_pass(plan: CampaignPlan, digests: dict[int, str]) -> None:
    """Answer from ``plan.run_cache`` every position whose digest it holds."""
    assert plan.run_cache is not None
    plan.digests = digests
    for job_id, digest in digests.items():
        hit = plan.run_cache.get(digest)
        if hit is not None:
            plan.cached_results[job_id] = {**hit.as_dict(), "cache_hit": True}


def _cut_slices(
    plan: CampaignPlan,
    costs: Sequence[float],
    n_workers: int,
    kind: str,
    cut: Callable[[int, int], tuple[tuple[int, ...], ScenarioGrid]],
) -> None:
    """Turn a list of unit costs into the plan's slice jobs.

    A unit is what a campaign is cut along -- a scenario of a grid, a
    position of a book -- and ``costs[i]`` its estimated seconds.  Widths come
    from the chunk rule of :mod:`repro.core.scheduler`
    (:func:`~repro.core.scheduler.cut_chunks`: the first slices wide, the
    tail single units; by count where a cost is not a positive finite
    number).  ``cut(start, stop)`` names the positions units ``start:stop``
    still have to answer and builds the payload that prices them; a slice
    with none left is not sent.  A slice goes by its first member's id.
    """
    start = 0
    for width in cut_chunks(costs, n_workers):
        stop = start + width
        members, payload = cut(start, stop)
        if members:
            plan.jobs.append(
                Job(
                    job_id=members[0],
                    path=f"/virtual/{kind}/{start:06d}_{width:04d}.sg",
                    compute_cost=sum(costs[start:stop]),
                    category=kind,
                    problem=payload,
                )
            )
            plan.batch_members[members[0]] = members
        start = stop


def _slice_book(plan: CampaignPlan, options: RunConfig, n_workers: int) -> None:
    """Replace the plan's per-position jobs by book slices of them.

    A book slice is a :class:`~repro.pricing.scenarios.ScenarioGrid` of some
    positions under the base scenario alone, its ``rows`` the positions' ids:
    every distinct model and method header travels once per slice, the worker
    prices the slice as one stacked campaign (Monte-Carlo families that meet
    in it share their draws, bit-identically) and answers one record of
    columns.  The positions are those the cache pass left, cut by their jobs'
    estimated costs.
    """
    jobs, base = plan.jobs, (Scenario(name="base"),)

    def cut(start: int, stop: int) -> tuple[tuple[int, ...], ScenarioGrid]:
        part = jobs[start:stop]
        members = tuple(job.job_id for job in part)
        return members, ScenarioGrid(
            [job.problem for job in part], base, kernel=options.kernel, rows=members
        )

    plan.jobs, plan.members_stand_alone = [], True
    plan.member_categories = {job.job_id: job.category for job in jobs}
    _cut_slices(plan, [job.compute_cost for job in jobs], n_workers, "book", cut)


def _plan_grid(
    grid: ScenarioGrid,
    options: RunConfig,
    cost_model: CostModel,
    run_cache: ResultCache | None,
    n_workers: int,
) -> CampaignPlan:
    """Plan a scenario grid as slices of its scenario list -- no cell is built.

    The positions are the grid's cells (``grid.columns()``, one table row
    each); the jobs are :meth:`ScenarioGrid.slice` s over one base book whose
    bytes every slice re-sends, cut by :func:`_cut_slices`: a scenario costs
    one shared-simulation batch over the cells it still has to price.
    With a ``run_cache``, cells already priced are answered here; each slice
    is told which of its cells to leave out, a slice with none left is not
    sent, and :attr:`CampaignPlan.digests` lets the campaign write the new
    cells back under the digests a plain run of the same problems would use.
    """
    columns = grid.columns()
    plan = CampaignPlan(
        jobs=[],
        original_ids=[cell for column in columns for cell in column],
        problem_by_id={},
        run_cache=run_cache,
        describe_cell=grid.describe,
    )
    if not plan.original_ids:
        raise SchedulingError("cannot schedule an empty job list")
    if run_cache is not None:
        _cache_pass(plan, {cell: grid.cell_digest(cell) for cell in plan.original_ids})
    answered = plan.cached_results
    base_costs = [cost_model.estimate(problem) for problem in grid.problems]
    full_cost = cost_model.estimate_batch_jobs(base_costs)
    costs = []
    for column in columns:
        cells = [cell for cell in column if cell not in answered] if answered else column
        if len(cells) == len(base_costs):
            costs.append(full_cost)
        elif cells:
            costs.append(cost_model.estimate_batch_jobs(
                [base_costs[cell // grid.n_scenarios] for cell in cells]
            ))
        else:
            costs.append(0.0)

    def cut(start: int, stop: int) -> tuple[tuple[int, ...], ScenarioGrid]:
        cells = [cell for column in columns[start:stop] for cell in column]
        return tuple(cell for cell in cells if cell not in answered), grid.slice(
            start, stop, kernel=options.kernel,
            answered=[cell for cell in cells if cell in answered],
        )

    _cut_slices(plan, costs, n_workers, "scenario", cut)
    return plan


def _coalesce_jobs(
    jobs: list[Job],
    problem_by_id: Mapping[int, PricingProblem],
    options: RunConfig,
    cost_model: CostModel,
    executing: bool,
) -> tuple[list[Job], dict[int, tuple[int, ...]]]:
    """Merge shared-simulation jobs into :class:`ProblemBatch` super-jobs, one
    per family (a family is never split).

    A super-job that will be sent is sized by its own bytes; one that only
    advances virtual time keeps the sum of its members' stand-alone sizes
    (the simulated tables are pinned to it).
    """
    min_group_size = options.min_group_size
    batches = plan_batches(
        [problem_by_id.get(job.job_id) for job in jobs],
        min_group_size=min_group_size if min_group_size is not None else 2,
    )
    group_by_first = {group.indices[0]: group for group in batches.groups}
    grouped = {index for group in batches.groups for index in group.indices}
    out: list[Job] = []
    members_map: dict[int, tuple[int, ...]] = {}
    for index, job in enumerate(jobs):
        group = group_by_first.get(index)
        if group is not None:
            member_jobs = [jobs[i] for i in group.indices]
            bundle = ProblemBatch(
                [problem_by_id[j.job_id] for j in member_jobs],
                keys=[j.job_id for j in member_jobs],
                kernel=options.kernel,
            )
            out.append(
                Job(
                    job_id=job.job_id,
                    path=f"/virtual/batch/{group.signature.model_digest[:16]}_{job.job_id:06d}.pb",
                    file_size=(
                        None if executing else sum(j.file_size for j in member_jobs)
                    ),
                    # one shared simulation plus cheap per-member payoff sweeps
                    compute_cost=cost_model.estimate_batch_jobs(
                        [j.compute_cost for j in member_jobs]
                    ),
                    category=job.category,
                    problem=bundle,
                )
            )
            members_map[job.job_id] = tuple(j.job_id for j in member_jobs)
        elif index not in grouped:
            out.append(job)
    return out, members_map

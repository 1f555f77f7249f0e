"""Campaign planning: job building -> cache pass -> slicing or batch coalescing.

:func:`build_plan` is the one place where a portfolio, a prepared job list
or a scenario grid becomes the jobs a campaign dispatches.  Every session
entry point -- ``run``, ``stream``, ``submit_many``, ``sweep``, ``compare``,
``greeks``, ``risk`` -- plans through it; the resulting :class:`CampaignPlan`
is plain data that a :class:`~repro.api.campaign.Campaign` executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Mapping, Sequence

from repro.cluster.backends import Job
from repro.cluster.costmodel import CostModel
from repro.core.portfolio import Portfolio
from repro.core.scheduler import ChunkedPolicy, DispatchPolicy, RobinHoodPolicy, cut_chunks
from repro.errors import SchedulingError
from repro.pricing.batch import ProblemBatch, plan_batches
from repro.pricing.cache import ResultCache, problem_digest
from repro.pricing.engine import PricingProblem
from repro.pricing.scenarios import Scenario, ScenarioGrid

__all__ = ["CampaignPlan", "build_plan"]


@dataclass
class CampaignPlan:
    """Everything one campaign needs, prepared before anything executes."""

    #: jobs to dispatch (cache hits and repeats removed, batches coalesced)
    jobs: list[Job]
    #: submission-ordered ids of every position (pre-coalescing, pre-cache)
    original_ids: list[int]
    problem_by_id: dict[int, PricingProblem]
    cached_results: dict[int, dict[str, Any]] = field(default_factory=dict)
    digests: dict[int, str] = field(default_factory=dict)
    #: id of the first position of a digest the run cache missed (its
    #: *leader*, which is dispatched) -> the later positions with that digest,
    #: which are not: each is answered by a copy of its leader's row
    repeats: dict[int, tuple[int, ...]] = field(default_factory=dict)
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
    *,
    executing: bool,
    cost_model: CostModel,
    batch: bool = False,
    kernel: str | None = None,
    min_group_size: int = 2,
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
    ``store`` holds them as files, and whenever ``batch`` coalesces them
    (families of at least ``min_group_size`` positions).  Nothing is
    serialized here on an executing backend: a job's bytes are made by the
    strategy's load pass before the first dispatch (:meth:`Job.wire_bytes`),
    so a position folded into a :class:`ProblemBatch` is only ever written
    as a member of its batch.
    With a ``run_cache`` on an executing backend, positions already priced
    are answered here and never dispatched, and a position repeating the
    digest of an earlier one is not dispatched either
    (:attr:`CampaignPlan.repeats`).

    A :class:`~repro.pricing.scenarios.ScenarioGrid` is planned into slices
    of its scenario list (:func:`_plan_grid`), sized for ``n_workers``; so are
    the positions of a plain campaign whose messages cross a process boundary
    (:func:`_travels_in_slices` reads ``queues_jobs``, the transmission
    ``strategy`` and what ``new_policy``, the campaign's factory of dispatch
    policies, makes for that).  Slices and batches are priced by ``kernel``
    (``None``: the default one).
    """
    if isinstance(source, ScenarioGrid):
        return _plan_grid(
            source, kernel, cost_model, run_cache if executing else None, n_workers
        )
    if isinstance(source, Portfolio):
        # a book's positions become jobs only where they travel one by one
        jobs: list[Job] | None = None
        positions = list(source)
        problems = [position.problem for position in positions]
        plan = CampaignPlan(
            jobs=[],
            original_ids=list(range(len(positions))),
            problem_by_id=dict(enumerate(problems)),
            run_cache=run_cache,
            portfolio=source,
        )
    else:
        jobs = list(source)
        plan = CampaignPlan(
            jobs=jobs,
            original_ids=[job.job_id for job in jobs],
            problem_by_id={job.job_id: job.problem for job in jobs if job.problem is not None},
            run_cache=run_cache,
        )
    if not plan.original_ids:
        raise SchedulingError("cannot schedule an empty job list")

    # cache pass: positions already priced, and repeats, never reach the backend
    answered: set[int] = set()
    if run_cache is not None and executing:
        answered = _cache_pass(
            plan,
            {job_id: problem_digest(problem) for job_id, problem in plan.problem_by_id.items()},
        )

    if jobs is None:
        members = plan.original_ids
        if answered:
            members = [index for index in members if index not in answered]
            problems = [problems[index] for index in members]
    else:
        if answered:
            jobs = [job for job in jobs if job.job_id not in answered]
        problems = [job.problem for job in jobs]
    if _travels_in_slices(problems, jobs, batch, queues_jobs, store, strategy, new_policy):
        if jobs is None:
            costs = cost_model.estimate_all(problems)
            categories = [positions[index].category for index in members]
        else:
            members = [job.job_id for job in jobs]
            costs = [job.compute_cost for job in jobs]
            categories = [job.category for job in jobs]
        _slice_book(plan, members, problems, costs, categories, kernel, n_workers)
        return plan

    if jobs is None:
        jobs = source.build_jobs(
            cost_model=cost_model,
            store=store,
            attach_problems=store is None and (executing or batch),
        )
        if answered:
            jobs = [job for job in jobs if job.job_id not in answered]
    plan.jobs = jobs
    if batch:
        plan.jobs, plan.batch_members = _coalesce_jobs(
            plan.jobs, plan.problem_by_id, kernel, min_group_size, cost_model, executing
        )
    return plan


def _travels_in_slices(
    problems: Sequence[Any],
    jobs: Sequence[Job] | None,
    batch: bool,
    queues_jobs: bool,
    store: Any,
    strategy: str,
    new_policy: Callable[[], DispatchPolicy],
) -> bool:
    """Whether a plain campaign's positions are sent as book slices:
    ``problems`` are those of the positions the cache pass left, ``jobs``
    their prepared jobs (``None`` for a book, which names no problem file).

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
        and not batch
        and all(map(isinstance, problems, repeat(PricingProblem)))
        and all(map(attrgetter("is_complete"), problems))
        and (jobs is None or not any(map(attrgetter("real_file"), jobs)))
    )


def _cache_pass(plan: CampaignPlan, digests: dict[int, str]) -> set[int]:
    """Answer from ``plan.run_cache`` every position whose digest it holds,
    and record every later position with the digest of a miss as a repeat of
    the first; the ids of both, which are not to be dispatched."""
    assert plan.run_cache is not None
    plan.digests = digests
    leader_of: dict[str, int] = {}
    repeats: dict[int, list[int]] = {}
    for job_id, digest in digests.items():
        leader = leader_of.get(digest)
        if leader is not None:
            repeats.setdefault(leader, []).append(job_id)
            continue
        hit = plan.run_cache.get(digest)
        if hit is not None:
            plan.cached_results[job_id] = {**hit.as_dict(), "cache_hit": True}
        else:
            leader_of[digest] = job_id
    plan.repeats = {leader: tuple(ids) for leader, ids in repeats.items()}
    return plan.cached_results.keys() | {job_id for ids in repeats.values() for job_id in ids}


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


def _slice_book(
    plan: CampaignPlan,
    members: list[int],
    problems: list[PricingProblem],
    costs: list[float],
    categories: list[str],
    kernel: str | None,
    n_workers: int,
) -> None:
    """Plan the positions ``members`` (with their ``problems``, estimated
    ``costs`` and ``categories``) as book slices.

    A book slice is a :class:`~repro.pricing.scenarios.ScenarioGrid` of some
    positions under the base scenario alone, its ``rows`` the positions' ids:
    every distinct model and method header travels once per slice, the worker
    prices the slice as one stacked campaign (Monte-Carlo families that meet
    in it share their draws, bit-identically) and answers one record of
    columns.  The positions are those the cache pass left, cut by their
    estimated costs.
    """
    base = (Scenario(name="base"),)

    def cut(start: int, stop: int) -> tuple[tuple[int, ...], ScenarioGrid]:
        part = tuple(members[start:stop])
        return part, ScenarioGrid(problems[start:stop], base, kernel=kernel, rows=part)

    plan.jobs, plan.members_stand_alone = [], True
    plan.member_categories = dict(zip(members, categories))
    _cut_slices(plan, costs, n_workers, "book", cut)


def _plan_grid(
    grid: ScenarioGrid,
    kernel: str | None,
    cost_model: CostModel,
    run_cache: ResultCache | None,
    n_workers: int,
) -> CampaignPlan:
    """Plan a scenario grid as slices of its scenario list -- no cell is built.

    The positions are the grid's cells (``grid.columns()``, one table row
    each); the jobs are :meth:`ScenarioGrid.slice` s over one base book whose
    bytes every slice re-sends, cut by :func:`_cut_slices`: a scenario costs
    one shared-simulation batch over the cells it still has to price.
    With a ``run_cache``, cells already priced are answered here and a cell
    repeating an earlier cell's digest is answered by that cell; each slice
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
    answered: set[int] = set()
    if run_cache is not None:
        answered = _cache_pass(
            plan, {cell: grid.cell_digest(cell) for cell in plan.original_ids}
        )
    base_costs = cost_model.estimate_all(grid.problems)
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
            start, stop, kernel=kernel,
            answered=[cell for cell in cells if cell in answered],
        )

    _cut_slices(plan, costs, n_workers, "scenario", cut)
    return plan


def _coalesce_jobs(
    jobs: list[Job],
    problem_by_id: Mapping[int, PricingProblem],
    kernel: str | None,
    min_group_size: int,
    cost_model: CostModel,
    executing: bool,
) -> tuple[list[Job], dict[int, tuple[int, ...]]]:
    """Merge shared-simulation jobs into :class:`ProblemBatch` super-jobs, one
    per family (a family is never split).

    A super-job that will be sent is sized by its own bytes; one that only
    advances virtual time keeps the sum of its members' stand-alone sizes
    (the simulated tables are pinned to it).
    """
    batches = plan_batches(
        [problem_by_id.get(job.job_id) for job in jobs], min_group_size=min_group_size
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
                kernel=kernel,
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

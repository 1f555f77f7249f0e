"""A plain book is planned into slices that partition its positions.

For every book size, cost vector (a cost that is not a positive finite number
cuts the whole book by count), set of run-cache hits and worker count: each
position the cache pass left is a member of exactly one slice, in submission
order, no slice is empty and the widths are those of the scheduler's chunk
rule over the remaining costs.  Each of the four conditions of
:func:`repro.api.plan._travels_in_slices`, alone, gives the per-position plan
object for object; ``chunked_robin_hood`` -- the policy that asks for several
positions per message -- plans the default's slices, and no chunk of several
jobs reaches the backend.  The last tests count what one full-size toy
campaign on worker processes dispatches and receives.
"""

from __future__ import annotations

import math
import os.path
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ValuationSession
from repro.api.futures import PricingFuture
from repro.api.plan import build_plan
from repro.cluster.backends import _BACKEND_REGISTRY, Job
from repro.cluster.backends.multiproc import MultiprocessingBackend
from repro.cluster.backends.remote import RemoteBackend
from repro.cluster.costmodel import CostModel, paper_cost_model
from repro.core.portfolio import Portfolio, Position, build_toy_portfolio
from repro.core.runner import ResultTable
from repro.cluster.worker import spawn_local_workers
from repro.core.scheduler import (
    SCHEDULERS,
    ChunkedPolicy,
    PriorityPolicy,
    RobinHoodPolicy,
    cut_chunks,
)
from repro.errors import ProblemStateError
from repro.pricing import PricingProblem, flat_correlation
from repro.pricing.batch import ProblemBatch
from repro.pricing.cache import ResultCache, problem_digest
from repro.pricing.methods.base import PricingResult
from repro.pricing.scenarios import ScenarioGrid

MAX_POSITIONS = 400


def _position(index: int) -> PricingProblem:
    problem = PricingProblem(label=f"p{index}")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.045, volatility=0.22)
    problem.set_option("CallEuro", strike=60.0 + 0.25 * index, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


PROBLEMS = [_position(index) for index in range(MAX_POSITIONS)]

#: what travels in slices: worker processes, problems in memory, plain Robin Hood
SLICED = {"queues_jobs": True, "strategy": "serialized_load"}


class LongestFirst(RobinHoodPolicy):
    """The worked example of docs/schedulers.md: a subclass orders positions."""

    def plan(self, jobs, n_workers):
        super().plan(sorted(jobs, key=lambda job: -job.compute_cost), n_workers)


#: the default, and the policy that asks for several positions per message
SLICING = ("robin_hood", "chunked_robin_hood")

#: every policy that is neither the paper's Robin Hood nor its chunked
#: refinement itself: a subclass of either says something about single positions
ORDERING = [
    *(factory for name, factory in SCHEDULERS.items() if name not in SLICING),
    LongestFirst,
    type("ChunkedLongestFirst", (ChunkedPolicy,), {"plan": LongestFirst.plan}),
    partial(PriorityPolicy, priority={}),
]


def _jobs(costs: list[float]) -> list[Job]:
    """Job ids are not row numbers: ``submit_many`` numbers across campaigns."""
    return [
        Job(job_id=1000 + 3 * index, path=f"/virtual/test/{index:06d}.pb",
            compute_cost=cost, category="test", problem=PROBLEMS[index])
        for index, cost in enumerate(costs)
    ]


def _plan(jobs, cache=None, n_workers=2, **facts):
    return build_plan(
        jobs, executing=True, cost_model=paper_cost_model(), run_cache=cache,
        n_workers=n_workers, **{**SLICED, **facts},
    )


def _warm(hits: list[int]) -> ResultCache:
    cache = ResultCache()
    for index in hits:
        cache.put(problem_digest(PROBLEMS[index]), PricingResult(price=1.0 + index))
    return cache


_costs = st.lists(
    st.one_of(
        st.floats(min_value=1e-6, max_value=10.0),
        st.sampled_from([0.0, -1.0, math.inf, math.nan]),
    ),
    min_size=1, max_size=MAX_POSITIONS,
)


@settings(max_examples=80, deadline=None)
@given(costs=_costs, data=st.data(), n_workers=st.integers(min_value=1, max_value=8))
def test_slices_partition_the_positions_the_cache_left(costs, data, n_workers):
    hits = data.draw(st.lists(st.integers(0, len(costs) - 1), unique=True,
                              max_size=len(costs) - 1))
    jobs = _jobs(costs)
    plan = _plan(jobs, _warm(hits), n_workers)
    left = [job for index, job in enumerate(jobs) if index not in set(hits)]

    assert plan.original_ids == [job.job_id for job in jobs]
    assert sorted(plan.cached_results) == sorted(jobs[index].job_id for index in hits)
    assert plan.members_stand_alone
    # every position the cache left is in exactly one slice, in submission order
    members = [member for job in plan.jobs for member in plan.batch_members[job.job_id]]
    assert members == [job.job_id for job in left]
    assert [job.job_id for job in plan.jobs] == [
        plan.batch_members[job.job_id][0] for job in plan.jobs]
    # widths are the scheduler's rule over the remaining costs, none empty
    widths = [len(plan.batch_members[job.job_id]) for job in plan.jobs]
    assert widths == cut_chunks([job.compute_cost for job in left], n_workers)
    assert all(width >= 1 for width in widths)
    for job in plan.jobs:
        part = job.problem
        assert isinstance(part, ScenarioGrid) and [s.target for s in part.scenarios] == ["base"]
        assert part.rows.tolist() == list(plan.batch_members[job.job_id])
        assert [cell for column in part.columns() for cell in column] == part.rows.tolist()
        assert part.problems == [plan.problem_by_id[member] for member in part.rows.tolist()]


@settings(max_examples=40, deadline=None)
@given(
    costs=_costs,
    fact=st.sampled_from([
        {"queues_jobs": False},  # the local and the simulated backend
        {"strategy": "nfs"},
        *({"new_policy": factory} for factory in ORDERING),
        {"file": True},
    ]),
)
def test_each_condition_alone_keeps_the_per_position_plan(costs, fact):
    jobs = _jobs(costs)
    if "file" in fact:
        jobs[-1].path = __file__  # a problem file behind one job's path
        fact = {}
    plan = _plan(jobs, **fact)
    assert all(planned is job for planned, job in zip(plan.jobs, jobs))
    assert len(plan.jobs) == len(jobs)
    assert not plan.batch_members and not plan.members_stand_alone


@pytest.mark.parametrize(
    "spelling", [SCHEDULERS["robin_hood"], RobinHoodPolicy, lambda: RobinHoodPolicy()]
)
def test_robin_hood_plans_the_same_however_it_is_spelled(spelling):
    jobs = _jobs([1.0] * 40)
    default, spelled = _plan(jobs), _plan(jobs, new_policy=spelling)
    assert default.batch_members and spelled.batch_members == default.batch_members


class _Waves:
    """Mixed into a backend: every wave of several jobs the stream hands it
    (a wave of one goes through ``dispatch``)."""

    def dispatch_batch(self, worker_id, jobs, messages=None):
        self.waves = [*getattr(self, "waves", []), jobs]
        super().dispatch_batch(worker_id, jobs, messages)


@pytest.fixture(scope="module")
def loopback_pool():
    with spawn_local_workers(2) as pool:
        yield pool


@pytest.mark.parametrize("backend", ["multiprocessing", "remote"])
@pytest.mark.parametrize(
    "spelling", ["chunked_robin_hood", ChunkedPolicy, partial(ChunkedPolicy)],
    ids=["name", "class", "partial"],
)
def test_chunked_plans_the_defaults_slices(spelling, backend, loopback_pool, monkeypatch):
    """On worker processes the slice is the chunk message: same slices, same
    bytes, same prices as no scheduler at all, and a wave is one slice --
    the planner's cut is the only one (400 equal positions on 2 workers is a
    book where a second cut over the slices' summed costs would round apart).
    """
    built = []

    def counting(n_workers=2, strategy="serialized_load"):
        if backend == "remote":
            engine = type("Counting", (_Waves, RemoteBackend), {})(loopback_pool.hosts)
        else:
            engine = type("Counting", (_Waves, MultiprocessingBackend), {})(n_workers)
        built.append(engine)
        return engine

    monkeypatch.setitem(_BACKEND_REGISTRY, "counting", counting)
    book = build_toy_portfolio(400)
    reference = ValuationSession(backend="local").run(book)
    default = ValuationSession(backend="counting")._open_campaign(book)
    expected = default.finish()
    chunked = ValuationSession(backend="counting", scheduler=spelling)._open_campaign(book)
    engine = built[-1]
    result = chunked.finish()
    assert len(default.plan.jobs) > 10
    assert chunked.plan.batch_members == default.plan.batch_members
    assert result.report.scheduler == "chunked_robin_hood"
    assert result.report.bytes_sent == expected.report.bytes_sent > 0
    assert result.prices() == expected.prices() == reference.prices()
    assert not hasattr(engine, "waves")  # no wave longer than 1
    assert len(chunked._stream.completed) == len(default.plan.jobs)  # one reply a slice


def test_a_book_without_a_store_is_not_looked_up_on_disk(monkeypatch):
    looked_up = []
    monkeypatch.setattr(os.path, "exists", lambda path: looked_up.append(path) or False)
    assert _plan(build_toy_portfolio(30)).batch_members and not looked_up
    assert _plan(_jobs([1.0] * 5)).batch_members and len(looked_up) == 5


def _family(n: int, seed: int) -> list[PricingProblem]:
    out = []
    for k in range(n):
        problem = _position(k)
        problem.set_method("MC_European", n_paths=500, n_steps=1, seed=seed)
        out.append(problem)
    return out


def test_batch_keeps_its_own_plan():
    book = Portfolio(name="b", positions=[
        Position(problem, label=problem.label)
        for problem in _family(3, seed=1) + _family(2, seed=2) + [_position(7)]
    ])
    batched = _plan(book, batch=True)
    reference = _plan(book, batch=True, queues_jobs=False)
    assert [type(job.problem) for job in batched.jobs] == [
        ProblemBatch, ProblemBatch, PricingProblem]
    assert batched.batch_members == reference.batch_members == {0: (0, 1, 2), 3: (3, 4)}
    assert not batched.members_stand_alone


def test_a_store_or_an_incomplete_problem_keeps_the_per_position_plan(tmp_path):
    book = build_toy_portfolio(6)
    store = book.to_store(tmp_path / "store")
    plan = build_plan(book, executing=True, cost_model=paper_cost_model(),
                      store=store, n_workers=2, **SLICED)
    assert len(plan.jobs) == 6 and not plan.batch_members
    jobs = _jobs([1.0] * 4)
    jobs[2].problem = PricingProblem(label="no legs")  # fails alone, on its worker
    assert not _plan(jobs).batch_members


def test_the_sizing_of_a_toy_book():
    """300 equal positions on 2 workers: a quarter of what is left each time.

    A width whose cap is an exact multiple of the position cost (75 of 300)
    may round either way with the cost's last bit, so it is not pinned.
    """
    book = build_toy_portfolio(300)
    plan = _plan(book)
    estimate = paper_cost_model().estimate
    widths = cut_chunks([estimate(position.problem) for position in book], 2)
    assert [len(plan.batch_members[job.job_id]) for job in plan.jobs] == widths
    assert widths[0] in (74, 75) and widths[2:5] == [42, 31, 24] and widths[-3:] == [1, 1, 1]
    assert sum(widths) == 300 and 20 <= len(widths) <= 24
    assert {job.category for job in plan.jobs} == {"book"}


#: the slice widths of the 3,000-position toy book on 2 workers
TOY_WIDTHS = [750, 562, 422, 316, 237, 178, 133, 100, 75, 56, 42, 32, 24, 18, 13,
              10, 8, 6, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1]


def _costed(option: str, method: str, dimension: int = 1, **params) -> PricingProblem:
    problem = PricingProblem()
    if dimension == 1:
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
        problem.set_option(option, strike=100.0, maturity=1.0)
    else:
        problem.set_model("BlackScholesND", spot=[100.0] * dimension, rate=0.05,
                          volatilities=[0.2] * dimension,
                          correlation=flat_correlation(dimension, 0.3).tolist(), dividends=0.0)
        problem.set_option(option, strike=100.0, maturity=1.0,
                           weights=[1.0 / dimension] * dimension)
    problem.set_method(method, **params)
    return problem


#: one problem of each cost family and its estimate under
#: ``(paper_cost_model(), CostModel())``
FAMILY_COSTS = [
    (_costed("CallEuro", "CF_Call"), (0.00030000000000000003, 0.0004)),
    (_costed("CallEuro", "FFT_COS", n_terms=128), (0.000612, 0.000456)),
    (_costed("PutAmer", "TR_CoxRossRubinstein", n_steps=200), (0.0017000000000000001, 0.001)),
    (_costed("CallEuro", "FD_European", n_space=200, n_time=100), (0.050100000000000006, 0.0032)),
    (_costed("PutAmer", "FD_American", n_space=300, n_time=100), (0.1051, 0.0062)),
    (_costed("BasketPutEuro", "MC_European", dimension=3, n_paths=1000, n_steps=10),
     (0.00058, 0.0005600000000000001)),
    (_costed("BasketPutAmer", "MC_AM_LongstaffSchwartz", dimension=2, n_paths=2000, n_steps=10),
     (0.0017000000000000001, 0.0012000000000000001)),
]


def test_the_plan_of_the_benchmark_toy_book():
    """Three toy chunks of 1,000 positions, each with its own spot and
    volatility (as the end-to-end benchmark builds its book), on 2 workers:
    the slice widths, the members each slice answers and its cost are
    pinned, and so is the cost model that sizes them."""
    book = Portfolio(name="toy")
    for chunk, (spot, volatility) in enumerate([(101.0, 0.2), (97.5, 0.25), (103.2, 0.19)]):
        book.extend(build_toy_portfolio(1000, spot=spot, volatility=volatility,
                                        name=f"toy{chunk}").positions)
    plan = _plan(book)
    assert [len(plan.batch_members[job.job_id]) for job in plan.jobs] == TOY_WIDTHS
    start = 0
    for job, width in zip(plan.jobs, TOY_WIDTHS):
        members = tuple(range(start, start + width))
        assert job.job_id == start and plan.batch_members[start] == members
        assert job.problem.rows.tolist() == list(members)
        assert job.problem.problems == [book[index].problem for index in members]
        assert job.compute_cost == sum([FAMILY_COSTS[0][1][0]] * width)
        start += width
    assert plan.member_categories == dict.fromkeys(range(3000), "vanilla_cf")

    for problem, expected in FAMILY_COSTS:
        assert (paper_cost_model().estimate(problem), CostModel().estimate(problem)) == expected
    no_method, no_model = PricingProblem(), PricingProblem()
    no_method.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    no_model.set_method("CF_Call")
    for incomplete in (no_method, no_model):
        with pytest.raises(ProblemStateError):
            paper_cost_model().estimate(incomplete)


def test_a_toy_campaign_on_worker_processes_is_a_few_messages(monkeypatch):
    """3,000 positions: one job and one reply record per slice, no result
    dictionary, no future."""
    counts = {"write": 0, "scatter": 0, "futures": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(ResultTable, "write", "write")
    counting(ResultTable, "scatter", "scatter")
    counting(PricingFuture, "__init__", "futures")
    book = build_toy_portfolio(3000)
    session = ValuationSession(backend="multiprocessing", n_workers=2)
    campaign = session._open_campaign(book)
    result = campaign.finish()
    n_slices = len(campaign.plan.jobs)
    assert result.ok and result.n_jobs == 3000 and len(result.prices()) == 3000
    assert 20 <= n_slices <= 40
    assert sum(len(campaign.plan.batch_members[job.job_id])
               for job in campaign.plan.jobs) == 3000
    assert len(campaign._stream.completed) == n_slices  # jobs dispatched == slices
    assert counts == {"write": 0, "scatter": n_slices, "futures": 0}


def test_naming_robin_hood_is_not_a_switch():
    """``scheduler="robin_hood"`` is the default spelled out: same slices,
    on the call and on the session; a policy that orders single positions
    (``priority``) keeps them."""
    book = build_toy_portfolio(40)
    session = ValuationSession(backend="multiprocessing", n_workers=2)
    default = session._open_campaign(book)
    on_call = session._open_campaign(book, scheduler="robin_hood")
    on_session = ValuationSession(
        backend="multiprocessing", n_workers=2, scheduler="robin_hood"
    )._open_campaign(book)
    per_position = session._open_campaign(book, scheduler="priority")
    assert default.plan.batch_members
    assert on_call.plan.batch_members == on_session.plan.batch_members == default.plan.batch_members
    assert len(per_position.plan.jobs) == 40 and not per_position.plan.batch_members
    prices = [campaign.finish().prices()
              for campaign in (default, on_call, on_session, per_position)]
    assert prices[0] == prices[1] == prices[2] == prices[3] and len(prices[0]) == 40


def test_a_label_of_any_type_travels_in_a_slice():
    """A problem's label is whatever its caller gave (the HTTP service passes
    a JSON label through): a slice carrying an ``int`` or ``float`` label
    prices on worker processes what it prices at home."""
    book = build_toy_portfolio(40)
    for number, position in enumerate(book):
        position.problem.label = (number, float(number), None, f"p{number}")[number % 4]
    reference = ValuationSession(backend="local").run(book)
    campaign = ValuationSession(backend="multiprocessing", n_workers=2)._open_campaign(book)
    result = campaign.finish()
    assert campaign.plan.batch_members
    assert result.ok and result.prices() == reference.prices()


@pytest.mark.parametrize("backend", ["local", "simulated"])
def test_in_process_and_simulated_backends_plan_per_position(backend):
    campaign = ValuationSession(backend=backend, n_workers=2)._open_campaign(
        build_toy_portfolio(40))
    assert len(campaign.plan.jobs) == 40 and not campaign.plan.batch_members
    campaign.finish()

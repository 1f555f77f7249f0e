"""A default run on worker processes travels as book slices and changes nothing.

Across a process boundary ``session.run`` sends the book in slices
(:func:`repro.api.plan._travels_in_slices`); the in-process backend keeps one
job per position and is the reference: every result field of every position
must compare ``==``.  What worked per position still does -- a bad position
fails alone, a queued one can be cancelled, a warm run cache is honoured --
although the unit that travels is now the slice.
"""

from __future__ import annotations

import pytest

from repro.api import ValuationSession
from repro.cluster.worker import spawn_local_workers
from repro.core.portfolio import Portfolio, Position, build_toy_portfolio
from repro.pricing import PricingProblem
from repro.pricing.scenarios import ScenarioGrid, historical_scenarios
from tests.oracles.books import mixed_book

FIELDS = ("price", "delta", "std_error", "confidence_interval", "n_evaluations", "method_name")


@pytest.fixture(scope="module")
def loopback_pool():
    with spawn_local_workers(2) as pool:
        yield pool


def _session(backend: str, pool, **options) -> ValuationSession:
    if backend == "remote":
        return ValuationSession(
            backend="remote", backend_options={"hosts": pool.hosts}, **options
        )
    return ValuationSession(backend=backend, n_workers=2, **options)


def _wide_book() -> Portfolio:
    """Closed forms and three copies of the mixed book: Monte-Carlo families
    that meet in one slice and are split over others."""
    positions = list(build_toy_portfolio(40).positions)
    for copy in range(3):
        positions[5 * copy:5 * copy] = mixed_book("sobol", antithetic=False).positions
    return Portfolio(name="wide", positions=positions)


BOOKS = {
    "mixed": mixed_book,
    "mixed_sobol": lambda: mixed_book("sobol", antithetic=False),
    "wide": _wide_book,
}


def _fields(result) -> dict[int, tuple]:
    return {
        job_id: None if entry is None else tuple(entry[name] for name in FIELDS)
        for job_id, entry in result.report.results.items()
    }


@pytest.mark.parametrize("strategy", ["serialized_load", "full_load"])
@pytest.mark.parametrize("backend", ["multiprocessing", "remote"])
@pytest.mark.parametrize("book", sorted(BOOKS))
def test_every_field_equals_the_per_position_run(book, backend, strategy, loopback_pool):
    reference = ValuationSession(backend="local", strategy=strategy).run(BOOKS[book]())
    campaign = _session(backend, loopback_pool, strategy=strategy)._open_campaign(BOOKS[book]())
    sliced = campaign.finish()
    assert campaign.plan.batch_members and all(
        isinstance(job.problem, ScenarioGrid) for job in campaign.plan.jobs)
    assert reference.ok and sliced.ok
    assert _fields(sliced) == _fields(reference)
    assert list(sliced.report.results) == list(reference.report.results)
    assert any(entry[1] is None for entry in _fields(sliced).values())  # None stays None


@pytest.mark.parametrize("backend", ["multiprocessing", "remote"])
def test_compute_time_is_still_reported_by_the_positions_categories(backend, loopback_pool):
    """The slices are timed whole (``category="book"``); the report shares
    each slice's time among the categories of the positions it answered."""
    book = Portfolio(name="two", positions=[
        Position(position.problem, category="even" if index % 2 == 0 else "odd")
        for index, position in enumerate(build_toy_portfolio(60))
    ])
    campaign = _session(backend, loopback_pool)._open_campaign(book)
    campaign.cancel_job(1)  # left out of its slice: it weighs nothing
    sliced = campaign.finish()
    assert {job.category for job in campaign.plan.jobs} == {"book"}
    times = sliced.report.category_times
    assert sorted(times) == ["even", "odd"] and min(times.values()) > 0.0
    computed = sum(done.compute_time for done in campaign._stream.completed)
    assert sum(times.values()) == pytest.approx(computed)
    assert sliced.to_dict()["category_times"] == times
    assert sorted(ValuationSession(backend="local").run(book).report.category_times) == [
        "even", "odd"]


@pytest.mark.parametrize("strategy", ["serialized_load", "nfs"])
@pytest.mark.parametrize("backend", ["multiprocessing", "remote"])
def test_chunked_over_problem_files_keeps_the_per_position_route(
    backend, strategy, loopback_pool, tmp_path
):
    """Positions held as files are not sliced, under ``chunked_robin_hood``
    either: its chunks go through the backend's default ``dispatch_batch``
    loop, a message (under ``nfs`` a file name) per position."""
    book = build_toy_portfolio(60)
    store = book.to_store(tmp_path / "store")
    reference = ValuationSession(backend="local").run(book)
    campaign = _session(
        backend, loopback_pool, scheduler="chunked_robin_hood", strategy=strategy
    )._open_campaign(book, store=store)
    result = campaign.finish()
    assert len(campaign.plan.jobs) == 60 and not campaign.plan.batch_members
    assert max(result.report.peak_window.values()) > 1  # several positions a wave
    assert reference.ok and result.ok and _fields(result) == _fields(reference)


def _poisoned() -> PricingProblem:
    """Builds and travels fine, fails at ``compute()``: a closed-form call under Heston."""
    problem = PricingProblem(label="bad")
    problem.set_model("Heston1D", spot=100.0, rate=0.03, v0=0.04, kappa=2.0, theta=0.04,
                      sigma_v=0.4, rho=-0.7)
    problem.set_option("CallEuro", strike=100.0, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


@pytest.mark.parametrize("backend", ["multiprocessing", "remote"])
def test_a_poisoned_position_fails_alone_in_a_wide_slice(backend, loopback_pool):
    positions = list(build_toy_portfolio(200).positions)
    positions[10] = Position(_poisoned(), label="bad")
    book = Portfolio(name="poisoned", positions=positions)
    reference = ValuationSession(backend="local").run(book)
    campaign = _session(backend, loopback_pool)._open_campaign(book)
    first = campaign.plan.jobs[0]
    assert 49 <= len(campaign.plan.batch_members[first.job_id]) <= 50
    result = campaign.finish()
    assert set(result.errors) == set(reference.errors) == {10}
    assert "IncompatibleMethodError" in result.errors[10]
    assert len(result.prices()) == 199 and result.prices() == reference.prices()


class TestCancellingAMember:
    def _stream(self):
        book = build_toy_portfolio(400)
        run = ValuationSession(backend="multiprocessing", n_workers=2).stream(book)
        campaign = run._campaign
        members = [campaign.plan.batch_members[job.job_id] for job in campaign.plan.jobs]
        return run, campaign, members

    def test_it_is_left_out_of_its_queued_slice(self):
        run, campaign, members = self._stream()
        futures = {future.job_id: future for future in run.jobs}
        # the first wave (a slice per worker) is with the workers already
        assert not futures[members[0][3]].cancel() and not futures[members[1][0]].cancel()
        gone = [members[4][0], members[4][5], members[7][-1]]  # a slice's own id among them
        assert all(futures[job_id].cancel() for job_id in gone)
        assert all(futures[job_id].cancelled() for job_id in gone)
        assert futures[gone[0]].cancel()  # once cancelled, stays cancelled
        fired = []
        futures[members[4][1]].add_done_callback(fired.append)
        assert futures[members[4][1]].result()["price"] > 0  # pumps until its slice lands
        assert fired and not campaign.exhausted
        result = run.result()
        reference = ValuationSession(backend="local").run(build_toy_portfolio(400)).prices()
        assert sorted(result.errors) == sorted(gone)
        assert all(message == "cancelled before dispatch" for message in result.errors.values())
        # the siblings priced: a cancelled member the worker priced anyway would
        # have failed the whole reply as "outside its job's members"
        assert result.prices() == {k: v for k, v in reference.items() if k not in gone}
        assert len(campaign._stream.completed) == len(members)  # no slice was withdrawn
        assert not futures[members[4][2]].cancel()  # answered: nothing left to cancel

    def test_cancelling_every_member_withdraws_the_slice(self):
        run, campaign, members = self._stream()
        futures = {future.job_id: future for future in run.jobs}
        assert all(futures[job_id].cancel() for job_id in members[5])
        assert [job.job_id for job in campaign._stream.cancelled_jobs] == [members[5][0]]
        result = run.result()
        assert sorted(result.errors) == sorted(members[5])
        assert len(result.prices()) == 400 - len(members[5])
        assert len(campaign._stream.completed) == len(members) - 1

    def test_members_that_cannot_leave_their_job(self):
        """One documented ``False``: a ``ProblemBatch`` cannot drop a member, a
        grid's cells fold into one measure."""
        session = ValuationSession(backend="multiprocessing", n_workers=1)
        book = Portfolio(name="b", positions=mixed_book().positions * 3)
        campaign = session._open_campaign(book, batch=True)
        family = next(iter(campaign.plan.batch_members.values()))
        assert len(family) > 1 and not any(campaign.cancel_job(member) for member in family)
        campaign.finish()
        problems = [position.problem for position in mixed_book()[:2]]
        grid = ScenarioGrid(
            problems, historical_scenarios([0.01 * (k - 5) for k in range(10)]))
        campaign = session._open_campaign(grid)
        queued = campaign.plan.jobs[-1]
        assert not queued.problem._written
        assert not any(campaign.cancel_job(cell)
                       for cell in campaign.plan.batch_members[queued.job_id])
        assert campaign.finish().ok


class TestTheRunCache:
    def test_a_half_warm_cache_dispatches_only_the_missing_positions(self):
        book = build_toy_portfolio(120)
        session = ValuationSession(backend="multiprocessing", n_workers=2, cache=True)
        half = Portfolio(name="half", positions=book.positions[::2])
        assert session.run(half).ok
        campaign = session._open_campaign(book)
        sent = [member for job in campaign.plan.jobs
                for member in campaign.plan.batch_members[job.job_id]]
        assert sent == list(range(1, 120, 2))
        assert sorted(campaign.plan.cached_results) == list(range(0, 120, 2))
        result = campaign.finish()
        reference = ValuationSession(backend="local").run(build_toy_portfolio(120))
        assert result.ok and result.prices() == reference.prices()
        hits = [job_id for job_id, entry in result.report.results.items()
                if entry.get("cache_hit")]
        assert hits == list(range(0, 120, 2))
        # fully warm: nothing is dispatched at all
        assert not session._open_campaign(build_toy_portfolio(120)).plan.jobs

    def test_a_position_priced_by_run_hits_for_the_equal_cell_of_risk(self):
        book = mixed_book()
        session = ValuationSession(backend="multiprocessing", n_workers=2, cache=True)
        assert session.run(book).ok
        returns = [0.01, -0.02, 0.004]
        grid = ScenarioGrid([position.problem for position in book],
                            historical_scenarios(returns), on_missing="base")
        campaign = session._open_campaign(grid)
        n_scenarios = len(returns) + 1
        assert sorted(campaign.plan.cached_results) == [
            row * n_scenarios for row in range(len(book))]  # the base cells
        campaign.finish()
        summary = session.risk(mixed_book(), spot_returns=returns)
        assert summary == ValuationSession(backend="local").risk(
            mixed_book(), spot_returns=returns)

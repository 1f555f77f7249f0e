"""``sload`` before the loop: a campaign's bytes are made before its pool forks.

The paper's ``sload`` master has its problems serialized before the
Robin-Hood loop starts, so the loop only sends bytes.  A
:class:`~repro.core.scheduler.ScheduleStream` on an executing backend runs the
strategy's load pass (every in-memory job's :meth:`Job.wire_bytes`) before
``on_run_start``, and a :class:`MultiprocessingBackend` starts its processes
there: the plan and every job's bytes are written before the fork and only
read after it.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing.context import ForkProcess
from multiprocessing.process import BaseProcess

import pytest

import repro.pricing.batch
import repro.pricing.scenarios
from repro.api import ValuationSession
from repro.cluster.backends import MultiprocessingBackend
from repro.core.portfolio import Portfolio, Position, build_toy_portfolio
from repro.errors import ValuationError
from repro.pricing.scenarios import ScenarioGrid, historical_scenarios
from repro.serial import Serial, xdr
from tests.oracles.books import basket_family, mixed_book


@pytest.fixture
def events(monkeypatch) -> list[str]:
    """What the master does, in order: each book written, each XDR encode,
    each worker process started."""
    seen: list[str] = []

    def recorded(name: str, function):
        def call(*args, **kwargs):
            seen.append(name)
            return function(*args, **kwargs)

        return call

    for module in (repro.pricing.scenarios, repro.pricing.batch):
        monkeypatch.setattr(module, "write_book", recorded("write_book", module.write_book))
    monkeypatch.setattr(xdr, "encode", recorded("encode", xdr.encode))
    monkeypatch.setattr(BaseProcess, "start", recorded("start", BaseProcess.start))
    return seen


def _baskets() -> Portfolio:
    """Two families of four basket puts, each coalesced into one batch."""
    spots = [[100.0] * 10] * 4
    problems = basket_family(spots, 0) + basket_family(spots, 1)
    return Portfolio(positions=[Position(problem) for problem in problems])


def _grid() -> ScenarioGrid:
    problems = [position.problem for position in mixed_book()[:3]]
    return ScenarioGrid(problems, historical_scenarios([0.01 * (k - 5) for k in range(10)]))


@pytest.mark.parametrize("case", ["toy book", "basket families", "risk grid"])
def test_every_book_and_encode_comes_before_the_first_process_start(case, events):
    session = ValuationSession(backend="multiprocessing", n_workers=2)
    if case == "toy book":
        campaign = session._open_campaign(build_toy_portfolio(300))
    elif case == "basket families":
        campaign = session._open_campaign(_baskets(), batch=True)
        assert len(campaign.plan.jobs) == 2 and campaign.plan.batch_members
    else:
        campaign = session._open_campaign(_grid())
    assert len(campaign.plan.jobs) > 1 and campaign.finish().ok
    assert events.count("start") == 2
    first_start = events.index("start")
    assert "write_book" in events[:first_start] and "encode" in events[:first_start]
    assert set(events[first_start:]) == {"start"}  # nothing is written after the fork


def test_a_member_cancelled_after_the_load_pass_leaves_its_queued_slice():
    session = ValuationSession(backend="multiprocessing", n_workers=1)
    campaign = session._open_campaign(build_toy_portfolio(400))
    queued = campaign.plan.jobs[-3]
    assert campaign._stream.queued(queued.job_id)
    made, book = queued.wire_bytes(), queued.problem._book.wire_bytes()
    members = campaign.plan.batch_members[queued.job_id]
    gone = members[-1]
    assert campaign.cancel_job(gone)
    remade = queued.wire_bytes()
    assert remade != made and queued.problem._book.wire_bytes() is book
    assert Serial.from_bytes(remade).unserialize().answered == frozenset({gone})
    assert not Serial.from_bytes(made).unserialize().answered
    result = campaign.finish()
    reference = ValuationSession(backend="local").run(build_toy_portfolio(400)).prices()
    assert list(result.errors) == [gone]
    assert result.prices() == {k: v for k, v in reference.items() if k != gone}


def test_a_planning_error_starts_no_process(monkeypatch):
    starts: list[BaseProcess] = []
    original = BaseProcess.start
    monkeypatch.setattr(BaseProcess, "start",
                        lambda process: starts.append(process) or original(process))
    before = set(mp.active_children())
    session = ValuationSession(backend="multiprocessing", n_workers=2, strategy="nfs")
    with pytest.raises(ValuationError, match="store="):
        session.run(build_toy_portfolio(10))
    assert not starts and set(mp.active_children()) == before


def test_a_pool_that_never_started_finalizes_clean():
    before = set(mp.active_children())
    backend = MultiprocessingBackend(n_workers=2)
    stats = backend.finalize()
    assert (stats.n_jobs, stats.n_workers, stats.bytes_sent) == (0, 2, 0)
    assert stats.worker_busy == {0: 0.0, 1: 0.0}
    assert not backend._processes and set(mp.active_children()) == before


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="the platform cannot fork")
def test_workers_are_forked_whatever_the_default_start_method():
    default = mp.get_start_method(allow_none=True)
    mp.set_start_method("spawn", force=True)
    try:
        backend = MultiprocessingBackend(n_workers=2)
        try:
            backend.on_run_start(0)
            assert [type(process) for process in backend._processes] == [ForkProcess] * 2
        finally:
            backend.finalize()
    finally:
        mp.set_start_method(default, force=True)

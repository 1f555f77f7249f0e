"""Each problem is XDR-encoded at most once per campaign.

The master keeps the wire bytes of a job from its first dispatch on
(:meth:`repro.cluster.backends.Job.wire_bytes`), so neither planning, nor a
retry, nor folding a position into a :class:`~repro.pricing.batch.ProblemBatch`
or a book slice may encode a problem a second time.  The spy counts calls of the codec
registry's ``PricingProblem`` / ``ProblemBatch`` / ``ScenarioGrid`` encoders
and of the base-book writer in the master process (worker processes decode,
they never encode problems).
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from repro.api import ValuationSession
from repro.api.campaign import Campaign
from repro.api.plan import build_plan
from repro.cluster.costmodel import paper_cost_model
from repro.cluster.worker import spawn_local_workers
from repro.core.portfolio import Portfolio, Position, build_toy_portfolio
from repro.core.scheduler import cut_chunks
from repro.pricing import PricingProblem, cache, scenarios
from repro.pricing.scenarios import ScenarioGrid
from repro.serial import xdr

N_FAMILIES = 2
FAMILY_SIZE = 3
N_SINGLES = 2
N_POSITIONS = N_FAMILIES * FAMILY_SIZE + N_SINGLES


def _problem(strike: float, method: str, seed: int = 0) -> PricingProblem:
    problem = PricingProblem(label=f"{method}_{seed}_K{strike}")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    if method == "CF_Call":
        problem.set_method("CF_Call")
    else:
        problem.set_method("MC_European", n_paths=2_000, n_steps=1, seed=seed)
    return problem


def _book() -> Portfolio:
    """Two shared-simulation families (one per seed) and two closed forms."""
    problems = [
        _problem(90.0 + 5 * k, "MC_European", seed=seed)
        for seed in range(N_FAMILIES)
        for k in range(FAMILY_SIZE)
    ] + [_problem(95.0 + 10 * k, "CF_Call") for k in range(N_SINGLES)]
    return Portfolio(name="once", positions=[Position(p, label=p.label) for p in problems])


@pytest.fixture
def encodes(monkeypatch) -> Counter:
    """Count master-side codec encodes by registered type name."""
    counts: Counter = Counter()
    for name in ("PricingProblem", "ProblemBatch", "ScenarioGrid"):
        cls, to_dict, from_dict = xdr._CODECS[name]

        def counting(value, _name=name, _to_dict=to_dict):
            counts[_name] += 1
            return _to_dict(value)

        monkeypatch.setitem(xdr._CODECS, name, (cls, counting, from_dict))

    def counting_book(problems, _write_book=scenarios.write_book):
        counts["book"] += 1
        return _write_book(problems)

    monkeypatch.setattr(scenarios, "write_book", counting_book)
    return counts


@pytest.fixture
def encodes_at_plan_time(monkeypatch, encodes) -> list[int]:
    """Encodes seen by the time :func:`build_plan` returns, per campaign."""
    seen: list[int] = []

    def spy(*args, **kwargs):
        plan = build_plan(*args, **kwargs)
        seen.append(sum(encodes.values()))
        return plan

    monkeypatch.setattr("repro.api.session.build_plan", spy)
    return seen


@pytest.fixture(scope="module")
def loopback_pool():
    with spawn_local_workers(2) as pool:
        yield pool


def _session(backend: str, pool) -> ValuationSession:
    if backend == "remote":
        return ValuationSession(backend="remote", backend_options={"hosts": pool.hosts})
    return ValuationSession(backend=backend, n_workers=2)


def _n_book_slices(book: Portfolio, n_workers: int) -> int:
    """How many book slices a default run on worker processes cuts ``book`` into."""
    estimate = paper_cost_model().estimate
    return len(cut_chunks([estimate(position.problem) for position in book], n_workers))


def _drive(session: ValuationSession, drive: str, book: Portfolio, **options):
    if drive == "run":
        return session.run(book, **options)
    if drive == "stream":
        return session.stream(book, **options).result()
    assert not options  # submit_many has no batch= (see CHANGES, PR 14)
    session.submit_many(position.problem for position in book)
    return session.gather()


@pytest.mark.parametrize("backend", ["local", "multiprocessing", "remote"])
@pytest.mark.parametrize("drive", ["run", "stream", "submit_gather"])
def test_plain_campaign_encodes_each_position_once(
    backend, drive, encodes, encodes_at_plan_time, loopback_pool
):
    result = _drive(_session(backend, loopback_pool), drive, _book())
    assert result.ok and result.n_jobs == N_POSITIONS
    if backend == "local":
        assert encodes == {"PricingProblem": N_POSITIONS}
    else:
        # across a process boundary the book travels in slices: each slice and
        # its book are written once, and no position is ever encoded alone
        n_slices = _n_book_slices(_book(), 2)
        assert 1 < n_slices < N_POSITIONS
        assert encodes == {"ScenarioGrid": n_slices, "book": n_slices}
    assert encodes_at_plan_time == [0]


@pytest.mark.parametrize("backend", ["local", "multiprocessing", "remote"])
@pytest.mark.parametrize("drive", ["run", "stream"])
def test_batched_campaign_encodes_groups_not_members(
    backend, drive, encodes, encodes_at_plan_time, loopback_pool
):
    result = _drive(_session(backend, loopback_pool), drive, _book(), batch=True)
    assert result.ok and result.n_jobs == N_POSITIONS
    # one encode per dispatched unit: a batch per family, the singles alone
    assert encodes == {"ProblemBatch": N_FAMILIES, "PricingProblem": N_SINGLES}
    assert encodes_at_plan_time == [0]


def test_simulated_plan_sizes_members_once_and_sends_nothing(encodes):
    # virtual time needs stand-alone sizes (the tables are pinned to them):
    # one encode per position at plan time, none for the batches
    session = ValuationSession(backend="simulated", n_workers=2)
    assert session.run(_book(), batch=True).n_jobs == N_POSITIONS
    assert encodes == {"PricingProblem": N_POSITIONS}


def test_a_sliced_book_is_written_without_a_digest_one_encode_a_slice(monkeypatch):
    """The master's book write on cold problems: no ``stable_digest`` (the
    header dedup key is exact bytes, not a digest) and one XDR encode of
    each slice's book, next to the one of the slice that carries it."""
    book = build_toy_portfolio(3000)
    plan = build_plan(book, executing=True, cost_model=paper_cost_model(),
                      n_workers=2, queues_jobs=True)
    assert 1 < len(plan.jobs) < 100
    assert all(isinstance(job.problem, ScenarioGrid) for job in plan.jobs)
    calls: Counter = Counter()

    def digest(value, _digest=cache.stable_digest):
        calls["stable_digest"] += 1
        return _digest(value)

    def encode(value, _encode=xdr.encode):
        calls["book" if isinstance(value, dict) and "labels" in value
              else type(value).__name__] += 1
        return _encode(value)

    monkeypatch.setattr(cache, "stable_digest", digest)
    monkeypatch.setattr(xdr, "encode", encode)
    sent = sum(len(job.wire_bytes()) for job in plan.jobs)
    assert calls == {"book": len(plan.jobs), "ScenarioGrid": len(plan.jobs)}
    assert all("_digest_cache" not in position.problem.model.__dict__ for position in book)
    assert sent / len(book) < 100  # bytes a position, the book's wrapper included


RETURNS = [0.01 * (k - 6) for k in range(12)]


@pytest.mark.parametrize("backend", ["local", "multiprocessing", "remote"])
def test_risk_campaign_encodes_the_base_book_once(
    backend, encodes, encodes_at_plan_time, loopback_pool
):
    summary = _session(backend, loopback_pool).risk(_book(), spot_returns=RETURNS)
    assert summary["n_scenarios"] == len(RETURNS)
    # no cell and no batch is ever written: one book, one small wrapper per slice
    n_slices = encodes.pop("ScenarioGrid")
    assert 1 < n_slices <= len(RETURNS) + 1
    assert encodes == {"book": 1}
    assert encodes_at_plan_time == [0]


def _kill_first_worker_once(pool, restart_after: float):
    killed = threading.Event()

    def on_progress(event):
        if not killed.is_set():
            killed.set()
            pool.kill(0)
            threading.Thread(
                target=lambda: (time.sleep(restart_after), pool.restart(0)), daemon=True
            ).start()

    return on_progress


def test_risk_retry_after_pool_loss_adds_no_encodes(encodes, monkeypatch):
    reattached = []
    reattach = Campaign._reattach
    monkeypatch.setattr(
        Campaign, "_reattach",
        lambda self, delays: reattached.append(self) or reattach(self, delays),
    )
    with spawn_local_workers(1) as pool:
        options = {"hosts": pool.hosts}
        clean = ValuationSession(backend="remote", backend_options=options).risk(_book(), spot_returns=RETURNS)
        clean_encodes = dict(encodes)
        encodes.clear()
        summary = ValuationSession(backend="remote", backend_options=options).risk(
            _book(), spot_returns=RETURNS, retry=True,
            progress=_kill_first_worker_once(pool, restart_after=0.8))
    assert reattached and summary == clean
    # the re-dispatched slices re-send the bytes kept from their first dispatch
    assert encodes == clean_encodes and encodes["book"] == 1


def test_retry_after_pool_loss_adds_no_encodes(encodes):
    book = Portfolio(name="retry", positions=[
        Position(_problem(80.0 + 3 * k, "MC_European", seed=7), label=f"p{k}")
        for k in range(10)
    ])
    with spawn_local_workers(1) as pool:
        session = ValuationSession(backend="remote", backend_options={"hosts": pool.hosts})
        result = session.run(
            book, retry=True, progress=_kill_first_worker_once(pool, restart_after=0.8))
    assert result.ok and result.report.extra.get("retries", 0) >= 1
    # the re-dispatched slices re-send the bytes kept from the first dispatch
    n_slices = _n_book_slices(book, 1)
    assert encodes == {"ScenarioGrid": n_slices, "book": n_slices}

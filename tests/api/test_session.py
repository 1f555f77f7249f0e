"""Tests of the :class:`ValuationSession` facade.

The acceptance bar of the unified API: reproduce the quickstart price
(10.4506), a full portfolio run and a Table-II-style strategy comparison
through the session alone.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from repro.api import (
    FIRST_COMPLETED,
    CancelToken,
    ComparisonResult,
    PriceResult,
    ResultCache,
    RunResult,
    SweepResult,
    ValuationSession,
)
from repro.cluster.backends import SequentialBackend, execute_payload
from repro.cluster.backends.base import REDIAL_DELAYS_S
from repro.cluster.costmodel import paper_cost_model
from repro.cluster.simcluster import ChurnSchedule, CommunicationModel, NFSModel
from repro.core.portfolio import Portfolio, Position, build_toy_portfolio
from repro.core.scheduler import ChunkedPolicy, PriorityPolicy, WorkStealingPolicy
from repro.errors import (
    ClusterError,
    FutureTimeoutError,
    SchedulingError,
    ValuationError,
    WorkerLostError,
)
from repro.pricing import (
    BlackScholesModel,
    ClosedFormCall,
    EuropeanCall,
    PricingProblem,
)
from repro.pricing.methods.base import FLOAT_COLUMNS, INT_COLUMNS, ResultColumns

BS_PARAMS = {"spot": 100.0, "rate": 0.05, "volatility": 0.2}
CALL_PARAMS = {"strike": 100.0, "maturity": 1.0}


def _call_problem(strike: float, label: str | None = None) -> PricingProblem:
    problem = PricingProblem(label=label)
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", **BS_PARAMS)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


@pytest.fixture(scope="module")
def toy_portfolio():
    return build_toy_portfolio(n_options=60)


@pytest.fixture(scope="module")
def toy_jobs(toy_portfolio):
    return toy_portfolio.build_jobs(cost_model=paper_cost_model())


class TestPrice:
    def test_quickstart_price_by_names(self):
        session = ValuationSession(backend="simulated")
        result = session.price(
            model="BlackScholes1D", option="CallEuro", method="CF_Call",
            model_params=BS_PARAMS, option_params=CALL_PARAMS,
        )
        assert isinstance(result, PriceResult)
        assert round(result.price, 4) == 10.4506
        assert result.delta == pytest.approx(0.6368, abs=1e-4)
        assert result.ok

    def test_price_from_instances(self):
        session = ValuationSession()
        result = session.price(
            BlackScholesModel(**BS_PARAMS),
            EuropeanCall(**CALL_PARAMS),
            ClosedFormCall(),
        )
        assert round(result.price, 4) == 10.4506

    def test_price_problem_keyword(self, simple_problem):
        result = ValuationSession().price(problem=simple_problem)
        assert round(result.price, 4) == 10.4506
        assert result.label == "fixture_call"
        assert result.method == "CF_Call"

    def test_problem_excludes_names(self, simple_problem):
        with pytest.raises(ValuationError):
            ValuationSession().price(model="BlackScholes1D", problem=simple_problem)

    def test_mixing_names_and_instances_rejected(self):
        with pytest.raises(ValuationError, match="mix"):
            ValuationSession().price(
                BlackScholesModel(**BS_PARAMS), "CallEuro", "CF_Call"
            )

    def test_missing_parts_rejected(self):
        with pytest.raises(ValuationError):
            ValuationSession().price(model="BlackScholes1D")

    def test_format_and_confidence_interval(self):
        result = PriceResult(price=10.0, std_error=0.5, label="x")
        low, high = result.confidence_interval
        assert low < 10.0 < high
        assert "price = 10" in result.format()
        assert result.to_dict()["label"] == "x"


class TestRun:
    def test_named_backend_run_matches_one_worker_backend(self, toy_portfolio):
        session = ValuationSession(backend="local", strategy="serialized_load")
        result = session.run(toy_portfolio)
        one_worker = ValuationSession("local", n_workers=1).run(toy_portfolio)
        assert isinstance(result, RunResult)
        assert result.ok and result.n_errors == 0
        assert result.prices() == pytest.approx(one_worker.prices())
        assert result.value() == pytest.approx(
            sum(
                pos.quantity * result.prices()[i]
                for i, pos in enumerate(toy_portfolio)
            )
        )

    def test_run_job_list_on_simulated_cluster(self, toy_jobs):
        session = ValuationSession(backend="simulated", n_workers=3)
        result = session.run(toy_jobs)
        assert result.n_jobs == len(toy_jobs)
        assert result.n_workers == 3
        assert result.total_time > 0
        assert result.to_dict()["n_workers"] == 3
        with pytest.raises(ValuationError):  # no portfolio to mark to market
            result.value()

    def test_run_with_strategy_and_scheduler_keywords(self, toy_portfolio):
        session = ValuationSession(backend="simulated", n_workers=2)
        result = session.run(toy_portfolio, strategy="nfs", scheduler="chunked_robin_hood")
        assert result.strategy == "nfs"
        assert result.report.scheduler == "chunked_robin_hood"

    def test_session_cost_model_drives_simulated_timings(self, toy_portfolio):
        baseline = ValuationSession(backend="simulated", n_workers=2).run(toy_portfolio)
        scaled = ValuationSession(
            backend="simulated", n_workers=2,
            cost_model=paper_cost_model().with_scale(1000.0),
        ).run(toy_portfolio)
        assert scaled.total_time > baseline.total_time * 100

    def test_spec_sessions_are_reusable(self, toy_portfolio):
        session = ValuationSession(backend="local")
        first = session.run(toy_portfolio)
        second = session.run(toy_portfolio)
        assert first.prices() == pytest.approx(second.prices())

    def test_with_options_derives_new_session(self, toy_portfolio):
        base = ValuationSession(backend="local", strategy="serialized_load")
        derived = base.with_options(strategy="nfs", backend="simulated")
        assert derived.backend == "simulated"
        assert derived.strategy == "nfs"
        assert base.backend == "local"


class TestSubmitMany:
    def test_futures_resolve_incrementally_not_as_a_gather(self):
        session = ValuationSession(backend="local")
        handles = session.submit_many(
            [_call_problem(k, label=f"K{k:.0f}") for k in (90.0, 100.0, 110.0)]
        )
        assert session.n_pending == 3
        assert not handles[0].done()
        # reading one future starts the campaign and pumps the master loop
        # only until that job answers -- never a full-batch gather
        assert handles[1].price() == pytest.approx(10.4506, abs=1e-4)
        assert session.n_pending == 0
        assert handles[0].done()  # collected before job 1 in stream order
        assert not handles[2].done()  # still streaming: no full gather happened
        assert handles[0].price() > handles[2].price()  # K90 call > K110 call
        assert all(h.done() for h in handles)  # reading resolves the rest
        assert handles[0].error() is None

    def test_gather_returns_run_result(self):
        session = ValuationSession(backend="local")
        session.submit_many([_call_problem(100.0)])
        result = session.gather()
        assert isinstance(result, RunResult)
        assert result.n_jobs == 1 and result.ok

    def test_gather_without_submissions_rejected(self):
        with pytest.raises(ValuationError):
            ValuationSession(backend="local").gather()

    def test_non_problem_items_rejected(self):
        with pytest.raises(ValuationError):
            ValuationSession().submit_many([42])

    def test_failed_gather_keeps_handles_pending_for_retry(self):
        session = ValuationSession(backend="local")
        incomplete = PricingProblem(label="incomplete")  # no model/option/method
        (handle,) = session.submit_many([incomplete])
        with pytest.raises(Exception) as first:
            session.gather()  # building the job fails before execution
        assert session.n_pending == 1  # the queue survives the failure
        assert not handle.done()
        # the retry reports the same root cause, not "no pending submissions"
        with pytest.raises(type(first.value)):
            session.gather()

    def test_timing_only_backend_has_no_price(self):
        session = ValuationSession(backend="simulated")
        (handle,) = session.submit_many([_call_problem(100.0)])
        assert handle.result() is None  # simulation advances virtual time only
        with pytest.raises(ValuationError, match="no price"):
            handle.price()


class TestSweep:
    def test_sweep_defaults_to_the_session_strategy(self, toy_jobs):
        session = ValuationSession(backend="simulated")
        result = session.sweep(toy_jobs, [2, 4, 8])
        explicit = session.sweep(toy_jobs, [2, 4, 8], strategy="serialized_load")
        assert isinstance(result, SweepResult)
        assert result.times() == pytest.approx(explicit.times())
        assert result.ratios() == pytest.approx(explicit.ratios())
        assert result.label == "serialized_load"
        assert result.best_cpu_count() in (2, 4, 8)
        assert "Speedup" in result.format()

    def test_sweep_accepts_portfolio(self, toy_portfolio):
        result = ValuationSession().sweep(toy_portfolio, [2, 4])
        assert result.cpu_counts() == [2, 4]

    def test_sweep_with_strategy_and_label_keywords(self, toy_jobs):
        result = ValuationSession().sweep(toy_jobs, (2, 4), strategy="nfs", label="tbl")
        assert result.label == "tbl"
        assert result.cpu_counts() == [2, 4]

    @pytest.mark.parametrize("removed", ["config", "comm", "comm_factory"])
    def test_sweep_has_one_spelling(self, toy_jobs, removed):
        # the sweep-config object and the per-call comm overrides are gone:
        # the keywords and the session's comm are the one spelling
        with pytest.raises(TypeError, match=removed):
            ValuationSession().sweep(toy_jobs, [2, 4], **{removed: None})

    def test_the_comm_model_is_only_the_sessions_keyword(self):
        # as a backend option it priced run(), and sweep() / compare() dropped it
        with pytest.raises(ValuationError, match="session's comm="):
            ValuationSession("simulated", backend_options={"comm": CommunicationModel()})

    def test_compare_takes_no_comm_factory(self, toy_jobs):
        with pytest.raises(TypeError, match="comm_factory"):
            ValuationSession().compare(toy_jobs, [2, 4], comm_factory=CommunicationModel)

    def test_empty_cpu_counts_raise_scheduling_error(self, toy_jobs):
        with pytest.raises(SchedulingError):
            ValuationSession().sweep(toy_jobs, [])

    @pytest.mark.parametrize(
        ("method", "cpu_counts", "strategies", "named"),
        [
            ("sweep", [2.5], None, "2.5"),
            ("sweep", [True, 3], None, "True"),
            ("sweep", [2, 2], None, "2"),
            ("compare", [2, 2], None, "2"),
            ("compare", [2, 4], [], "strategies"),
            ("compare", [2, 4], ["nfs", "nfs"], "'nfs'"),
        ],
    )
    def test_a_cpu_count_or_strategy_list_is_checked_at_the_call(
        self, toy_jobs, method, cpu_counts, strategies, named
    ):
        # a float or a bool is no CPU count, and a table has one row per
        # CPU count and one column per strategy
        options = {} if strategies is None else {"strategies": strategies}
        call = getattr(ValuationSession(), method)
        with pytest.raises(SchedulingError, match=named):
            call(toy_jobs, cpu_counts, **options)

    def test_warm_cache_artefact_preserved(self, toy_jobs):
        session = ValuationSession()
        shared = session.sweep(toy_jobs, [2, 4], strategy="nfs", share_nfs_cache=True)
        cold = session.sweep(toy_jobs, [2, 4], strategy="nfs", share_nfs_cache=False)
        assert shared.ratios()[4] > cold.ratios()[4]


class TestNFSCacheSettingsFix:
    """``share_nfs_cache=False`` used to silently drop customised NFS models."""

    @staticmethod
    def _slow_nfs_comm() -> CommunicationModel:
        return CommunicationModel(
            nfs=NFSModel(cold_latency=50e-3, warm_latency=10e-3, bandwidth=1e6)
        )

    def test_cold_runs_keep_custom_nfs_settings(self, toy_jobs):
        default = ValuationSession().sweep(
            toy_jobs, [2, 4], strategy="nfs", share_nfs_cache=False
        )
        custom = ValuationSession(comm=self._slow_nfs_comm()).sweep(
            toy_jobs, [2, 4], strategy="nfs", share_nfs_cache=False
        )
        # the old implementation rebuilt a default CommunicationModel per CPU
        # count, so both sweeps came out identical; the slow NFS must now be
        # strictly slower at every cluster size
        for n_cpus in (2, 4):
            assert custom.times()[n_cpus] > default.times()[n_cpus] * 1.5

    @pytest.mark.parametrize("share_nfs_cache", [True, False])
    def test_compare_columns_keep_the_session_comm_settings(self, toy_jobs, share_nfs_cache):
        # compare used to give every column a default CommunicationModel:
        # a session comm is carried to every column
        session = ValuationSession(comm=self._slow_nfs_comm())
        column = session.compare(
            toy_jobs, [2, 4], strategies=["nfs"], share_nfs_cache=share_nfs_cache
        )["nfs"]
        same = session.sweep(toy_jobs, [2, 4], strategy="nfs", share_nfs_cache=False)
        assert column.times()[2] == same.times()[2]  # both start cold
        assert not session.comm.nfs.is_cached(toy_jobs[0].path)  # on a copy

    def test_cold_copy_preserves_constants_and_clears_cache(self):
        comm = self._slow_nfs_comm()
        comm.nfs.read_time("/some/file", 1024)
        assert comm.nfs.is_cached("/some/file")
        cold = comm.cold_copy()
        assert cold.nfs.cold_latency == comm.nfs.cold_latency
        assert cold.nfs.bandwidth == comm.nfs.bandwidth
        assert not cold.nfs.is_cached("/some/file")
        assert cold.network is comm.network  # stateless, shared


class TestCompare:
    def test_compare_is_one_sweep_per_strategy(self, toy_jobs):
        session = ValuationSession()
        result = session.compare(toy_jobs, [2, 4], strategies=("full_load", "nfs"))
        assert isinstance(result, ComparisonResult)
        assert set(result.strategies) == {"full_load", "nfs"}
        for name in result.strategies:
            alone = session.sweep(toy_jobs, [2, 4], strategy=name)
            assert result[name].times() == pytest.approx(alone.times())
        assert result.ok

    def test_table_layout_and_lookup(self, toy_portfolio):
        result = ValuationSession().compare(
            toy_portfolio, [2, 4], strategies=("full_load", "serialized_load")
        )
        assert "full_load" in result.format()
        with pytest.raises(ValuationError):
            result["nfs"]


class TestSessionValidation:
    def test_unknown_backend_name(self):
        with pytest.raises(ValuationError):
            ValuationSession(backend="abacus")

    def test_unknown_strategy_name(self):
        with pytest.raises(ValuationError, match="unknown strategy 'osmosis'"):
            ValuationSession(strategy="osmosis")

    def test_unknown_scheduler_name(self):
        with pytest.raises(ValuationError):
            ValuationSession(scheduler="fifo")

    def test_policy_instance_rejected_everywhere(self, toy_portfolio):
        # policies hold per-stream state and a rebuilt pool opens a second stream
        message = "pass a registered name, the policy class or a zero-argument factory"
        with pytest.raises(ValuationError, match=message):
            ValuationSession(scheduler=WorkStealingPolicy())
        session = ValuationSession(backend="simulated")
        with pytest.raises(ValuationError, match=message):
            session.run(toy_portfolio, scheduler=WorkStealingPolicy())
        with pytest.raises(ValuationError, match=message):
            session.stream(toy_portfolio, scheduler=WorkStealingPolicy())

    @pytest.mark.parametrize("start", ["run", "stream"])
    @pytest.mark.parametrize(
        ("keywords", "message"),
        [
            ({"kernel": "vectorised"}, "unknown kernel 'vectorised'"),
            ({"min_group_size": 0}, "min_group_size must be >= 1"),
            ({"min_group_size": True}, "min_group_size must be an int, got True"),
            ({"min_group_size": 1.5}, "min_group_size must be an int, got 1.5"),
            ({"strategy": "carrier_pigeon"}, "unknown strategy 'carrier_pigeon'"),
            ({"scheduler": "fifo"}, "unknown scheduler 'fifo'"),
            ({"scheduler": ChunkedPolicy()}, "scheduler= got a ChunkedPolicy instance"),
        ],
        ids=["kernel", "min_group_size", "min_group_size-bool", "min_group_size-float",
             "strategy", "scheduler-name", "scheduler-instance"],
    )
    def test_a_bad_keyword_is_refused_before_a_backend_is_built(
        self, monkeypatch, toy_portfolio, start, keywords, message
    ):
        session = ValuationSession(backend="local")
        monkeypatch.setattr(session, "_acquire_backend", None)  # never reached
        with pytest.raises(ValuationError, match=message):
            getattr(session, start)(toy_portfolio, **keywords)

    @pytest.mark.parametrize("start", ["run", "stream", "greeks", "risk"])
    def test_recovery_is_no_option_of_a_campaign(self, monkeypatch, toy_portfolio, start):
        """Every campaign recovers from a lost pool: ``retry`` is refused by
        the signature itself, before a backend is built."""
        session = ValuationSession(backend="local")
        monkeypatch.setattr(session, "_acquire_backend", None)  # never reached
        with pytest.raises(TypeError, match="retry"):
            getattr(session, start)(toy_portfolio, retry=True)

    @pytest.mark.parametrize("value", [True, False])
    def test_redialing_is_no_option_of_the_remote_backend(self, value):
        """Re-dialing is no option: ``reconnect`` is refused by the
        session's option check (nothing listens on port 1)."""
        with pytest.raises(ValuationError, match="reconnect"):
            ValuationSession(
                backend="remote",
                backend_options={"hosts": ["127.0.0.1:1"], "reconnect": value},
            )


def _stream_result(session, source, **options):
    streamed = session.stream(source, **options)
    list(streamed)  # completion order first, then the assembled result
    return streamed.result()


DRAINS = pytest.mark.parametrize("drain", [ValuationSession.run, _stream_result])


class TestOneOptionPath:
    """``run`` and ``stream`` resolve their options through one path."""

    @DRAINS
    def test_the_scheduler_keyword_is_honoured(self, drain, toy_portfolio):
        session = ValuationSession(backend="simulated")
        result = drain(session, toy_portfolio, scheduler="static_block")
        assert result.report.scheduler == "static_block"
        with pytest.raises(SchedulingError):
            drain(session, toy_portfolio, scheduler=partial(PriorityPolicy, priority=3))

    @DRAINS
    def test_a_strategy_not_given_is_the_session_strategy(self, drain, toy_portfolio):
        session = ValuationSession(backend="simulated", strategy="nfs")
        assert drain(session, toy_portfolio).strategy == "nfs"
        explicit = drain(session, toy_portfolio, strategy="full_load")  # the keyword wins
        assert explicit.strategy == "full_load"

    @pytest.mark.parametrize(
        ("spec", "name"),
        [
            ("work_stealing", "work_stealing"),
            (WorkStealingPolicy, "work_stealing"),
            (ChunkedPolicy, "chunked_robin_hood"),
        ],
    )
    def test_run_is_stream_result_for_a_per_call_scheduler(self, spec, name, toy_portfolio):
        session = ValuationSession(backend="simulated")
        ran = session.run(toy_portfolio, scheduler=spec).report
        streamed = session.stream(toy_portfolio, scheduler=spec).result().report
        assert ran == streamed
        assert ran.scheduler == name

    @DRAINS
    def test_scheduler_precedence_keyword_session(self, drain, toy_portfolio):
        session = ValuationSession(backend="simulated", scheduler="static_block")
        assert drain(session, toy_portfolio).report.scheduler == "static_block"
        keyword = drain(session, toy_portfolio, scheduler="work_stealing")
        assert keyword.report.scheduler == "work_stealing"
        plain = ValuationSession(backend="simulated")
        assert drain(plain, toy_portfolio).report.scheduler == "robin_hood"

    def test_sweep_without_a_strategy_keeps_the_session_strategy(self, toy_portfolio):
        session = ValuationSession(backend="simulated", strategy="nfs")
        assert session.sweep(toy_portfolio, (2, 4)).label == "nfs"


def _mc_family(n: int = 6) -> list[PricingProblem]:
    """``n`` Monte-Carlo calls sharing one simulation signature."""
    family = []
    for index in range(n):
        problem = PricingProblem(label=f"fam_{index}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", **BS_PARAMS)
        problem.set_option("CallEuro", strike=90.0 + 4.0 * index, maturity=1.0)
        problem.set_method("MC_European", n_paths=1_500, seed=4)
        family.append(problem)
    return family


def _book(problems: list[PricingProblem]) -> Portfolio:
    return Portfolio(
        name="family",
        positions=[Position(problem=p, category="mc", label=p.label) for p in problems],
    )


@DRAINS
def test_missing_batch_member_is_reported_not_dropped(monkeypatch, drain):
    # submit_many campaigns never coalesce, so run/stream are the batch paths
    def lossy(kind, payload):
        result, elapsed, error = execute_payload(kind, payload)
        if isinstance(result, ResultColumns):
            keep = result.ids != 3
            result = ResultColumns(
                {name: getattr(result, name)[keep] for name in (*INT_COLUMNS, *FLOAT_COLUMNS)},
                result.method_names,
            )
        return result, elapsed, error

    monkeypatch.setattr("repro.cluster.backends.local.execute_payload", lossy)
    result = drain(ValuationSession(backend="local"), _book(_mc_family(4)), batch=True)
    assert not result.ok and result.n_jobs == 4
    assert list(result.report.results) == [0, 1, 2, 3]
    assert result.report.results[3] is None
    assert result.errors == {3: "missing from batch reply"}


def _read(reader: str, session: ValuationSession, book: Portfolio) -> list[float]:
    """The prices of ``book`` read through ``reader``, in submission order."""
    problems = [position.problem for position in book.positions]
    if reader == "run":
        return list(session.run(book).prices().values())
    if reader == "stream_result":
        return list(session.stream(book).result().prices().values())
    if reader == "stream":
        landed = {result.job_id: result.price for result in session.stream(book)}
        return [landed[job_id] for job_id in sorted(landed)]
    if reader == "future_result":
        return [future.price() for future in session.submit_many(problems)]
    if reader == "as_completed":
        landed = {
            future.job_id: future.price()
            for future in session.submit_many(problems).as_completed()
        }
        return [landed[job_id] for job_id in sorted(landed)]
    assert reader == "gather"
    session.submit_many(problems)
    return list(session.gather().prices().values())


READERS = ["run", "stream_result", "stream", "future_result", "as_completed", "gather"]


def _lose_pool(monkeypatch, lost_at=(3,)) -> list:
    """Lose the pool at each of the ``lost_at`` collects; the backends collected from."""
    collects = []
    collect = SequentialBackend.collect

    def dying(self, timeout=None):
        collects.append(self)
        if len(collects) in lost_at:
            raise WorkerLostError("pool died")
        return collect(self, timeout)

    monkeypatch.setattr(SequentialBackend, "collect", dying)
    return collects


@pytest.mark.parametrize("reader", READERS)
def test_pool_loss_is_recovered_by_every_reader(monkeypatch, reader):
    """``Campaign.pump`` rebuilds the pool, so a loss met while iterating a
    stream or reading a future is survived as it is by ``run``."""
    book = _book(_mc_family(6))
    reference = list(ValuationSession(backend="local").run(book).prices().values())
    collects = _lose_pool(monkeypatch)
    assert _read(reader, ValuationSession(backend="local"), book) == reference
    assert collects[0] is not collects[-1]  # the pending futures moved to a fresh backend


def test_a_recovered_report_covers_every_pool(monkeypatch):
    """Bytes and busy time add up over the lost pool and its replacement,
    every answered position is timed once, and the wall clock spans the
    whole campaign, the wait for the new pool included."""
    book = _book(_mc_family(6))
    sent = []
    dispatch = SequentialBackend.dispatch

    def counted(self, worker_id, job, message):
        sent.append(message.nbytes)
        return dispatch(self, worker_id, job, message)

    def one_second(kind, payload):  # every position takes 1 s of (claimed) compute
        result, _elapsed, error = execute_payload(kind, payload)
        return result, 1.0, error

    _lose_pool(monkeypatch)
    monkeypatch.setattr(SequentialBackend, "dispatch", counted)
    monkeypatch.setattr("repro.cluster.backends.local.execute_payload", one_second)
    began = time.perf_counter()
    report = ValuationSession(backend="local").run(book).report
    wall = time.perf_counter() - began
    assert report.extra["retries"] == 1
    # two positions answered by the lost pool, two more lost in it and sent again
    assert len(sent) == 8 and report.bytes_sent == sum(sent)
    assert sum(report.worker_busy.values()) == 8.0
    assert report.category_times == {"mc": 6.0}
    assert REDIAL_DELAYS_S[0] <= report.total_time <= wall


def test_a_simulated_cluster_that_loses_every_worker_is_never_rebuilt(monkeypatch):
    """The simulator only advances a virtual clock: a rebuild would restart
    the remaining jobs at virtual time 0 and report a makespan that never
    happened, so its loss is the result."""
    book = build_toy_portfolio(400)
    calm = ValuationSession(backend="simulated").run(book).report.total_time
    doomed = 0.6 * calm
    session = ValuationSession(
        backend="simulated",
        backend_options={"churn": ChurnSchedule().kill(0, at=doomed).kill(1, at=doomed)},
    )
    builds = []
    acquire = session._acquire_backend
    monkeypatch.setattr(
        session, "_acquire_backend", lambda name: builds.append(name) or acquire(name))
    with pytest.raises(WorkerLostError, match="killed the whole simulated cluster"):
        session.run(book)
    assert len(builds) == 1


def _lose_pool_and_refuse_rebuilds(monkeypatch, session, lost_at, refusals):
    """Lose the pool at each of the ``lost_at`` collects; refuse the first
    ``refusals`` rebuilds with a ``ClusterError``; return the recorded sleeps."""
    builds, sleeps = [], []
    acquire = session._acquire_backend

    def flaky(strategy_name):
        builds.append(strategy_name)
        if 1 < len(builds) <= 1 + refusals:
            raise ClusterError("connection refused")
        return acquire(strategy_name)

    _lose_pool(monkeypatch, lost_at)
    monkeypatch.setattr(session, "_acquire_backend", flaky)
    monkeypatch.setattr("repro.api.campaign.time.sleep", sleeps.append)
    return sleeps


@pytest.mark.parametrize(
    ("lost_at", "refusals", "n_sleeps"),
    [((3,), 0, 1), ((3,), 4, 5), ((3, 5), 0, 2), ((3, 5), 2, 4)],
    ids=["rebuilt-at-once", "rebuilt-on-the-last-try", "lost-twice", "lost-twice-refused"],
)
def test_a_lost_pool_is_rebuilt_on_the_redial_schedule(monkeypatch, lost_at, refusals, n_sleeps):
    """A try waits the next delay of ``REDIAL_DELAYS_S`` first, and the
    campaign's pool losses share one schedule."""
    book = _book(_mc_family(6))
    reference = ValuationSession(backend="local").run(book).prices()
    session = ValuationSession(backend="local")
    sleeps = _lose_pool_and_refuse_rebuilds(monkeypatch, session, lost_at, refusals)
    result = session.run(book)
    assert sleeps == list(REDIAL_DELAYS_S[:n_sleeps])
    assert result.ok and result.report.extra["retries"] == len(lost_at)
    assert result.prices() == reference


@pytest.mark.parametrize(("lost_at", "refusals"), [((3,), 5), ((3, 5), 4)])
def test_a_spent_redial_schedule_raises_the_pool_loss(monkeypatch, lost_at, refusals):
    session = ValuationSession(backend="local")
    sleeps = _lose_pool_and_refuse_rebuilds(monkeypatch, session, lost_at, refusals)
    with pytest.raises(WorkerLostError, match="pool died"):
        session.run(_book(_mc_family(6)))
    assert sleeps == list(REDIAL_DELAYS_S)


def test_a_rebuild_keeps_the_readers_deadline(monkeypatch):
    """A reader's timeout bounds the wait for a new pool as it bounds the
    wait for a result: it raises at its deadline, and the next read goes on
    with the rest of the delay."""
    book = _book(_mc_family(6))
    reference = list(ValuationSession(backend="local").run(book).prices().values())
    session = ValuationSession(backend="local")
    _lose_pool(monkeypatch)
    monkeypatch.setattr("repro.api.campaign.REDIAL_DELAYS_S", (0.5,) * 5)
    futures = session.submit_many([position.problem for position in book.positions])
    start = time.monotonic()
    with pytest.raises(FutureTimeoutError, match="not rebuilt yet"):
        futures[-1].result(timeout=0.1)
    assert time.monotonic() - start < 0.4  # not the 0.5 s wait for the new pool
    assert [future.price() for future in futures] == reference


def test_a_new_pool_lost_as_its_stream_opens_costs_a_rebuild_try(monkeypatch):
    """A stream dispatches as it is built: a new pool lost there is
    finalized, and the next delay of the schedule is tried."""
    book = _book(_mc_family(6))
    reference = ValuationSession(backend="local").run(book).prices()
    session = ValuationSession(backend="local")
    builds, finalized, sleeps = [], [], []
    acquire = session._acquire_backend
    monkeypatch.setattr(
        session, "_acquire_backend", lambda name: builds.append(acquire(name)) or builds[-1])
    dispatch, finalize = SequentialBackend.dispatch, SequentialBackend.finalize

    def dying(self, worker_id, job, message):
        if len(builds) == 2 and self is builds[1]:
            raise WorkerLostError("lost as its stream opened")
        return dispatch(self, worker_id, job, message)

    _lose_pool(monkeypatch)
    monkeypatch.setattr(SequentialBackend, "dispatch", dying)
    monkeypatch.setattr(
        SequentialBackend, "finalize", lambda self: finalized.append(self) or finalize(self))
    monkeypatch.setattr("repro.api.campaign.time.sleep", sleeps.append)
    result = session.run(book)
    assert result.ok and result.prices() == reference
    assert len(builds) == 3 and builds[1] in finalized
    assert sleeps == list(REDIAL_DELAYS_S[:2])


def _failing_call() -> PricingProblem:
    from repro.pricing.engine import register_product
    from repro.pricing.products.vanilla import EuropeanCall

    class FailingMatrixCall(EuropeanCall):
        option_name = "FailingMatrixCallTest"

        def terminal_payoff(self, spot):
            raise ArithmeticError("payoff exploded")

    register_product(FailingMatrixCall)
    problem = _mc_family(1)[0]
    problem.label = "bad"
    problem.set_option(FailingMatrixCall(strike=100.0, maturity=1.0))
    return problem


class TestFuturesAndReportCannotDisagree:
    """A future is a view of the table row the report reads."""

    #: scenario -> the drive modes that can express it
    SCENARIOS = {
        "plain": ("run", "stream", "submit_many"),
        "batch": ("run", "stream"),
        "half_cached": ("run", "stream", "submit_many"),
        "cancel_token": ("run", "stream"),
        "future_cancel": ("stream", "submit_many"),
        "failing_member": ("run", "stream", "submit_many"),
    }

    @staticmethod
    def _drive(mode, backend, scenario):
        """One campaign of ``scenario`` through ``mode``: (result, futures or None)."""
        problems = _mc_family(6)
        if scenario == "failing_member":
            problems.append(_failing_call())
        cache = None
        if scenario == "half_cached":
            cache = ResultCache()
            ValuationSession(backend="local", cache=cache).run(_book(problems[::2]))
        session = ValuationSession(backend=backend, n_workers=2, cache=cache)
        if mode == "submit_many":
            futures = session.submit_many(problems)
            if scenario == "future_cancel":
                # one collected event starts the campaign; the tail is still queued
                futures.wait(return_when=FIRST_COMPLETED)
                assert futures[-1].cancel()
            return session.gather(), futures
        options = {"batch": scenario in ("batch", "failing_member")}
        if scenario == "cancel_token":
            token = CancelToken()
            options.update(cancel=token, progress=lambda tick: token.cancel())
        if mode == "run":
            return session.run(_book(problems), **options), None
        streamed = session.stream(_book(problems), **options)
        if scenario == "future_cancel":
            assert streamed.jobs[-1].cancel()
        list(streamed)
        return streamed.result(), streamed.jobs

    @pytest.mark.parametrize("backend", ["local", "multiprocessing"])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_position_agrees(self, scenario, backend):
        reports = {}
        for mode in self.SCENARIOS[scenario]:
            result, futures = self._drive(mode, backend, scenario)
            report = reports[mode] = result.report
            n_positions = 7 if scenario == "failing_member" else 6
            assert report.n_jobs == n_positions
            assert list(report.results) == list(range(n_positions))
            assert list(report.errors) == sorted(report.errors)
            for future in futures or ():
                held = "cancelled before dispatch" if future.cancelled() else future.error()
                assert report.errors.get(future.job_id) == held
                if held is None:
                    assert report.results[future.job_id] == future.result()
                else:
                    assert report.results[future.job_id] is None
        if scenario == "future_cancel":
            assert reports["stream"].errors == {5: "cancelled before dispatch"}
        elif scenario == "cancel_token":
            assert len(reports["run"].errors) == 3  # initial wave + one refill ran
        elif scenario == "failing_member":
            assert reports["run"].errors == {6: "ArithmeticError: payoff exploded"}
        else:
            assert not reports["run"].errors
        first, *others = reports.values()
        for other in others:  # result entries carry wall-clock fields: compare the prices
            assert other.prices() == first.prices()
            assert other.errors == first.errors

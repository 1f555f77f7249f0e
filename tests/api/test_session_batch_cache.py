"""Session-level tests of batch pricing and result caching."""

from __future__ import annotations

import pytest

from repro.api import CancelToken, ResultCache, ValuationSession
from repro.cli import build_parser
from repro.core import build_realistic_portfolio
from repro.core.portfolio import Portfolio, Position, build_toy_portfolio
from repro.errors import ValuationError
from repro.pricing import PricingProblem, problem_digest
# at import, before the module-scoped loopback pool forks its workers: the
# import registers the book's test model, which the workers must know
from tests.oracles.books import mixed_book


def _mc_family(n: int = 6, n_paths: int = 1_500) -> Portfolio:
    portfolio = Portfolio(name="family")
    for index in range(n):
        problem = PricingProblem(label=f"fam_{index}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
        problem.set_option("CallEuro", strike=90.0 + 4.0 * index, maturity=1.0)
        problem.set_method("MC_European", n_paths=n_paths, seed=4)
        portfolio.add(Position(problem=problem, category="mc", label=problem.label))
    return portfolio


@pytest.fixture
def mixed_portfolio() -> Portfolio:
    return build_realistic_portfolio(profile="fast", scale=0.005)


class TestBatchRuns:
    def test_batched_run_matches_unbatched(self, mixed_portfolio):
        plain = ValuationSession(backend="local").run(mixed_portfolio)
        batched = ValuationSession(backend="local").run(mixed_portfolio, batch=True)
        assert plain.ok and batched.ok
        assert batched.n_jobs == plain.n_jobs == len(mixed_portfolio)
        assert batched.prices() == plain.prices()
        assert batched.value() == plain.value()

    def test_the_batch_keyword_prices_a_job_list(self):
        family = _mc_family(4)
        result = ValuationSession(backend="local").run(family, batch=True)
        plain = ValuationSession(backend="local").run(family)
        assert result.prices() == plain.prices()

    def test_simulated_backend_is_batch_aware(self):
        # the simulated cluster prices a ProblemBatch job as one shared
        # simulation plus per-member payoff sweeps, so batching shortens the
        # simulated makespan without changing the position count
        family = _mc_family(8)
        plain = ValuationSession(backend="simulated", n_workers=2).run(family)
        batched = ValuationSession(backend="simulated", n_workers=2).run(
            family, batch=True
        )
        assert batched.n_jobs == plain.n_jobs == len(family)
        assert batched.total_time < plain.total_time

    def test_simulated_sweep_with_batching_is_faster(self):
        family = _mc_family(12)
        session = ValuationSession(backend="simulated")
        plain = session.sweep(family, [2, 4])
        batched = session.sweep(family, [2, 4], batch=True)
        assert all(
            batched.times()[n] < plain.times()[n] for n in (2, 4)
        )

    def test_batch_rejects_nfs_strategy(self, mixed_portfolio):
        session = ValuationSession(backend="local", strategy="nfs")
        with pytest.raises(ValuationError, match="nfs"):
            session.run(mixed_portfolio, batch=True)

    @pytest.mark.parametrize("backend", ["multiprocessing", "local"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_nfs_without_a_store_is_refused_before_anything_is_dispatched(
        self, mixed_portfolio, backend, batch
    ):
        """A portfolio without a store names no file: ``nfs`` used to "succeed"
        with one worker-side ``cannot read problem file`` error per position.
        Whichever check refuses the run, its worker processes are stopped."""
        import multiprocessing

        session = ValuationSession(backend=backend, n_workers=2, strategy="nfs")
        with pytest.raises(ValuationError, match="nfs" if batch else "store="):
            session.run(mixed_portfolio, batch=batch)
        assert not multiprocessing.active_children()
        assert all(not position.problem.has_result for position in mixed_portfolio)

    @pytest.mark.parametrize("backend", ["local", "multiprocessing", "remote"])
    def test_a_refused_run_leaves_the_session_usable(self, mixed_portfolio, request, backend):
        """The refused plan stops the backend built for it; the next run
        builds a fresh one (over the same worker pool, for remote)."""
        options = None
        if backend == "remote":
            options = {"hosts": request.getfixturevalue("loopback_pool").hosts}
        session = ValuationSession(
            backend=backend, n_workers=2, strategy="nfs", backend_options=options
        )
        with pytest.raises(ValuationError, match="store="):
            session.run(mixed_portfolio)
        report = session.run(mixed_portfolio, strategy="serialized_load")
        local = ValuationSession(backend="local").run(mixed_portfolio)
        assert report.ok and report.prices() == local.prices()

    def test_batched_run_isolates_member_errors(self):
        import numpy as np

        from repro.pricing.engine import register_product
        from repro.pricing.products.vanilla import EuropeanCall

        class ExplodingSessionCall(EuropeanCall):
            option_name = "ExplodingSessionCallTest"

            def terminal_payoff(self, spot):
                return np.full(np.shape(spot)[0], np.inf)

        register_product(ExplodingSessionCall)
        family = _mc_family(4)
        bad = PricingProblem(label="bad")
        bad.set_asset("equity")
        bad.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
        bad.set_option(ExplodingSessionCall(strike=100.0, maturity=1.0))
        bad.set_method("MC_European", n_paths=1_500, seed=4)
        family.add(Position(problem=bad, category="mc", label="bad"))

        result = ValuationSession(backend="local").run(family, batch=True)
        plain = ValuationSession(backend="local").run(family.subset(4))
        assert result.n_errors == 1
        bad_id = len(family) - 1
        assert bad_id in result.errors
        assert result.prices() == plain.prices()  # healthy members unharmed

    def test_batched_multiprocessing_matches_local(self):
        family = _mc_family(5, n_paths=800)
        local = ValuationSession(backend="local").run(family, batch=True)
        remote = ValuationSession(backend="multiprocessing", n_workers=2).run(
            family, batch=True
        )
        assert remote.ok
        assert remote.prices() == local.prices()


class TestSessionCache:
    def test_second_run_is_all_hits(self):
        family = _mc_family(4)
        session = ValuationSession(backend="local", cache=True)
        first = session.run(family)
        second = session.run(family)
        assert second.prices() == first.prices()
        assert second.n_jobs == len(family)
        assert session.cache.stats.hits == len(family)
        hits = [
            entry for entry in second.report.results.values()
            if entry is not None and entry.get("cache_hit")
        ]
        assert len(hits) == len(family)
        assert second.report.scheduler == "cache"

    def test_cache_and_batch_compose(self):
        family = _mc_family(4)
        session = ValuationSession(backend="local", cache=True)
        first = session.run(family, batch=True)
        second = session.run(family, batch=True)
        assert second.prices() == first.prices()
        assert session.cache.stats.hit_rate == pytest.approx(0.5)

    def test_price_uses_the_cache(self):
        session = ValuationSession(backend="local", cache=True)
        kwargs = dict(
            model="BlackScholes1D", option="CallEuro", method="MC_European",
            model_params={"spot": 100.0, "rate": 0.05, "volatility": 0.2},
            option_params={"strike": 100.0, "maturity": 1.0},
            method_params={"n_paths": 1_000, "seed": 1},
        )
        first = session.price(**kwargs)
        second = session.price(**kwargs)
        assert second.price == first.price
        assert session.cache.stats.hits == 1
        assert session.cache.stats.puts == 1

    @pytest.mark.parametrize("store", ["memory", "disk"])
    def test_a_run_without_the_cache_is_a_session_without_it(self, tmp_path, store):
        """No per-run override: ``with_options(cache=None)`` neither reads nor
        feeds the session's cache, in memory or on disk."""
        family = _mc_family(3)
        session = ValuationSession(
            backend="local", cache=True if store == "memory" else tmp_path
        )
        warm = session.run(family)
        bypassed = session.with_options(cache=None).run(family)
        assert bypassed.ok and bypassed.prices() == warm.prices()
        assert session.cache.stats.hits == 0 and session.cache.stats.puts == len(family)
        assert not any(
            entry.get("cache_hit")
            for entry in bypassed.report.results.values()
            if entry is not None
        )

    def test_a_half_warm_cache_sends_a_batch_only_its_missing_members(self):
        """``batch=True`` plans its families after the cache pass: the one
        :class:`ProblemBatch` carries the members the cache does not hold,
        and their prices do not move."""
        from repro.pricing.batch import ProblemBatch

        family = _mc_family(6)
        session = ValuationSession(backend="local", cache=True)
        assert session.run(family.subset(3), batch=True).ok  # members 0, 1, 2
        campaign = session._open_campaign(family, batch=True)
        (job,) = campaign.plan.jobs
        assert isinstance(job.problem, ProblemBatch)
        assert campaign.plan.batch_members[job.job_id] == (3, 4, 5)
        result = campaign.finish()
        assert result.prices() == ValuationSession(backend="local").run(family).prices()
        hits = [job_id for job_id, entry in result.report.results.items()
                if entry.get("cache_hit")]
        assert hits == [0, 1, 2]

    def test_disk_cache_shared_across_sessions(self, tmp_path):
        family = _mc_family(3)
        first = ValuationSession(backend="local", cache=tmp_path)
        warm = first.run(family)
        second = ValuationSession(backend="local", cache=tmp_path)
        replay = second.run(family)
        assert replay.prices() == warm.prices()
        assert second.cache.stats.disk_hits == len(family)

    @pytest.mark.parametrize(
        "garbage", ['{"price": NaN}', '{"price": 1.0, "n_evaluations": "many"}'],
        ids=["nan-price", "bad-field"],
    )
    def test_a_corrupt_entry_is_priced_again_not_a_failed_run(self, tmp_path, garbage):
        """An entry that does not rebuild a finite result used to fail its
        position (NaN) or raise out of ``run`` (a field of the wrong type)."""
        family = _mc_family(3)
        cold = ValuationSession(backend="local", cache=tmp_path).run(family)
        next(tmp_path.glob("*.json")).write_text(garbage)
        session = ValuationSession(backend="local", cache=tmp_path)
        warm = session.run(family)
        assert warm.ok and warm.prices() == cold.prices()
        assert session.cache.stats.corrupt == 1

    def test_with_options_carries_the_cache(self):
        session = ValuationSession(backend="local", cache=True)
        derived = session.with_options(strategy="full_load")
        assert derived.cache is session.cache

    def test_invalid_cache_option_rejected(self):
        with pytest.raises(ValuationError):
            ValuationSession(backend="local", cache=123)

    def test_cache_accepts_instance(self):
        cache = ResultCache(max_entries=8)
        session = ValuationSession(backend="local", cache=cache)
        assert session.cache is cache


class TestRiskCampaignCache:
    """A risk campaign's cells live in the run cache under the digests a plain
    run of the same problems uses -- derived on the master without building
    them."""

    RETURNS = [0.01, -0.02, 0.004, -0.013, 0.007, -0.03]

    @pytest.fixture
    def dispatched(self, monkeypatch) -> list[list[int]]:
        """Per campaign: how many cells each dispatched job carries."""
        from repro.api.plan import build_plan

        seen: list[list[int]] = []

        def spy(*args, **kwargs):
            plan = build_plan(*args, **kwargs)
            seen.append([len(plan.batch_members.get(job.job_id, (1,))) for job in plan.jobs])
            return plan

        monkeypatch.setattr("repro.api.session.build_plan", spy)
        return seen

    @pytest.mark.parametrize("backend", ["local", "multiprocessing"])
    def test_second_campaign_dispatches_nothing(self, backend, dispatched):
        session = ValuationSession(backend=backend, n_workers=2, cache=True)
        first = session.risk(mixed_book(), spot_returns=self.RETURNS, confidence=0.75)
        second = session.risk(mixed_book(), spot_returns=self.RETURNS, confidence=0.75)
        assert second == first
        n_cells = 4 * (len(self.RETURNS) + 1)
        assert sum(dispatched[0]) == n_cells and dispatched[1] == []
        assert session.cache.stats.puts == n_cells
        assert session.cache.stats.hits == n_cells

    def test_half_warm_cache_dispatches_only_the_missing_cells(self, dispatched):
        from repro.core.risk import historical_var

        session = ValuationSession(backend="local", cache=True)
        session.risk(mixed_book(), spot_returns=self.RETURNS[:3], confidence=0.75)
        summary = session.risk(mixed_book(), spot_returns=self.RETURNS, confidence=0.75)
        assert summary == historical_var(mixed_book(), self.RETURNS, confidence=0.75)
        # base + 3 returns were priced before: 3 new scenarios x 4 positions
        assert sum(dispatched[0]) == 4 * 4 and sum(dispatched[1]) == 4 * 3

    def test_a_cell_priced_by_risk_is_a_hit_for_run_and_vice_versa(self, dispatched):
        from repro.pricing.scenarios import expand_scenarios, historical_scenarios

        session = ValuationSession(backend="local", cache=True)
        summary = session.risk(mixed_book(), spot_returns=self.RETURNS, confidence=0.75)
        cells, _ = expand_scenarios(
            [position.problem for position in mixed_book()],
            historical_scenarios(self.RETURNS), on_missing="base",
        )
        book = Portfolio(name="cells", positions=[Position(problem=p) for p in cells])
        replay = session.run(book)
        assert dispatched[1] == [] and replay.report.scheduler == "cache"
        assert all(entry["cache_hit"] for entry in replay.report.results.values())

        other = ValuationSession(backend="local", cache=True)
        other.run(book)
        assert other.risk(mixed_book(), spot_returns=self.RETURNS, confidence=0.75) == summary
        assert dispatched[3] == []


def _base_book() -> Portfolio:
    """Closed forms and a Monte-Carlo family: twenty distinct digests."""
    return Portfolio(name="base", positions=[
        *build_toy_portfolio(16).positions, *mixed_book().positions])


def _twice(layout: str) -> Portfolio:
    """Every position of :func:`_base_book` twice: in a row, or a book apart."""
    first, second = _base_book().positions, _base_book().positions
    if layout == "adjacent":
        positions = [position for pair in zip(first, second) for position in pair]
    else:
        positions = [*first, *second]
    return Portfolio(name=f"twice_{layout}", positions=positions)


@pytest.fixture(scope="module")
def loopback_pool():
    from repro.cluster.worker import spawn_local_workers

    with spawn_local_workers(2) as pool:
        yield pool


@pytest.fixture(scope="module")
def uncached() -> dict[str, dict[int, float]]:
    return {layout: ValuationSession(backend="local").run(_twice(layout)).prices()
            for layout in ("adjacent", "far")}


class TestRepeatsArePricedOnce:
    """With a run cache, the cache pass sends the first position of each
    digest it misses and copies the row it settles to the later ones."""

    @staticmethod
    def _session(backend: str, pool, cache) -> ValuationSession:
        if backend == "remote":
            return ValuationSession(
                backend="remote", backend_options={"hosts": pool.hosts}, cache=cache
            )
        return ValuationSession(backend=backend, n_workers=2, cache=cache)

    @pytest.mark.parametrize("store", ["memory", "disk"])
    @pytest.mark.parametrize("layout", ["adjacent", "far"])
    @pytest.mark.parametrize("mode", ["robin_hood", "chunked_robin_hood", "priority", "batch"])
    @pytest.mark.parametrize("backend", ["local", "multiprocessing", "remote"])
    def test_each_digest_is_dispatched_once(
        self, backend, mode, layout, store, loopback_pool, uncached, tmp_path
    ):
        book = _twice(layout)
        digests = [problem_digest(position.problem) for position in book]
        leaders = sorted({digest: job_id for job_id, digest in reversed(list(
            enumerate(digests)))}.values())
        assert len(leaders) == 20 and len(book) == 40
        cache = ResultCache(directory=tmp_path if store == "disk" else None)
        session = self._session(backend, loopback_pool, cache)
        if mode == "batch":
            campaign = session._open_campaign(book, batch=True)
        else:
            campaign = session._open_campaign(book, scheduler=mode)
        plan = campaign.plan
        sent = [member for job in plan.jobs
                for member in plan.batch_members.get(job.job_id, (job.job_id,))]
        assert sorted(sent) == leaders
        result = campaign.finish()
        assert result.ok and result.prices() == uncached[layout]
        assert cache.stats.puts == len(leaders) == len(cache)
        hits = [job_id for job_id, entry in result.report.results.items()
                if entry.get("cache_hit")]
        assert hits == sorted(set(range(len(book))) - set(leaders))

    @pytest.mark.parametrize("backend", ["local", "multiprocessing"])
    def test_stream_yields_every_position_once(self, backend, uncached):
        session = ValuationSession(backend=backend, n_workers=2, cache=True)
        streamed = session.stream(_twice("adjacent"))
        seen = [price.job_id for price in streamed]
        assert sorted(seen) == list(range(40))
        result = streamed.result()
        assert result.prices() == uncached["adjacent"]
        assert {price.job_id: price.price for price in session.stream(_twice("adjacent"))} \
            == uncached["adjacent"]  # a warm rerun: every position a cache hit

    @pytest.mark.parametrize("backend", ["local", "multiprocessing"])
    def test_a_failing_leader_fails_its_repeats(self, backend):
        from repro.pricing.engine import register_product
        from repro.pricing.products.vanilla import EuropeanCall

        class FailingRepeatedCall(EuropeanCall):
            option_name = "FailingRepeatedCallTest"

            def terminal_payoff(self, spot):
                raise ArithmeticError("payoff exploded")

        register_product(FailingRepeatedCall)
        positions = []
        for _ in range(3):
            bad = _mc_family(1).positions[0].problem
            bad.set_option(FailingRepeatedCall(strike=100.0, maturity=1.0))
            positions += [Position(problem=bad), *_mc_family(2).positions]
        book = Portfolio(name="poisoned", positions=positions)
        session = ValuationSession(backend=backend, n_workers=2, cache=True)
        result = session.run(book)
        assert sorted(result.errors) == [0, 3, 6]
        assert len(set(result.errors.values())) == 1
        assert "payoff exploded" in result.errors[0]
        assert session.cache.stats.puts == 2  # the two healthy digests

    def test_a_cancel_token_cancels_the_repeats_with_their_leader(self):
        token = CancelToken()
        token.cancel()
        book = _twice("adjacent")
        session = ValuationSession(backend="local", n_workers=2, cache=True)
        result = session.run(book, cancel=token)
        table = result.report.results
        # the first wave (leaders 0 and 2) had left; everything after is withdrawn
        assert sorted(result.prices()) == [0, 1, 2, 3]
        assert sorted(result.errors) == list(range(4, 40))
        assert set(result.errors.values()) == {"cancelled before dispatch"}
        assert (table.status[4:] == table.CANCELLED).all()

    def test_cancel_job_takes_a_leader_and_its_repeats_not_a_repeat(self):
        session = ValuationSession(backend="local", n_workers=1, cache=True)
        campaign = session._open_campaign(_twice("adjacent"), scheduler="priority")
        leader, repeat = 38, 39
        fired = []
        campaign.future(repeat).add_done_callback(fired.append)
        assert campaign.cancel_job(repeat) is False
        assert campaign.cancel_job(leader) is True
        assert campaign.future(repeat).cancelled() and fired == [campaign.future(repeat)]
        result = campaign.finish()
        assert sorted(result.errors) == [leader, repeat]
        assert len(result.prices()) == 38

    def test_a_lost_pool_leaves_what_was_collected_in_the_run_cache(self, monkeypatch):
        """The pool is lost for good: every try to rebuild it is refused."""
        from repro.cluster.backends import SequentialBackend
        from repro.errors import ClusterError, WorkerLostError

        collects = []
        collect = SequentialBackend.collect

        def dying(self, timeout=None):
            collects.append(self)
            if len(collects) == 3:
                raise WorkerLostError("pool died")
            return collect(self, timeout)

        family = _mc_family(6)
        cache = ResultCache()
        session = ValuationSession(backend="local", cache=cache)
        builds, acquire = [], session._acquire_backend

        def refused(strategy_name):
            builds.append(strategy_name)
            if len(builds) > 1:
                raise ClusterError("connection refused")
            return acquire(strategy_name)

        monkeypatch.setattr(SequentialBackend, "collect", dying)
        monkeypatch.setattr(session, "_acquire_backend", refused)
        monkeypatch.setattr("repro.api.campaign.time.sleep", lambda _delay: None)
        with pytest.raises(WorkerLostError):
            session.run(family)
        assert len(builds) == 6  # the pool, then five refused tries
        collected = [problem_digest(position.problem) for position in family.positions[:2]]
        assert cache.stats.puts == 2 and all(digest in cache for digest in collected)


class TestCliFlags:
    def test_run_parser_accepts_batch_and_cache(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--positions", "8", "--batch", "--cache", "--repeat", "2"]
        )
        assert args.batch is True
        assert args.cache is True
        assert args.repeat == 2

        args = parser.parse_args(["run", "--no-batch", "--cache-dir", "/tmp/c"])
        assert args.batch is False
        assert args.cache_dir == "/tmp/c"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.batch is False
        assert args.cache is False
        assert args.cache_dir is None

"""Unit tests of the streaming job lifecycle: futures, job sets, cancellation.

The contract under test: ``submit_many`` returns real futures that resolve
incrementally (never through a full-batch gather), duplicates share one
future, ``as_completed``/``wait`` follow their ``concurrent.futures``
namesakes, and cancellation/timeout surface as typed, retryable errors.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ALL_COMPLETED,
    FIRST_COMPLETED,
    CancelToken,
    JobSet,
    PricingFuture,
    ValuationSession,
)
from repro.errors import (
    FutureTimeoutError,
    JobCancelledError,
    ValuationError,
)
from repro.pricing import PricingProblem


def _call_problem(strike: float, label: str | None = None) -> PricingProblem:
    problem = PricingProblem(label=label or f"K{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _slow_problem(label: str = "slow") -> PricingProblem:
    problem = PricingProblem(label=label)
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=100.0, maturity=1.0)
    problem.set_method("MC_European", n_paths=2_000_000, seed=7)
    return problem


class TestPricingFuture:
    def test_done_callbacks_fire_on_resolution(self):
        session = ValuationSession(backend="local")
        (future,) = session.submit_many([_call_problem(100.0)])
        seen: list[PricingFuture] = []
        future.add_done_callback(seen.append)
        assert not seen
        future.result()
        assert seen == [future]
        # late registration fires immediately
        late: list[PricingFuture] = []
        future.add_done_callback(late.append)
        assert late == [future]

    def test_exception_returns_worker_failure(self):
        session = ValuationSession(backend="local")
        bad = PricingProblem(label="bad")
        bad.set_asset("equity")
        bad.set_model("Heston1D", spot=100.0, rate=0.03, v0=0.04, kappa=2.0,
                      theta=0.04, sigma_v=0.4, rho=-0.7)
        bad.set_option("CallEuro", strike=100.0, maturity=1.0)
        bad.set_method("CF_Call")  # closed-form BS formula cannot price Heston
        good, failed = session.submit_many([_call_problem(100.0), bad])
        assert good.exception() is None
        exc = failed.exception()
        assert isinstance(exc, ValuationError)
        assert "IncompatibleMethodError" in str(exc)

    def test_cancel_before_campaign_start(self):
        session = ValuationSession(backend="local")
        first, second = session.submit_many([_call_problem(90.0), _call_problem(110.0)])
        assert second.cancel()
        assert second.cancelled() and second.done()
        with pytest.raises(JobCancelledError):
            second.result()
        assert second.error() == "cancelled"
        # the uncancelled future still prices; the campaign skipped job 2
        assert first.price() > 0
        assert session.gather  # session stays usable

    def test_cancel_after_resolution_is_refused(self):
        session = ValuationSession(backend="local")
        (future,) = session.submit_many([_call_problem(100.0)])
        future.result()
        assert not future.cancel()
        assert not future.cancelled()

    def test_running_reflects_attachment(self):
        session = ValuationSession(backend="simulated")
        jobs = session.submit_many([_call_problem(95.0), _call_problem(105.0)])
        assert not jobs[0].running()
        jobs[0].result()  # starts the campaign
        assert jobs[0].done()


class TestSubmitManyDedup:
    def test_duplicate_problems_share_one_future(self):
        session = ValuationSession(backend="local")
        problem = _call_problem(100.0, label="dup")
        twin = _call_problem(100.0, label="dup")  # equal digest, new object
        futures = session.submit_many([problem, twin, problem])
        assert len(futures) == 3
        assert futures[0] is futures[1] is futures[2]
        assert session.n_pending == 1  # deduplicated before job building
        result = session.gather()
        assert result.n_jobs == 1  # the problem was priced exactly once
        assert futures.prices() == [futures[0].price()] * 3

    def test_different_problems_do_not_collide(self):
        session = ValuationSession(backend="local")
        futures = session.submit_many([_call_problem(90.0), _call_problem(110.0)])
        assert futures[0] is not futures[1]
        assert session.n_pending == 2

    def test_dedup_spans_successive_submit_calls(self):
        session = ValuationSession(backend="local")
        (first,) = session.submit_many([_call_problem(100.0)])
        (second,) = session.submit_many([_call_problem(100.0)])
        assert first is second


class TestJobSet:
    def test_as_completed_yields_each_future_once(self):
        session = ValuationSession(backend="local")
        futures = session.submit_many(
            [_call_problem(k) for k in (80.0, 90.0, 100.0, 110.0)]
        )
        collected = list(futures.as_completed())
        assert sorted(f.job_id for f in collected) == [f.job_id for f in futures]
        assert all(f.done() for f in collected)

    def test_streaming_reads_each_future_a_bounded_number_of_times(self, monkeypatch):
        # a pump checks only the futures it settled: iterating a stream that
        # sends positions one by one stays linear in the book's size
        from repro.core.portfolio import build_toy_portfolio

        reads = 0
        status = PricingFuture._status

        def counted(future):
            nonlocal reads
            reads += 1
            return status(future)

        monkeypatch.setattr(PricingFuture, "_status", counted)
        n = 1000
        streamed = ValuationSession(backend="local").stream(build_toy_portfolio(n_options=n))
        assert sum(1 for _ in streamed) == n
        assert reads <= 5 * n

    def test_a_future_cancelled_mid_iteration_is_yielded_once(self):
        session = ValuationSession(backend="local", n_workers=1)
        futures = session.submit_many([_call_problem(k) for k in (80.0, 90.0, 100.0, 110.0)])
        collected = []
        for future in futures.as_completed():
            if not collected:
                assert futures[3].cancel()  # still queued master-side
            collected.append(future)
        assert sorted(f.job_id for f in collected) == [f.job_id for f in futures]
        assert futures[3].cancelled()

    def test_leaving_as_completed_early_leaves_no_callback_behind(self):
        session = ValuationSession(backend="local", n_workers=1)
        futures = session.submit_many([_call_problem(k) for k in (90.0, 100.0, 110.0)])
        done, not_done = futures.wait(return_when=FIRST_COMPLETED)
        assert done and not_done
        assert not any(future._callbacks for future in futures)

    def test_wait_all_completed(self):
        session = ValuationSession(backend="local")
        futures = session.submit_many([_call_problem(k) for k in (90.0, 110.0)])
        done, not_done = futures.wait(return_when=ALL_COMPLETED)
        assert len(done) == 2 and not not_done

    def test_wait_first_completed(self):
        session = ValuationSession(backend="simulated", n_workers=1)
        futures = session.submit_many([_call_problem(k) for k in (90.0, 100.0, 110.0)])
        done, not_done = futures.wait(return_when=FIRST_COMPLETED)
        assert len(done) >= 1
        assert len(done) + len(not_done) == 3

    def test_wait_rejects_unknown_policy(self):
        jobset = JobSet([])
        with pytest.raises(ValuationError, match="return_when"):
            jobset.wait(return_when="WHENEVER")

    def test_slicing_returns_jobset(self):
        session = ValuationSession(backend="local")
        futures = session.submit_many([_call_problem(k) for k in (90.0, 100.0, 110.0)])
        head = futures[:2]
        assert isinstance(head, JobSet)
        assert len(head) == 2

    def test_cancel_all_pending(self):
        session = ValuationSession(backend="local")
        futures = session.submit_many([_call_problem(k) for k in (90.0, 110.0)])
        assert futures.cancel() == 2
        assert all(f.cancelled() for f in futures)


class TestTimeouts:
    @pytest.mark.slow
    def test_result_timeout_is_retryable(self):
        session = ValuationSession(backend="multiprocessing", n_workers=1)
        (future,) = session.submit_many([_slow_problem()])
        with pytest.raises(FutureTimeoutError):
            future.result(timeout=1e-4)
        assert not future.done()  # the job is still running, nothing was lost
        result = future.result()  # blocking retry succeeds
        assert result is not None and result["price"] > 0
        session.gather()  # finalize the backend (stops the worker process)

    def test_as_completed_timeout_raises(self):
        session = ValuationSession(backend="multiprocessing", n_workers=1)
        futures = session.submit_many([_slow_problem("slow_a"), _slow_problem("slow_b")])
        with pytest.raises(FutureTimeoutError):
            list(futures.as_completed(timeout=1e-4))
        futures.wait()  # drain so the campaign can be finalized cleanly
        session.gather()


class TestCampaignLifecycle:
    def test_draining_futures_finalizes_the_backend(self):
        # a campaign fully drained through futures alone must stop its
        # workers -- nothing may wait for an explicit gather()/result()
        session = ValuationSession(backend="multiprocessing", n_workers=2)
        futures = session.submit_many([_call_problem(90.0), _call_problem(110.0)])
        futures.prices()
        campaign = session._campaigns[-1]
        assert campaign.finished
        backend = campaign._stream.backend
        assert all(not process.is_alive() for process in backend._processes)

    def test_fully_iterated_stream_finalizes_the_backend(self):
        from repro.core.portfolio import build_toy_portfolio

        session = ValuationSession(backend="multiprocessing", n_workers=2)
        streamed = session.stream(build_toy_portfolio(n_options=6))
        collected = list(streamed)
        assert len(collected) == 6
        backend = streamed._campaign._stream.backend
        assert all(not process.is_alive() for process in backend._processes)
        assert streamed.result().n_jobs == 6  # result still assembles

    def test_submit_many_works_with_static_scheduler(self):
        # static-block campaigns flow through the same streaming pipeline
        # as robin hood: futures resolve as the pre-partitioned jobs answer
        session = ValuationSession(backend="local", scheduler="static_block")
        futures = session.submit_many([_call_problem(90.0), _call_problem(110.0)])
        assert futures[0].price() > futures[1].price()
        assert all(f.done() for f in futures)
        assert session.gather().n_jobs == 2

    def test_gathering_an_all_cancelled_queue_raises_cleanly(self):
        session = ValuationSession(backend="local")
        (future,) = session.submit_many([_call_problem(100.0)])
        future.cancel()
        with pytest.raises(ValuationError, match="cancelled"):
            session.gather()
        assert session.n_pending == 0  # the queue is not stranded
        (retry,) = session.submit_many([_call_problem(95.0)])
        assert retry.price() > 0  # the session stays usable


class TestCancelToken:
    def test_token_cancels_queued_positions(self):
        from repro.core.portfolio import build_toy_portfolio

        portfolio = build_toy_portfolio(n_options=24)
        token = CancelToken()
        seen: list[int] = []

        def progress(tick):
            seen.append(tick.done)
            if tick.done >= 4:
                token.cancel()

        session = ValuationSession(backend="local", n_workers=2)
        result = session.run(portfolio, progress=progress, cancel=token)
        cancelled = [
            job_id for job_id, message in result.errors.items()
            if "cancelled" in message
        ]
        assert cancelled, "some queued positions should have been withdrawn"
        assert not result.ok
        # collected positions are real prices, identical to a plain run
        reference = ValuationSession(backend="local", n_workers=2).run(portfolio)
        for job_id, price in result.prices().items():
            assert price == reference.prices()[job_id]

    def test_token_before_start_cancels_everything_queued(self):
        from repro.core.portfolio import build_toy_portfolio

        portfolio = build_toy_portfolio(n_options=8)
        token = CancelToken()
        token.cancel()
        session = ValuationSession(backend="local", n_workers=2)
        result = session.run(portfolio, cancel=token)
        # the initial wave (one job per worker) is already on the workers;
        # everything still queued master-side is withdrawn
        assert len(result.errors) == len(portfolio) - 2

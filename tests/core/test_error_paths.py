"""Error-path coverage: worker failures, partial completion, method listings.

The happy paths are covered all over the suite; these tests pin down what
happens when a problem fails on a worker (the error must land in
``RunReport.errors`` without sinking the run), when a scheduler loses jobs
(``SchedulingError``), and what :func:`compatible_methods` advertises for
representative (model, product) pairs of each method family.
"""

from __future__ import annotations

import pytest

from repro.api import ValuationSession
from repro.cluster.backends import Job, SequentialBackend
from repro.core.runner import RunReport
from repro.core.scheduler import ScheduleOutcome, ScheduleStream
from repro.cluster.backends.base import BackendStats
from repro.errors import SchedulingError, ValuationError
from repro.pricing import (
    BlackScholesModel,
    EuropeanCall,
    HestonModel,
    PricingProblem,
    compatible_methods,
)


def _good_problem() -> PricingProblem:
    problem = PricingProblem(label="good")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=100.0, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _failing_problem() -> PricingProblem:
    """Builds fine, fails at compute(): a closed-form call under Heston."""
    problem = PricingProblem(label="bad")
    problem.set_asset("equity")
    problem.set_model(
        "Heston1D",
        spot=100.0, rate=0.03, v0=0.04, kappa=2.0, theta=0.04, sigma_v=0.4, rho=-0.7,
    )
    problem.set_option("CallEuro", strike=100.0, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _job(job_id: int, problem: PricingProblem) -> Job:
    return Job(
        job_id=job_id,
        path=f"/virtual/errors/{job_id}.pb",
        file_size=512,
        compute_cost=1e-4,
        category="error_paths",
        problem=problem,
    )


class TestRunReportErrors:
    def test_worker_error_lands_in_report_errors(self):
        jobs = [_job(0, _good_problem()), _job(1, _failing_problem())]
        report = ValuationSession(SequentialBackend(), "serialized_load").run(jobs).report
        assert report.n_jobs == 2
        assert set(report.errors) == {1}
        assert "IncompatibleMethodError" in report.errors[1]
        # the good job still priced
        assert 0 in report.prices()
        assert 1 not in report.prices()
        assert report.results[1] is None

    def test_run_result_surfaces_errors(self):
        session = ValuationSession(backend="local")
        result = session.run([_job(0, _failing_problem())])
        assert not result.ok
        assert result.n_errors == 1
        assert "errors" in result.format()

    def test_failed_handle_raises_but_keeps_message(self):
        session = ValuationSession(backend="local")
        good, bad = session.submit_many([_good_problem(), _failing_problem()])
        assert good.price() > 0
        assert "IncompatibleMethodError" in bad.error()
        with pytest.raises(ValuationError, match="IncompatibleMethodError"):
            bad.result()

    def test_from_outcome_splits_errors_and_categories(self):
        jobs = [_job(0, _good_problem()), _job(1, _failing_problem())]
        report = ValuationSession(SequentialBackend()).run(jobs).report
        assert isinstance(report, RunReport)
        assert report.category_times["error_paths"] >= 0.0


class _DroppingStream(ScheduleStream):
    """A stream whose final outcome silently loses ``drop`` results."""

    drop = 1

    def finish(self):
        outcome = super().finish()
        return ScheduleOutcome(
            completed=outcome.completed[: len(outcome.completed) - self.drop],
            stats=outcome.stats,
            scheduler_name=outcome.scheduler_name,
        )


class _EmptyingStream(_DroppingStream):
    def finish(self):
        outcome = super(_DroppingStream, self).finish()
        return ScheduleOutcome(
            completed=[],
            stats=BackendStats(total_time=0.0, n_jobs=0, n_workers=0),
            scheduler_name=outcome.scheduler_name,
        )


class TestPartialCompletion:
    """The campaign's exactly-once count check, fed a stream that loses results."""

    def test_dropped_result_raises_scheduling_error(self, monkeypatch):
        monkeypatch.setattr("repro.api.campaign.ScheduleStream", _DroppingStream)
        jobs = [_job(i, _good_problem()) for i in range(3)]
        with pytest.raises(SchedulingError, match="2 results for 3 dispatched jobs"):
            ValuationSession(SequentialBackend()).run(jobs)

    def test_empty_outcome_raises_scheduling_error(self, monkeypatch):
        monkeypatch.setattr("repro.api.campaign.ScheduleStream", _EmptyingStream)
        jobs = [_job(0, _good_problem())]
        with pytest.raises(SchedulingError, match="0 results for 1 dispatched jobs"):
            ValuationSession(SequentialBackend()).run(jobs)

    def test_session_path_raises_identically(self, monkeypatch):
        monkeypatch.setattr("repro.api.campaign.ScheduleStream", _DroppingStream)
        session = ValuationSession(backend="local")
        with pytest.raises(SchedulingError):
            session.run([_job(i, _good_problem()) for i in range(2)])


class TestCompatibleMethods:
    def test_black_scholes_european_covers_every_family(self):
        names = compatible_methods(
            BlackScholesModel(spot=100.0, rate=0.05, volatility=0.2),
            EuropeanCall(strike=100.0, maturity=1.0),
        )
        # one representative per method family: closed form, PDE, Fourier,
        # Monte-Carlo and trees can all price a European call under BS
        assert "CF_Call" in names
        assert "FD_European" in names
        assert "FFT_COS" in names
        assert "MC_European" in names
        assert "TR_CoxRossRubinstein" in names
        assert names == sorted(names)

    def test_heston_european_restricted_to_fourier_and_mc(self):
        names = compatible_methods(
            HestonModel(
                spot=100.0, rate=0.03, v0=0.04, kappa=2.0,
                theta=0.04, sigma_v=0.4, rho=-0.7,
            ),
            EuropeanCall(strike=100.0, maturity=1.0),
        )
        assert "FFT_COS" in names
        assert "MC_European" in names
        assert "CF_Call" not in names  # no closed form under Heston

"""``session.greeks`` / ``session.risk`` are the :mod:`repro.core.risk`
measures with the grid priced on the session backend: same numbers (``==``),
same errors, and the run options of ``config`` reach the dispatched jobs."""

from __future__ import annotations

import pytest

from repro.api import RunConfig, ValuationSession
from repro.api.plan import build_plan
from repro.core.portfolio import Portfolio
from repro.core.risk import historical_var, portfolio_greeks, sensitivity_sweep
from repro.errors import PortfolioError, ValuationError
from repro.pricing.batch import ProblemBatch
from tests.oracles.books import mixed_book

RETURNS = [0.01, -0.02, 0.004, -0.013, 0.007, -0.03, 0.011, -0.006]


@pytest.fixture(params=["local", "multiprocessing"])
def session(request) -> ValuationSession:
    return ValuationSession(backend=request.param, n_workers=2)


class TestSameNumbers:
    def test_greeks(self, session):
        report = session.greeks(mixed_book(), spot_bump=0.02)
        reference = portfolio_greeks(mixed_book(), spot_bump=0.02)
        assert report == reference  # dataclass equality: field by field, every position
        assert report.positions[-1].vega is None  # no volatility-like parameter

    def test_historical_var(self, session):
        var = session.risk(mixed_book(), spot_returns=RETURNS, confidence=0.75)
        assert var == historical_var(mixed_book(), RETURNS, confidence=0.75)

    def test_sensitivity_sweep(self, session):
        bumps = [-0.02, 0.0, 0.02]
        surface = session.risk(
            mixed_book(), param="volatility", bumps=bumps, relative=False
        )
        assert surface == sensitivity_sweep(
            mixed_book(), "volatility", bumps, relative=False
        )


class TestSameErrors:
    """One body per measure: the session raises what the module function does."""

    @pytest.fixture
    def local(self) -> ValuationSession:
        return ValuationSession(backend="local")

    def test_empty_portfolio(self, local):
        empty = Portfolio(name="empty")
        with pytest.raises(PortfolioError):
            local.greeks(empty)
        with pytest.raises(PortfolioError):
            local.risk(empty, spot_returns=RETURNS)
        with pytest.raises(PortfolioError):
            local.risk(empty, param="spot", bumps=[0.01])

    def test_var_validation(self, local):
        with pytest.raises(PortfolioError):
            local.risk(mixed_book(), spot_returns=RETURNS, confidence=0.3)
        with pytest.raises(PortfolioError):
            local.risk(mixed_book(), spot_returns=[])

    def test_measure_selection_stays_a_session_error(self, local):
        with pytest.raises(ValuationError):
            local.risk(mixed_book())
        with pytest.raises(ValuationError):
            local.risk(mixed_book(), spot_returns=RETURNS, param="spot", bumps=[0.01])


@pytest.mark.parametrize("kernel", ["loop", "stacked"])
def test_config_kernel_reaches_the_dispatched_batches(monkeypatch, kernel):
    session = ValuationSession(backend="local")
    dispatched: list[ProblemBatch] = []

    def spy(*args, **kwargs):
        plan = build_plan(*args, **kwargs)
        dispatched.extend(
            job.problem for job in plan.jobs if isinstance(job.problem, ProblemBatch)
        )
        return plan

    monkeypatch.setattr("repro.api.session.build_plan", spy)
    config = RunConfig(kernel=kernel)
    greeks = session.greeks(mixed_book(), config=config)
    var = session.risk(mixed_book(), spot_returns=RETURNS, confidence=0.75, config=config)
    assert dispatched and {batch.kernel for batch in dispatched} == {kernel}
    # either kernel replays the same IEEE operation sequence
    assert greeks == portfolio_greeks(mixed_book())
    assert var == historical_var(mixed_book(), RETURNS, confidence=0.75)

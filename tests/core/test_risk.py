"""Tests of the portfolio risk layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.portfolio import Portfolio, Position
from repro.core.risk import (
    historical_var,
    portfolio_greeks,
    portfolio_value,
    scenario_jobs,
    sensitivity_sweep,
)
from repro.errors import PortfolioError, PricingError
from repro.pricing import PricingProblem, analytics
from tests.oracles import serial_greeks, solo_cell_pricer
from tests.oracles.books import mixed_book


def _bs_position(option, method, quantity, label, **params):
    problem = PricingProblem(label=label)
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.03, volatility=0.2)
    problem.set_option(option, **params)
    problem.set_method(method)
    return Position(problem=problem, quantity=quantity, category=option, label=label)


@pytest.fixture
def book() -> Portfolio:
    return Portfolio(
        name="book",
        positions=[
            _bs_position("CallEuro", "CF_Call", 10.0, "call", strike=100.0, maturity=1.0),
            _bs_position("PutEuro", "CF_Put", -5.0, "put", strike=90.0, maturity=0.5),
            _bs_position("CallDownOutEuro", "CF_Barrier", 2.0, "barrier",
                         strike=100.0, maturity=1.0, barrier=80.0, rebate=0.0),
        ],
    )


class TestPortfolioValue:
    def test_matches_hand_computation(self, book):
        call = float(analytics.bs_call_price(100, 100, 0.03, 0.2, 1.0))
        put = float(analytics.bs_put_price(100, 90, 0.03, 0.2, 0.5))
        barrier = float(
            analytics.barrier_call_price(100, 100, 80, 0.03, 0.2, 1.0, barrier_type="down-out")
        )
        expected = 10 * call - 5 * put + 2 * barrier
        assert portfolio_value(book) == pytest.approx(expected, rel=1e-12)

    def test_uses_precomputed_prices_when_given(self, book):
        value = portfolio_value(book, prices={0: 1.0, 1: 1.0, 2: 1.0})
        assert value == pytest.approx(10.0 - 5.0 + 2.0)

    def test_partial_prices(self, book):
        full = portfolio_value(book)
        partial = portfolio_value(book, prices={0: 0.0})
        call = float(analytics.bs_call_price(100, 100, 0.03, 0.2, 1.0))
        assert partial == pytest.approx(full - 10 * call, rel=1e-10)


class TestPortfolioGreeks:
    def test_aggregation_matches_closed_form(self, book):
        report = portfolio_greeks(book, spot_bump=0.001, vol_bump=0.001)
        call_delta = float(analytics.bs_call_delta(100, 100, 0.03, 0.2, 1.0))
        put_delta = float(analytics.bs_put_delta(100, 90, 0.03, 0.2, 0.5))
        # barrier delta obtained by bumping the closed form
        h = 0.1
        barrier_delta = (
            analytics.barrier_call_price(100 + h, 100, 80, 0.03, 0.2, 1.0, barrier_type="down-out")
            - analytics.barrier_call_price(100 - h, 100, 80, 0.03, 0.2, 1.0, barrier_type="down-out")
        ) / (2 * h)
        expected_delta = 10 * call_delta - 5 * put_delta + 2 * float(barrier_delta)
        assert report.total_delta == pytest.approx(expected_delta, rel=1e-2)
        assert report.total_vega != 0.0
        assert set(report.by_category) == {"CallEuro", "PutEuro", "CallDownOutEuro"}
        assert len(report.positions) == 3

    def test_subset_truncation(self, book):
        report = portfolio_greeks(book.subset(1))
        assert len(report.positions) == 1

    def test_empty_portfolio_rejected(self):
        with pytest.raises(PortfolioError):
            portfolio_greeks(Portfolio(name="empty"))


class TestSensitivity:
    def test_volatility_sweep_is_monotone_for_a_long_call(self):
        portfolio = Portfolio(positions=[
            _bs_position("CallEuro", "CF_Call", 1.0, "call", strike=100.0, maturity=1.0)
        ])
        sweep = sensitivity_sweep(portfolio, "volatility", bumps=[-0.05, 0.0, 0.05],
                                  relative=False)
        assert sweep[-0.05] < sweep[0.0] < sweep[0.05]

    def test_spot_sweep_relative(self, book):
        sweep = sensitivity_sweep(book, "spot", bumps=[-0.1, 0.0, 0.1], relative=True)
        assert len(sweep) == 3
        assert sweep[0.0] == pytest.approx(portfolio_value(book), rel=1e-10)

    def test_unknown_parameter_keeps_position_unbumped(self, book):
        sweep = sensitivity_sweep(book, "does_not_exist", bumps=[0.5])
        assert sweep[0.5] == pytest.approx(portfolio_value(book), rel=1e-10)

    def test_scenario_jobs_expansion(self, book):
        problems = scenario_jobs(book, "spot", bumps=np.linspace(-0.05, 0.05, 7))
        assert len(problems) == 3 * 7
        assert all(p.is_complete for p in problems)
        assert all("spot" in p.label for p in problems)


class TestHistoricalVar:
    def test_var_of_a_long_call_book_is_positive_and_bounded(self):
        portfolio = Portfolio(positions=[
            _bs_position("CallEuro", "CF_Call", 100.0, "call", strike=100.0, maturity=1.0)
        ])
        returns = np.random.default_rng(0).normal(0.0, 0.02, size=200)
        result = historical_var(portfolio, returns, confidence=0.99)
        assert result["var"] > 0
        assert result["expected_shortfall"] >= result["var"]
        assert result["worst_loss"] >= result["var"]
        assert result["n_scenarios"] == 200
        # a 2% daily vol cannot lose more than a few hundred on this book
        assert result["var"] < 0.1 * result["base_value"] + 500

    def test_higher_confidence_gives_higher_var(self):
        portfolio = Portfolio(positions=[
            _bs_position("PutEuro", "CF_Put", -50.0, "put", strike=100.0, maturity=1.0)
        ])
        returns = np.random.default_rng(1).normal(0.0, 0.02, size=300)
        var95 = historical_var(portfolio, returns, confidence=0.95)["var"]
        var99 = historical_var(portfolio, returns, confidence=0.99)["var"]
        assert var99 >= var95

    def test_validation(self, book):
        with pytest.raises(PortfolioError):
            historical_var(book, [], confidence=0.99)
        with pytest.raises(PortfolioError):
            historical_var(book, [0.01], confidence=0.3)

    def test_a_return_below_minus_one_is_an_error_not_a_zero_loss(self):
        # the -150 % scenario used to be priced at the unbumped state (loss 0)
        with pytest.raises(PricingError, match="hist0001.*'spot'"):
            historical_var(mixed_book(), [0.01, -1.5, -0.02], 0.75)

    def test_a_sweep_through_negative_volatility_is_an_error(self):
        with pytest.raises(PricingError, match=r"volatility\[0\].*'volatility'"):
            sensitivity_sweep(mixed_book(), "volatility", [-0.5, 0.0], relative=False)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(PortfolioError):
            historical_var(Portfolio(name="empty"), [0.01])
        with pytest.raises(PortfolioError):
            sensitivity_sweep(Portfolio(name="empty"), "spot", [0.01])


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("rng_kind", ["pcg64", "sobol"])
class TestSerialOracleDifferential:
    """Every measure == its solo-cell serial reference, bit for bit."""

    def test_portfolio_greeks(self, rng_kind, antithetic):
        book = mixed_book(rng_kind, antithetic)
        report = portfolio_greeks(book)
        assert report == portfolio_greeks(book, price_grid=solo_cell_pricer)
        assert report.positions[-1].vega is None  # no volatility-like parameter
        for position, row in zip(book, report.positions):
            problem = position.problem
            serial = serial_greeks(problem.model, problem.product, problem.method)
            assert (row.price, row.delta, row.gamma, row.vega, row.rho, row.theta) == (
                serial.price, serial.delta, serial.gamma, serial.vega, serial.rho,
                serial.theta,
            )

    def test_historical_var(self, rng_kind, antithetic):
        book = mixed_book(rng_kind, antithetic)
        returns = np.random.default_rng(3).normal(0.0, 0.015, size=12)
        assert historical_var(book, returns, confidence=0.9) == historical_var(
            book, returns, confidence=0.9, price_grid=solo_cell_pricer
        )

    def test_sensitivity_sweep(self, rng_kind, antithetic):
        book = mixed_book(rng_kind, antithetic)
        bumps = [-0.02, 0.0, 0.02]
        sweep = sensitivity_sweep(book, "volatility", bumps, relative=False)
        assert sweep == sensitivity_sweep(
            book, "volatility", bumps, relative=False, price_grid=solo_cell_pricer
        )
        # the sigma-only position has no "volatility": valued unbumped throughout
        assert sweep[0.0] == portfolio_value(book)

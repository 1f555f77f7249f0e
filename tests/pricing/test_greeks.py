"""Tests of the bump-and-revalue Greeks."""

from __future__ import annotations

import pytest

from repro.errors import PricingError
from repro.pricing import (
    BinomialTree,
    ClosedFormCall,
    ClosedFormPut,
    EuropeanCall,
    MonteCarloEuropean,
    PDEAmerican,
    analytics,
    bump_model,
    compute_greeks,
)
from repro.pricing.products.american import AmericanPut


class TestBumpModel:
    def test_absolute_bump(self, bs_model):
        bumped = bump_model(bs_model, "volatility", 0.05)
        assert bumped.volatility == pytest.approx(0.25)
        assert bumped.spot == bs_model.spot

    def test_relative_bump(self, bs_model):
        bumped = bump_model(bs_model, "spot", 0.10, relative=True)
        assert bumped.spot == pytest.approx(110.0)

    def test_vector_parameter_bump(self, basket_model):
        bumped = bump_model(basket_model, "spot", 0.01, relative=True)
        assert all(abs(s - 101.0) < 1e-12 for s in bumped.to_params()["spot"])

    def test_unknown_parameter(self, bs_model):
        with pytest.raises(PricingError):
            bump_model(bs_model, "skewness", 0.1)

    def test_original_model_untouched(self, bs_model):
        bump_model(bs_model, "spot", 0.5, relative=True)
        assert bs_model.spot == 100.0


class TestComputeGreeks:
    def test_against_closed_form_greeks(self, bs_model, atm_call):
        report = compute_greeks(bs_model, atm_call, ClosedFormCall(),
                                spot_bump=0.001, vol_bump=0.001, rate_bump=1e-5)
        s, k, r, sigma, t = 100.0, 100.0, 0.05, 0.2, 1.0
        assert report.delta == pytest.approx(float(analytics.bs_call_delta(s, k, r, sigma, t)), abs=1e-4)
        assert report.gamma == pytest.approx(float(analytics.bs_gamma(s, k, r, sigma, t)), rel=1e-2)
        assert report.vega == pytest.approx(float(analytics.bs_vega(s, k, r, sigma, t)), rel=1e-3)
        assert report.rho == pytest.approx(float(analytics.bs_call_rho(s, k, r, sigma, t)), rel=1e-3)

    def test_put_delta_negative(self, bs_model, atm_put):
        report = compute_greeks(bs_model, atm_put, ClosedFormPut())
        assert report.delta < 0
        assert report.gamma > 0
        assert report.vega > 0
        assert report.rho < 0

    def test_american_put_greeks_from_pde(self, bs_model):
        product = AmericanPut(strike=100.0, maturity=1.0)
        report = compute_greeks(bs_model, product, PDEAmerican(n_space=300, n_time=150))
        assert -1.0 < report.delta < 0.0
        assert report.gamma > 0
        assert report.vega > 0

    def test_monte_carlo_greeks_with_common_random_numbers(self, bs_model, atm_call):
        method = MonteCarloEuropean(n_paths=100_000, seed=3)
        report = compute_greeks(bs_model, atm_call, method, spot_bump=0.02)
        exact_delta = float(analytics.bs_call_delta(100, 100, 0.05, 0.2, 1.0))
        # common random numbers keep finite-difference Monte-Carlo deltas tight
        assert report.delta == pytest.approx(exact_delta, abs=0.03)

    def test_tree_greeks(self, bs_model, atm_call):
        report = compute_greeks(bs_model, atm_call, BinomialTree(n_steps=400))
        assert report.delta == pytest.approx(0.6368, abs=0.01)

    def test_heston_vega_uses_v0(self, heston_model, atm_call):
        from repro.pricing import FourierCOS

        report = compute_greeks(heston_model, atm_call, FourierCOS(n_terms=256))
        # bumping the initial variance up must increase the call value
        assert report.vega is not None and report.vega > 0

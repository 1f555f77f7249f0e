"""Tests of the finite-difference (theta-scheme) pricers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing import (
    AmericanCall,
    AmericanPut,
    BarrierOption,
    BinomialTree,
    CEVModel,
    ClosedFormBarrier,
    ClosedFormCall,
    ClosedFormPut,
    DigitalCall,
    DownOutCall,
    EuropeanCall,
    EuropeanPut,
    MonteCarloEuropean,
    PDEAmerican,
    PDEBarrier,
    PDEEuropean,
    SmileLocalVolModel,
    UpOutCall,
)
from repro.pricing.methods.pde import PDEGrid, _theta_scheme_solve


class TestGrid:
    def test_grid_contains_spot_and_strike(self):
        grid = PDEGrid.build(100.0, 0.2, 1.0, n_space=200, anchor=95.0)
        assert grid.s.min() < 95.0 < grid.s.max()
        assert grid.s.min() < 100.0 < grid.s.max()
        # the strike falls (almost) exactly on a node
        assert np.min(np.abs(grid.s - 95.0)) < 1e-6 * 95.0

    def test_barrier_pinned_to_boundary(self):
        grid = PDEGrid.build(100.0, 0.2, 1.0, n_space=200, lower_bound=85.0, anchor=100.0)
        assert grid.s[0] == pytest.approx(85.0, rel=1e-12)

    def test_invalid_configurations(self):
        with pytest.raises(PricingError):
            PDEGrid.build(100.0, 0.2, 1.0, n_space=4)
        with pytest.raises(PricingError):
            PDEGrid.build(100.0, 0.2, 1.0, n_space=100, lower_bound=300.0, upper_bound=200.0)


class TestEuropeanPDE:
    @pytest.mark.parametrize("maturity,strike", [(0.5, 90.0), (1.0, 100.0), (2.0, 120.0)])
    def test_call_matches_closed_form(self, bs_model, maturity, strike):
        product = EuropeanCall(strike=strike, maturity=maturity)
        pde = PDEEuropean(n_space=400, n_time=200).price(bs_model, product)
        exact = ClosedFormCall().price(bs_model, product)
        assert pde.price == pytest.approx(exact.price, rel=2e-3)
        assert pde.delta == pytest.approx(exact.delta, abs=1e-2)

    def test_put_matches_closed_form(self, bs_model, atm_put):
        pde = PDEEuropean(n_space=400, n_time=200).price(bs_model, atm_put)
        exact = ClosedFormPut().price(bs_model, atm_put)
        assert pde.price == pytest.approx(exact.price, rel=2e-3)

    def test_dividend_model(self, bs_model_dividend, atm_call):
        pde = PDEEuropean(n_space=400, n_time=200).price(bs_model_dividend, atm_call)
        exact = ClosedFormCall().price(bs_model_dividend, atm_call)
        assert pde.price == pytest.approx(exact.price, rel=2e-3)

    def test_digital_option(self, bs_model):
        product = DigitalCall(strike=100.0, maturity=1.0)
        pde = PDEEuropean(n_space=600, n_time=300).price(bs_model, product)
        from repro.pricing import analytics

        exact = float(analytics.digital_call_price(100, 100, 0.05, 0.2, 1.0))
        # the discontinuous payoff limits Crank-Nicolson to ~O(dx) accuracy
        assert pde.price == pytest.approx(exact, rel=1.5e-2)

    def test_grid_refinement_converges(self, bs_model, atm_call):
        exact = ClosedFormCall().price(bs_model, atm_call).price
        coarse = PDEEuropean(n_space=60, n_time=30).price(bs_model, atm_call).price
        fine = PDEEuropean(n_space=500, n_time=250).price(bs_model, atm_call).price
        assert abs(fine - exact) < abs(coarse - exact)

    def test_fully_implicit_scheme_also_converges(self, bs_model, atm_call):
        exact = ClosedFormCall().price(bs_model, atm_call).price
        implicit = PDEEuropean(n_space=400, n_time=400, theta=1.0).price(bs_model, atm_call)
        assert implicit.price == pytest.approx(exact, rel=5e-3)

    def test_local_volatility_matches_monte_carlo(self):
        model = SmileLocalVolModel(spot=100, rate=0.03, base_volatility=0.2, skew=0.3, term=0.1)
        product = EuropeanCall(strike=100.0, maturity=1.0)
        pde = PDEEuropean(n_space=500, n_time=250).price(model, product)
        mc = MonteCarloEuropean(n_paths=200_000, n_steps=100, seed=11).price(model, product)
        assert pde.price == pytest.approx(mc.price, abs=4 * mc.std_error + 0.02)

    def test_cev_matches_monte_carlo(self):
        model = CEVModel(spot=100, rate=0.05, volatility=0.2, beta=0.6)
        product = EuropeanPut(strike=100.0, maturity=1.0)
        pde = PDEEuropean(n_space=500, n_time=250).price(model, product)
        mc = MonteCarloEuropean(n_paths=200_000, n_steps=100, seed=12).price(model, product)
        assert pde.price == pytest.approx(mc.price, abs=4 * mc.std_error + 0.02)

    def test_parameter_validation(self):
        with pytest.raises(PricingError):
            PDEEuropean(n_space=5)
        with pytest.raises(PricingError):
            PDEEuropean(n_time=0)
        with pytest.raises(PricingError):
            PDEEuropean(theta=1.5)

    def test_does_not_support_heston(self, heston_model, atm_call):
        assert not PDEEuropean().supports(heston_model, atm_call)


class TestBarrierPDE:
    def test_down_out_call_matches_closed_form(self, bs_model):
        product = DownOutCall(strike=100.0, maturity=1.0, barrier=85.0)
        pde = PDEBarrier(n_space=600, n_time=400).price(bs_model, product)
        exact = ClosedFormBarrier().price(bs_model, product)
        assert pde.price == pytest.approx(exact.price, rel=5e-3)

    def test_up_out_call_matches_closed_form(self, bs_model):
        product = UpOutCall(strike=100.0, maturity=1.0, barrier=140.0)
        pde = PDEBarrier(n_space=600, n_time=400).price(bs_model, product)
        exact = ClosedFormBarrier().price(bs_model, product)
        assert pde.price == pytest.approx(exact.price, rel=1e-2, abs=5e-3)

    def test_knock_in_via_parity(self, bs_model):
        product = BarrierOption(strike=100.0, maturity=1.0, barrier=85.0,
                                barrier_type="down-in", payoff_type="call")
        pde = PDEBarrier(n_space=600, n_time=400).price(bs_model, product)
        exact = ClosedFormBarrier().price(bs_model, product)
        assert pde.price == pytest.approx(exact.price, rel=2e-2, abs=5e-3)

    def test_already_knocked_out_returns_rebate(self, bs_model):
        product = BarrierOption(strike=100.0, maturity=1.0, barrier=110.0,
                                barrier_type="down-out", payoff_type="call", rebate=3.0)
        result = PDEBarrier().price(bs_model, product)
        assert result.price == pytest.approx(3.0)

    def test_barrier_option_cheaper_than_vanilla(self, bs_model):
        vanilla = ClosedFormCall().price(bs_model, EuropeanCall(100.0, 1.0)).price
        for barrier in (70.0, 85.0, 95.0):
            product = DownOutCall(strike=100.0, maturity=1.0, barrier=barrier)
            assert PDEBarrier(n_space=300, n_time=150).price(bs_model, product).price <= vanilla

    def test_local_vol_barrier_runs(self):
        model = SmileLocalVolModel(spot=100, rate=0.03, base_volatility=0.2, skew=0.3, term=0.1)
        product = DownOutCall(strike=100.0, maturity=1.0, barrier=85.0)
        result = PDEBarrier(n_space=300, n_time=200).price(model, product)
        assert 0.0 < result.price < 20.0


def _solve_american_put(model, product, n_space, n_time, american_mode):
    """Price an American put by the theta-scheme solve with the given obstacle
    solve, on the grid and boundaries ``PDEAmerican`` uses for a put."""
    grid = PDEGrid.build(
        model.spot, model.volatility, product.maturity, n_space, anchor=product.strike
    )
    s_lo = grid.s[0]
    values = _theta_scheme_solve(
        model,
        product.maturity,
        grid,
        product.terminal_payoff(grid.s),
        lambda tau: product.strike - s_lo,
        lambda tau: 0.0,
        n_time,
        0.5,
        obstacle=product.intrinsic_value(grid.s),
        american_mode=american_mode,
    )
    return float(np.interp(model.spot, grid.s, values))


class TestAmericanPDE:
    @pytest.mark.parametrize("mode", ["projected", "brennan_schwartz"])
    def test_american_put_matches_binomial(self, bs_model, mode):
        """``PDEAmerican`` takes Brennan-Schwartz for a put; the projected
        solve it keeps for calls is checked on the put too, where the tree
        gives the price."""
        product = AmericanPut(strike=100.0, maturity=1.0)
        if mode == "brennan_schwartz":
            price = PDEAmerican(n_space=500, n_time=400).price(bs_model, product).price
            assert price == pytest.approx(
                _solve_american_put(bs_model, product, 500, 400, mode), rel=1e-12
            )
        else:
            price = _solve_american_put(bs_model, product, 500, 400, mode)
        tree = BinomialTree(n_steps=2000).price(bs_model, product)
        assert price == pytest.approx(tree.price, rel=2e-3)

    def test_american_put_worth_more_than_european(self, bs_model, atm_put):
        european = ClosedFormPut().price(bs_model, atm_put).price
        american = PDEAmerican(n_space=400, n_time=200).price(
            bs_model, AmericanPut(strike=100.0, maturity=1.0)
        ).price
        assert american > european

    def test_american_put_above_intrinsic(self, bs_model):
        product = AmericanPut(strike=120.0, maturity=1.0)
        result = PDEAmerican(n_space=400, n_time=200).price(bs_model, product)
        assert result.price >= 20.0 - 1e-6

    def test_american_call_no_dividend_equals_european(self, bs_model, atm_call):
        european = ClosedFormCall().price(bs_model, atm_call).price
        american = PDEAmerican(n_space=500, n_time=300).price(
            bs_model, AmericanCall(strike=100.0, maturity=1.0)
        ).price
        assert american == pytest.approx(european, rel=3e-3)

    def test_american_call_with_dividend_exceeds_european(self, bs_model_dividend):
        european = ClosedFormCall().price(
            bs_model_dividend, EuropeanCall(strike=100.0, maturity=2.0)
        ).price
        american = PDEAmerican(n_space=500, n_time=300).price(
            bs_model_dividend, AmericanCall(strike=100.0, maturity=2.0)
        ).price
        assert american > european

    def test_exercise_boundary_reported(self, bs_model):
        result = PDEAmerican(n_space=400, n_time=200).price(
            bs_model, AmericanPut(strike=100.0, maturity=1.0)
        )
        boundary = result.extra["exercise_boundary"]
        assert 40.0 < boundary < 100.0

    def test_invalid_mode(self, bs_model):
        product = AmericanPut(strike=100.0, maturity=1.0)
        with pytest.raises(PricingError, match="unknown american_mode"):
            _solve_american_put(bs_model, product, 50, 10, "penalty")

    def test_local_vol_american(self):
        model = SmileLocalVolModel(spot=100, rate=0.05, base_volatility=0.2, skew=0.3, term=0.1)
        product = AmericanPut(strike=100.0, maturity=1.0)
        result = PDEAmerican(n_space=300, n_time=200).price(model, product)
        european = PDEEuropean(n_space=300, n_time=200).price(
            model, EuropeanPut(strike=100.0, maturity=1.0)
        )
        assert result.price >= european.price - 1e-6

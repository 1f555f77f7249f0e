"""Tests of the Fourier-COS pricing method."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing import (
    ClosedFormCall,
    ClosedFormPut,
    DigitalCall,
    DigitalPut,
    EuropeanCall,
    EuropeanPut,
    FourierCOS,
)
from tests.oracles import analytics


class TestCOSBlackScholes:
    @pytest.mark.parametrize("strike", [70.0, 90.0, 100.0, 120.0, 150.0])
    def test_call_matches_closed_form(self, bs_model, strike):
        product = EuropeanCall(strike=strike, maturity=1.0)
        exact = ClosedFormCall().price(bs_model, product).price
        cos = FourierCOS(n_terms=256).price(bs_model, product)
        assert cos.price == pytest.approx(exact, abs=1e-8)

    @pytest.mark.parametrize("maturity", [0.1, 0.5, 2.0, 5.0])
    def test_put_matches_closed_form(self, bs_model, maturity):
        product = EuropeanPut(strike=95.0, maturity=maturity)
        exact = ClosedFormPut().price(bs_model, product).price
        cos = FourierCOS(n_terms=256).price(bs_model, product)
        assert cos.price == pytest.approx(exact, abs=1e-7)

    def test_digitals_match_closed_form(self, bs_model):
        call = FourierCOS(n_terms=512).price(bs_model, DigitalCall(strike=100.0, maturity=1.0))
        put = FourierCOS(n_terms=512).price(bs_model, DigitalPut(strike=100.0, maturity=1.0))
        assert call.price == pytest.approx(
            float(analytics.digital_call_price(100, 100, 0.05, 0.2, 1.0)), abs=1e-6
        )
        assert put.price == pytest.approx(
            float(analytics.digital_put_price(100, 100, 0.05, 0.2, 1.0)), abs=1e-6
        )

    def test_convergence_in_terms(self, bs_model, atm_call):
        exact = ClosedFormCall().price(bs_model, atm_call).price
        coarse = abs(FourierCOS(n_terms=16).price(bs_model, atm_call).price - exact)
        fine = abs(FourierCOS(n_terms=256).price(bs_model, atm_call).price - exact)
        assert fine <= coarse

    def test_dividend_model(self, bs_model_dividend, atm_call):
        exact = ClosedFormCall().price(bs_model_dividend, atm_call).price
        cos = FourierCOS(n_terms=256).price(bs_model_dividend, atm_call)
        assert cos.price == pytest.approx(exact, abs=1e-7)


class TestCOSHestonMerton:
    def test_heston_put_call_parity(self, heston_model):
        call = FourierCOS(n_terms=512).price(heston_model, EuropeanCall(100.0, 1.0)).price
        put = FourierCOS(n_terms=512).price(heston_model, EuropeanPut(100.0, 1.0)).price
        parity = 100.0 - 100.0 * np.exp(-heston_model.rate)
        assert call - put == pytest.approx(parity, abs=1e-5)

    def test_heston_degenerate_vol_of_vol_close_to_black_scholes(self):
        """With tiny vol-of-vol and v0 = theta, Heston reduces to Black-Scholes."""
        from repro.pricing import BlackScholesModel, HestonModel

        heston = HestonModel(spot=100, rate=0.05, v0=0.04, kappa=5.0, theta=0.04,
                             sigma_v=1e-3, rho=0.0)
        bs = BlackScholesModel(spot=100, rate=0.05, volatility=0.2)
        product = EuropeanCall(strike=100.0, maturity=1.0)
        heston_price = FourierCOS(n_terms=512).price(heston, product).price
        bs_price = ClosedFormCall().price(bs, product).price
        assert heston_price == pytest.approx(bs_price, abs=1e-3)

    def test_heston_skew_direction(self, heston_model):
        """Negative correlation makes low-strike implied vols higher."""
        low = FourierCOS(n_terms=512).price(heston_model, EuropeanCall(80.0, 1.0)).price
        high = FourierCOS(n_terms=512).price(heston_model, EuropeanCall(120.0, 1.0)).price
        iv_low = analytics.bs_implied_volatility(low, 100.0, 80.0, heston_model.rate, 1.0)
        iv_high = analytics.bs_implied_volatility(high, 100.0, 120.0, heston_model.rate, 1.0)
        assert iv_low > iv_high

    def test_merton_zero_intensity_is_black_scholes(self, atm_call):
        from repro.pricing import MertonJumpModel

        merton = MertonJumpModel(spot=100, rate=0.05, volatility=0.2,
                                 jump_intensity=0.0, jump_mean=0.0, jump_std=0.1)
        cos = FourierCOS(n_terms=256).price(merton, atm_call).price
        exact = float(analytics.bs_call_price(100, 100, 0.05, 0.2, 1.0))
        assert cos == pytest.approx(exact, abs=1e-7)

    def test_merton_jump_risk_increases_otm_put_value(self, merton_model):
        """Downward jumps make out-of-the-money puts more valuable."""
        from repro.pricing import BlackScholesModel

        bs = BlackScholesModel(spot=100, rate=0.05, volatility=0.2)
        product = EuropeanPut(strike=70.0, maturity=1.0)
        merton_price = FourierCOS(n_terms=512).price(merton_model, product).price
        bs_price = ClosedFormPut().price(bs, product).price
        assert merton_price > bs_price


class TestCOSInterface:
    def test_parameter_validation(self):
        with pytest.raises(PricingError):
            FourierCOS(n_terms=4)
        with pytest.raises(PricingError):
            FourierCOS(truncation_width=-1.0)

    def test_unsupported_products(self, bs_model):
        from repro.pricing import AmericanPut, AsianCall

        assert not FourierCOS().supports(bs_model, AmericanPut(100.0, 1.0))
        assert not FourierCOS().supports(bs_model, AsianCall(100.0, 1.0))

    def test_unsupported_model(self, basket_model, atm_call):
        assert not FourierCOS().supports(basket_model, atm_call)

    def test_local_vol_model_has_no_char_function(self, atm_call):
        from repro.pricing import SmileLocalVolModel

        model = SmileLocalVolModel(spot=100, rate=0.05, base_volatility=0.2)
        assert not FourierCOS().supports(model, atm_call)

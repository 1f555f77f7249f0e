"""Tests of the closed-form Black-Scholes analytics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import analytics

# textbook reference values (Hull-style parameters)
REFERENCE_CASES = [
    # spot, strike, rate, vol, maturity, dividend, call, put
    (100.0, 100.0, 0.05, 0.2, 1.0, 0.0, 10.450584, 5.573526),
    (42.0, 40.0, 0.10, 0.2, 0.5, 0.0, 4.759422, 0.808600),
    (100.0, 110.0, 0.03, 0.25, 2.0, 0.01, 11.528628, 17.102859),
]


@pytest.mark.parametrize("spot,strike,rate,vol,tau,div,call,put", REFERENCE_CASES)
def test_reference_call_prices(spot, strike, rate, vol, tau, div, call, put):
    value = analytics.bs_call_price(spot, strike, rate, vol, tau, div)
    assert value == pytest.approx(call, abs=2e-3)


@pytest.mark.parametrize("spot,strike,rate,vol,tau,div,call,put", REFERENCE_CASES)
def test_reference_put_prices(spot, strike, rate, vol, tau, div, call, put):
    value = analytics.bs_put_price(spot, strike, rate, vol, tau, div)
    assert value == pytest.approx(put, abs=2e-3)


def test_put_call_parity_exact():
    s, k, r, sigma, t, q = 100.0, 95.0, 0.04, 0.3, 1.5, 0.02
    call = analytics.bs_call_price(s, k, r, sigma, t, q)
    put = analytics.bs_put_price(s, k, r, sigma, t, q)
    forward_leg = s * np.exp(-q * t) - k * np.exp(-r * t)
    assert call - put == pytest.approx(forward_leg, abs=1e-12)


def test_call_price_is_vectorised():
    strikes = np.array([80.0, 90.0, 100.0, 110.0, 120.0])
    prices = analytics.bs_call_price(100.0, strikes, 0.05, 0.2, 1.0)
    assert prices.shape == strikes.shape
    # monotone decreasing in the strike
    assert np.all(np.diff(prices) < 0)


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        analytics.bs_call_price(-1.0, 100.0, 0.05, 0.2, 1.0)
    with pytest.raises(ValueError):
        analytics.bs_call_price(100.0, 100.0, 0.05, -0.2, 1.0)
    with pytest.raises(ValueError):
        analytics.bs_call_price(100.0, 100.0, 0.05, 0.2, 0.0)
    with pytest.raises(ValueError):
        analytics.bs_put_price(100.0, 0.0, 0.05, 0.2, 1.0)


def test_digital_prices_sum_to_discount_factor():
    s, k, r, sigma, t = 100.0, 105.0, 0.04, 0.3, 2.0
    call = analytics.digital_call_price(s, k, r, sigma, t)
    put = analytics.digital_put_price(s, k, r, sigma, t)
    assert call + put == pytest.approx(np.exp(-r * t), abs=1e-12)


def test_digital_call_is_strike_derivative_of_call():
    """-dC/dK equals the digital call price (static replication identity)."""
    s, r, sigma, t = 100.0, 0.05, 0.2, 1.0
    k = 100.0
    h = 1e-3
    dC_dK = (
        analytics.bs_call_price(s, k + h, r, sigma, t)
        - analytics.bs_call_price(s, k - h, r, sigma, t)
    ) / (2 * h)
    digital = analytics.digital_call_price(s, k, r, sigma, t)
    assert -dC_dK == pytest.approx(digital, rel=1e-5)


# ---------------------------------------------------------------------------
# Greeks
# ---------------------------------------------------------------------------


def test_call_delta_matches_finite_difference():
    s, k, r, sigma, t, q = 100.0, 105.0, 0.03, 0.25, 1.5, 0.01
    h = 1e-4 * s
    fd = (
        analytics.bs_call_price(s + h, k, r, sigma, t, q)
        - analytics.bs_call_price(s - h, k, r, sigma, t, q)
    ) / (2 * h)
    assert analytics.bs_call_delta(s, k, r, sigma, t, q) == pytest.approx(fd, rel=1e-6)


def test_put_delta_matches_finite_difference():
    s, k, r, sigma, t, q = 100.0, 95.0, 0.03, 0.25, 0.75, 0.01
    h = 1e-4 * s
    fd = (
        analytics.bs_put_price(s + h, k, r, sigma, t, q)
        - analytics.bs_put_price(s - h, k, r, sigma, t, q)
    ) / (2 * h)
    assert analytics.bs_put_delta(s, k, r, sigma, t, q) == pytest.approx(fd, rel=1e-6)


def test_gamma_matches_finite_difference():
    s, k, r, sigma, t = 100.0, 100.0, 0.05, 0.2, 1.0
    h = 1e-3 * s
    fd = (
        analytics.bs_call_price(s + h, k, r, sigma, t)
        - 2 * analytics.bs_call_price(s, k, r, sigma, t)
        + analytics.bs_call_price(s - h, k, r, sigma, t)
    ) / h**2
    assert analytics.bs_gamma(s, k, r, sigma, t) == pytest.approx(fd, rel=1e-4)


def test_vega_matches_finite_difference():
    s, k, r, sigma, t = 100.0, 110.0, 0.05, 0.2, 1.0
    h = 1e-5
    fd = (
        analytics.bs_call_price(s, k, r, sigma + h, t)
        - analytics.bs_call_price(s, k, r, sigma - h, t)
    ) / (2 * h)
    assert analytics.bs_vega(s, k, r, sigma, t) == pytest.approx(fd, rel=1e-6)


def test_vega_identical_for_call_and_put():
    s, k, r, sigma, t = 100.0, 90.0, 0.02, 0.35, 2.0
    h = 1e-5
    call_vega = (
        analytics.bs_call_price(s, k, r, sigma + h, t)
        - analytics.bs_call_price(s, k, r, sigma - h, t)
    ) / (2 * h)
    put_vega = (
        analytics.bs_put_price(s, k, r, sigma + h, t)
        - analytics.bs_put_price(s, k, r, sigma - h, t)
    ) / (2 * h)
    assert call_vega == pytest.approx(put_vega, rel=1e-8)


def test_rho_matches_finite_difference():
    s, k, r, sigma, t = 100.0, 100.0, 0.05, 0.2, 1.0
    h = 1e-6
    fd_call = (
        analytics.bs_call_price(s, k, r + h, sigma, t)
        - analytics.bs_call_price(s, k, r - h, sigma, t)
    ) / (2 * h)
    fd_put = (
        analytics.bs_put_price(s, k, r + h, sigma, t)
        - analytics.bs_put_price(s, k, r - h, sigma, t)
    ) / (2 * h)
    assert analytics.bs_call_rho(s, k, r, sigma, t) == pytest.approx(fd_call, rel=1e-5)
    assert analytics.bs_put_rho(s, k, r, sigma, t) == pytest.approx(fd_put, rel=1e-5)


def test_theta_matches_finite_difference_in_maturity():
    """Theta is -dV/dT for a fixed calendar date parametrised by maturity."""
    s, k, r, sigma, t, q = 100.0, 100.0, 0.05, 0.2, 1.0, 0.01
    h = 1e-5
    fd_call = -(
        analytics.bs_call_price(s, k, r, sigma, t + h, q)
        - analytics.bs_call_price(s, k, r, sigma, t - h, q)
    ) / (2 * h)
    fd_put = -(
        analytics.bs_put_price(s, k, r, sigma, t + h, q)
        - analytics.bs_put_price(s, k, r, sigma, t - h, q)
    ) / (2 * h)
    assert analytics.bs_call_theta(s, k, r, sigma, t, q) == pytest.approx(fd_call, rel=1e-4)
    assert analytics.bs_put_theta(s, k, r, sigma, t, q) == pytest.approx(fd_put, rel=1e-4)


# ---------------------------------------------------------------------------
# implied volatility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sigma", [0.05, 0.2, 0.45, 0.8])
@pytest.mark.parametrize("is_call", [True, False])
def test_implied_volatility_inverts_the_formula(sigma, is_call):
    s, k, r, t = 100.0, 105.0, 0.03, 1.25
    price = (
        analytics.bs_call_price(s, k, r, sigma, t)
        if is_call
        else analytics.bs_put_price(s, k, r, sigma, t)
    )
    recovered = analytics.bs_implied_volatility(price, s, k, r, t, is_call=is_call)
    assert recovered == pytest.approx(sigma, abs=1e-7)


def test_implied_volatility_rejects_arbitrageable_prices():
    with pytest.raises(ValueError):
        analytics.bs_implied_volatility(200.0, 100.0, 100.0, 0.05, 1.0, is_call=True)
    with pytest.raises(ValueError):
        analytics.bs_implied_volatility(-1.0, 100.0, 100.0, 0.05, 1.0, is_call=True)


# ---------------------------------------------------------------------------
# barrier formulas
# ---------------------------------------------------------------------------


def test_barrier_in_out_parity_call():
    s, k, h, r, sigma, t = 100.0, 100.0, 85.0, 0.05, 0.2, 1.0
    vanilla = analytics.bs_call_price(s, k, r, sigma, t)
    out = analytics.barrier_call_price(s, k, h, r, sigma, t, barrier_type="down-out")
    inn = analytics.barrier_call_price(s, k, h, r, sigma, t, barrier_type="down-in")
    assert out + inn == pytest.approx(vanilla, rel=1e-10)


def test_barrier_in_out_parity_put():
    s, k, h, r, sigma, t = 100.0, 100.0, 120.0, 0.05, 0.2, 1.0
    vanilla = analytics.bs_put_price(s, k, r, sigma, t)
    out = analytics.barrier_put_price(s, k, h, r, sigma, t, barrier_type="up-out")
    inn = analytics.barrier_put_price(s, k, h, r, sigma, t, barrier_type="up-in")
    assert out + inn == pytest.approx(vanilla, rel=1e-10)


def test_down_out_call_bounded_by_vanilla():
    s, k, r, sigma, t = 100.0, 100.0, 0.05, 0.25, 1.0
    vanilla = analytics.bs_call_price(s, k, r, sigma, t)
    for barrier in (70.0, 80.0, 90.0, 99.0):
        value = analytics.barrier_call_price(s, k, barrier, r, sigma, t, barrier_type="down-out")
        assert 0.0 <= value <= vanilla + 1e-12


def test_down_out_call_monotone_in_barrier():
    """Raising the knock-out barrier can only destroy value."""
    s, k, r, sigma, t = 100.0, 100.0, 0.05, 0.25, 1.0
    barriers = [60.0, 70.0, 80.0, 90.0, 95.0, 99.0]
    values = [
        analytics.barrier_call_price(s, k, b, r, sigma, t, barrier_type="down-out")
        for b in barriers
    ]
    assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))


def test_far_barrier_recovers_vanilla():
    s, k, r, sigma, t = 100.0, 100.0, 0.05, 0.2, 1.0
    vanilla = analytics.bs_call_price(s, k, r, sigma, t)
    almost_vanilla = analytics.barrier_call_price(
        s, k, 1.0, r, sigma, t, barrier_type="down-out"
    )
    assert almost_vanilla == pytest.approx(vanilla, rel=1e-9)


def test_knocked_out_option_is_worthless():
    # spot already below a down-and-out barrier
    value = analytics.barrier_call_price(80.0, 100.0, 85.0, 0.05, 0.2, 1.0,
                                         barrier_type="down-out")
    assert value == 0.0
    # and the knock-in twin is worth the vanilla
    inn = analytics.barrier_call_price(80.0, 100.0, 85.0, 0.05, 0.2, 1.0,
                                       barrier_type="down-in")
    assert inn == pytest.approx(analytics.bs_call_price(80.0, 100.0, 0.05, 0.2, 1.0))


def test_up_out_call_with_barrier_below_strike_is_worthless():
    value = analytics.barrier_call_price(100.0, 120.0, 110.0, 0.05, 0.2, 1.0,
                                         barrier_type="up-out")
    assert value == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------

_spots = st.floats(min_value=10.0, max_value=500.0)
_strikes = st.floats(min_value=10.0, max_value=500.0)
_rates = st.floats(min_value=-0.02, max_value=0.15)
_vols = st.floats(min_value=0.01, max_value=1.5)
_maturities = st.floats(min_value=0.01, max_value=10.0)


@settings(max_examples=200, deadline=None)
@given(spot=_spots, strike=_strikes, rate=_rates, vol=_vols, maturity=_maturities)
def test_call_price_within_no_arbitrage_bounds(spot, strike, rate, vol, maturity):
    price = float(analytics.bs_call_price(spot, strike, rate, vol, maturity))
    lower = max(spot - strike * np.exp(-rate * maturity), 0.0)
    assert lower - 1e-9 <= price <= spot + 1e-9


@settings(max_examples=200, deadline=None)
@given(spot=_spots, strike=_strikes, rate=_rates, vol=_vols, maturity=_maturities)
def test_put_call_parity_property(spot, strike, rate, vol, maturity):
    call = float(analytics.bs_call_price(spot, strike, rate, vol, maturity))
    put = float(analytics.bs_put_price(spot, strike, rate, vol, maturity))
    parity = spot - strike * np.exp(-rate * maturity)
    assert call - put == pytest.approx(parity, abs=1e-7 * max(1.0, spot, strike))


@settings(max_examples=200, deadline=None)
@given(spot=_spots, strike=_strikes, rate=_rates, vol=_vols, maturity=_maturities)
def test_delta_bounds_property(spot, strike, rate, vol, maturity):
    call_delta = float(analytics.bs_call_delta(spot, strike, rate, vol, maturity))
    put_delta = float(analytics.bs_put_delta(spot, strike, rate, vol, maturity))
    assert 0.0 <= call_delta <= 1.0
    assert -1.0 <= put_delta <= 0.0
    assert call_delta - put_delta == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(spot=_spots, strike=_strikes, rate=_rates, vol=_vols, maturity=_maturities)
def test_call_convex_in_strike_property(spot, strike, rate, vol, maturity):
    h = max(0.01 * strike, 0.5)
    low = float(analytics.bs_call_price(spot, strike - h * 0.5, rate, vol, maturity))
    mid = float(analytics.bs_call_price(spot, strike, rate, vol, maturity))
    high = float(analytics.bs_call_price(spot, strike + h * 0.5, rate, vol, maturity))
    assert low + high >= 2.0 * mid - 1e-8


@settings(max_examples=150, deadline=None)
@given(
    spot=_spots,
    strike=_strikes,
    rate=_rates,
    vol=st.floats(min_value=0.05, max_value=1.0),
    maturity=st.floats(min_value=0.05, max_value=5.0),
    barrier_frac=st.floats(min_value=0.3, max_value=0.99),
)
def test_barrier_parity_property(spot, strike, rate, vol, maturity, barrier_frac):
    barrier = spot * barrier_frac
    vanilla = float(analytics.bs_call_price(spot, strike, rate, vol, maturity))
    out = float(
        analytics.barrier_call_price(spot, strike, barrier, rate, vol, maturity,
                                     barrier_type="down-out")
    )
    inn = float(
        analytics.barrier_call_price(spot, strike, barrier, rate, vol, maturity,
                                     barrier_type="down-in")
    )
    assert 0.0 <= out <= vanilla + 1e-9
    assert 0.0 <= inn <= vanilla + 1e-9
    assert out + inn == pytest.approx(vanilla, rel=1e-6, abs=1e-8)

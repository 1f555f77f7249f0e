"""Closed-form Black-Scholes analytics.

Pure functions implementing the standard Black-Scholes / Black-76 formulas,
their Greeks, cash-or-nothing digitals and the Reiner-Rubinstein single
barrier formulas (continuous monitoring).  They are used by

* the closed-form pricing methods (:mod:`repro.pricing.methods.closed_form`),
* the Monte-Carlo control variates,
* the test-suite, as ground truth for PDE / tree / Monte-Carlo validation.

All functions are vectorised over their first arguments (NumPy broadcasting).
"""

from __future__ import annotations

import numpy as np
from scipy.stats import norm

__all__ = [
    "d1",
    "d2",
    "bs_call_price",
    "bs_put_price",
    "bs_call_delta",
    "bs_put_delta",
    "bs_gamma",
    "bs_vega",
    "bs_call_theta",
    "bs_put_theta",
    "bs_call_rho",
    "bs_put_rho",
    "digital_call_price",
    "digital_put_price",
    "black_formula",
    "barrier_call_price",
    "barrier_put_price",
]


def _validate(spot, strike, maturity, volatility):
    spot = np.asarray(spot, dtype=float)
    strike = np.asarray(strike, dtype=float)
    maturity = np.asarray(maturity, dtype=float)
    volatility = np.asarray(volatility, dtype=float)
    if np.any(spot <= 0) or np.any(strike <= 0):
        raise ValueError("spot and strike must be strictly positive")
    if np.any(maturity <= 0):
        raise ValueError("maturity must be strictly positive")
    if np.any(volatility <= 0):
        raise ValueError("volatility must be strictly positive")
    return spot, strike, maturity, volatility


def d1(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Black-Scholes ``d1`` term."""
    spot, strike, maturity, volatility = _validate(spot, strike, maturity, volatility)
    return (
        np.log(spot / strike) + (rate - dividend + 0.5 * volatility**2) * maturity
    ) / (volatility * np.sqrt(maturity))


def d2(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Black-Scholes ``d2 = d1 - sigma * sqrt(T)`` term."""
    return d1(spot, strike, rate, volatility, maturity, dividend) - np.asarray(
        volatility
    ) * np.sqrt(np.asarray(maturity))


def bs_call_price(spot, strike, rate, volatility, maturity, dividend=0.0):
    """European call price in the Black-Scholes model."""
    _d1 = d1(spot, strike, rate, volatility, maturity, dividend)
    _d2 = _d1 - volatility * np.sqrt(maturity)
    return spot * np.exp(-dividend * maturity) * norm.cdf(_d1) - strike * np.exp(
        -rate * maturity
    ) * norm.cdf(_d2)


def bs_put_price(spot, strike, rate, volatility, maturity, dividend=0.0):
    """European put price in the Black-Scholes model."""
    _d1 = d1(spot, strike, rate, volatility, maturity, dividend)
    _d2 = _d1 - volatility * np.sqrt(maturity)
    return strike * np.exp(-rate * maturity) * norm.cdf(-_d2) - spot * np.exp(
        -dividend * maturity
    ) * norm.cdf(-_d1)


def bs_call_delta(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Delta of a European call."""
    return np.exp(-dividend * maturity) * norm.cdf(
        d1(spot, strike, rate, volatility, maturity, dividend)
    )


def bs_put_delta(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Delta of a European put."""
    return np.exp(-dividend * maturity) * (
        norm.cdf(d1(spot, strike, rate, volatility, maturity, dividend)) - 1.0
    )


def bs_gamma(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Gamma (identical for calls and puts)."""
    _d1 = d1(spot, strike, rate, volatility, maturity, dividend)
    return (
        np.exp(-dividend * maturity)
        * norm.pdf(_d1)
        / (np.asarray(spot) * volatility * np.sqrt(maturity))
    )


def bs_vega(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Vega (identical for calls and puts), per unit of volatility."""
    _d1 = d1(spot, strike, rate, volatility, maturity, dividend)
    return np.asarray(spot) * np.exp(-dividend * maturity) * norm.pdf(_d1) * np.sqrt(maturity)


def bs_call_theta(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Theta of a European call (per year, derivative w.r.t. calendar time)."""
    _d1 = d1(spot, strike, rate, volatility, maturity, dividend)
    _d2 = _d1 - volatility * np.sqrt(maturity)
    term1 = (
        -np.asarray(spot)
        * np.exp(-dividend * maturity)
        * norm.pdf(_d1)
        * volatility
        / (2.0 * np.sqrt(maturity))
    )
    term2 = dividend * np.asarray(spot) * np.exp(-dividend * maturity) * norm.cdf(_d1)
    term3 = -rate * strike * np.exp(-rate * maturity) * norm.cdf(_d2)
    return term1 + term2 + term3


def bs_put_theta(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Theta of a European put (per year)."""
    _d1 = d1(spot, strike, rate, volatility, maturity, dividend)
    _d2 = _d1 - volatility * np.sqrt(maturity)
    term1 = (
        -np.asarray(spot)
        * np.exp(-dividend * maturity)
        * norm.pdf(_d1)
        * volatility
        / (2.0 * np.sqrt(maturity))
    )
    term2 = -dividend * np.asarray(spot) * np.exp(-dividend * maturity) * norm.cdf(-_d1)
    term3 = rate * strike * np.exp(-rate * maturity) * norm.cdf(-_d2)
    return term1 + term2 + term3


def bs_call_rho(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Rho of a European call (derivative w.r.t. the interest rate)."""
    _d2 = d2(spot, strike, rate, volatility, maturity, dividend)
    return strike * maturity * np.exp(-rate * maturity) * norm.cdf(_d2)


def bs_put_rho(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Rho of a European put."""
    _d2 = d2(spot, strike, rate, volatility, maturity, dividend)
    return -strike * maturity * np.exp(-rate * maturity) * norm.cdf(-_d2)


def digital_call_price(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Cash-or-nothing digital call (pays 1 if ``S_T > K``)."""
    _d2 = d2(spot, strike, rate, volatility, maturity, dividend)
    return np.exp(-rate * maturity) * norm.cdf(_d2)


def digital_put_price(spot, strike, rate, volatility, maturity, dividend=0.0):
    """Cash-or-nothing digital put (pays 1 if ``S_T < K``)."""
    _d2 = d2(spot, strike, rate, volatility, maturity, dividend)
    return np.exp(-rate * maturity) * norm.cdf(-_d2)


def black_formula(forward, strike, volatility, maturity, discount_factor, is_call=True):
    """Black-76 formula on a forward: used by the moment-matched basket proxy."""
    forward = np.asarray(forward, dtype=float)
    strike = np.asarray(strike, dtype=float)
    if np.any(forward <= 0) or np.any(strike <= 0):
        raise ValueError("forward and strike must be strictly positive")
    stddev = volatility * np.sqrt(maturity)
    _d1 = (np.log(forward / strike) + 0.5 * stddev**2) / stddev
    _d2 = _d1 - stddev
    if is_call:
        return discount_factor * (forward * norm.cdf(_d1) - strike * norm.cdf(_d2))
    return discount_factor * (strike * norm.cdf(-_d2) - forward * norm.cdf(-_d1))


# ---------------------------------------------------------------------------
# Reiner-Rubinstein barrier formulas (continuous monitoring)
# ---------------------------------------------------------------------------

def _barrier_terms(spot, strike, barrier, rate, volatility, maturity, dividend, phi, eta):
    """Common A/B/C/D terms of the Reiner-Rubinstein barrier pricing formulas.

    ``phi`` is +1 for calls and -1 for puts; ``eta`` is +1 for down barriers
    and -1 for up barriers.
    """
    sigma_sqrt = volatility * np.sqrt(maturity)
    mu = (rate - dividend - 0.5 * volatility**2) / volatility**2
    lam = mu + 1.0
    x1 = np.log(spot / strike) / sigma_sqrt + lam * sigma_sqrt
    x2 = np.log(spot / barrier) / sigma_sqrt + lam * sigma_sqrt
    y1 = np.log(barrier**2 / (spot * strike)) / sigma_sqrt + lam * sigma_sqrt
    y2 = np.log(barrier / spot) / sigma_sqrt + lam * sigma_sqrt
    df_div = np.exp(-dividend * maturity)
    df_rate = np.exp(-rate * maturity)
    hs = barrier / spot

    a = phi * spot * df_div * norm.cdf(phi * x1) - phi * strike * df_rate * norm.cdf(
        phi * (x1 - sigma_sqrt)
    )
    b = phi * spot * df_div * norm.cdf(phi * x2) - phi * strike * df_rate * norm.cdf(
        phi * (x2 - sigma_sqrt)
    )
    c = phi * spot * df_div * hs ** (2 * lam) * norm.cdf(eta * y1) - phi * strike * df_rate * hs ** (
        2 * mu
    ) * norm.cdf(eta * (y1 - sigma_sqrt))
    d = phi * spot * df_div * hs ** (2 * lam) * norm.cdf(eta * y2) - phi * strike * df_rate * hs ** (
        2 * mu
    ) * norm.cdf(eta * (y2 - sigma_sqrt))
    return a, b, c, d


def barrier_call_price(
    spot, strike, barrier, rate, volatility, maturity, dividend=0.0, barrier_type="down-out"
):
    """Continuously monitored single-barrier call price (no rebate).

    Supported ``barrier_type`` values: ``"down-out"``, ``"down-in"``,
    ``"up-out"``, ``"up-in"``.  An already knocked-out option (spot beyond
    the barrier) is worth 0; an already knocked-in option is the vanilla.
    """
    spot, strike, maturity, volatility = _validate(spot, strike, maturity, volatility)
    if barrier <= 0:
        raise ValueError("barrier must be strictly positive")
    vanilla = bs_call_price(spot, strike, rate, volatility, maturity, dividend)
    is_down = barrier_type.startswith("down")
    is_out = barrier_type.endswith("out")
    if is_down and np.any(spot <= barrier):
        knocked = True
    elif not is_down and np.any(spot >= barrier):
        knocked = True
    else:
        knocked = False
    if knocked:
        return np.zeros_like(vanilla) if is_out else vanilla

    eta = 1.0 if is_down else -1.0
    phi = 1.0
    a, b, c, d = _barrier_terms(
        spot, strike, barrier, rate, volatility, maturity, dividend, phi, eta
    )
    if is_down:
        # down-and-in call
        knock_in = c if barrier <= strike else a - b + d
    else:
        # up-and-in call
        knock_in = a if barrier <= strike else b - c + d
    knock_in = np.maximum(knock_in, 0.0)
    if is_out:
        return np.maximum(vanilla - knock_in, 0.0)
    return knock_in


def barrier_put_price(
    spot, strike, barrier, rate, volatility, maturity, dividend=0.0, barrier_type="down-out"
):
    """Continuously monitored single-barrier put price (no rebate)."""
    spot, strike, maturity, volatility = _validate(spot, strike, maturity, volatility)
    if barrier <= 0:
        raise ValueError("barrier must be strictly positive")
    vanilla = bs_put_price(spot, strike, rate, volatility, maturity, dividend)
    is_down = barrier_type.startswith("down")
    is_out = barrier_type.endswith("out")
    if is_down and np.any(spot <= barrier):
        knocked = True
    elif not is_down and np.any(spot >= barrier):
        knocked = True
    else:
        knocked = False
    if knocked:
        return np.zeros_like(vanilla) if is_out else vanilla

    eta = 1.0 if is_down else -1.0
    phi = -1.0
    a, b, c, d = _barrier_terms(
        spot, strike, barrier, rate, volatility, maturity, dividend, phi, eta
    )
    if is_down:
        # down-and-in put
        knock_in = b - c + d if barrier <= strike else a
    else:
        # up-and-in put
        knock_in = a - b + d if barrier <= strike else c
    knock_in = np.maximum(knock_in, 0.0)
    if is_out:
        return np.maximum(vanilla - knock_in, 0.0)
    return knock_in

"""The closed-form analytics as the tests read them.

Every formula is :mod:`repro.pricing.analytics`'s own; only the inversion
below lives here, because only tests invert a price (``test_fourier`` reads
a Heston smile through it).
"""

from __future__ import annotations

import numpy as np

from repro.pricing.analytics import *  # noqa: F403 - one name for the formulas and their inverse
from repro.pricing.analytics import bs_call_price, bs_put_price, bs_vega


def bs_implied_volatility(
    price, spot, strike, rate, maturity, dividend=0.0, is_call=True, tol=1e-10, max_iter=100
):
    """Implied Black-Scholes volatility via a safeguarded Newton iteration.

    Raises ``ValueError`` when the target price lies outside the no-arbitrage
    bounds of the option.
    """
    price = float(price)
    intrinsic_call = max(spot * np.exp(-dividend * maturity) - strike * np.exp(-rate * maturity), 0.0)
    intrinsic_put = max(strike * np.exp(-rate * maturity) - spot * np.exp(-dividend * maturity), 0.0)
    upper = spot * np.exp(-dividend * maturity) if is_call else strike * np.exp(-rate * maturity)
    lower = intrinsic_call if is_call else intrinsic_put
    if not lower - 1e-12 <= price <= upper + 1e-12:
        raise ValueError("price outside no-arbitrage bounds; no implied volatility exists")

    sigma = 0.3
    lo, hi = 1e-8, 5.0
    for _ in range(max_iter):
        model_price = (
            bs_call_price(spot, strike, rate, sigma, maturity, dividend)
            if is_call
            else bs_put_price(spot, strike, rate, sigma, maturity, dividend)
        )
        diff = model_price - price
        if abs(diff) < tol:
            return float(sigma)
        if diff > 0:
            hi = sigma
        else:
            lo = sigma
        vega = bs_vega(spot, strike, rate, sigma, maturity, dividend)
        if vega > 1e-12:
            newton = sigma - diff / vega
        else:
            newton = 0.5 * (lo + hi)
        # Keep the Newton step inside the bracketing interval
        sigma = newton if lo < newton < hi else 0.5 * (lo + hi)
    return float(sigma)

"""Asian (average-price) options.

Not explicitly part of the paper's example portfolio, but Premia prices them
and the non-regression workload (Table I) is defined as "a single instance of
any pricing problem which can be solved using Premia".  Including a
path-dependent averaging product broadens the cost spectrum of the regression
workload in the same spirit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.products.base import ExerciseStyle, Product
from repro.pricing.validation import check_count

__all__ = ["AsianOption", "AsianCall", "AsianPut"]


class AsianOption(Product):
    """Arithmetic-average Asian option with discrete monitoring.

    The average is taken over the monitoring grid supplied by the pricer
    (``times[1:]``, i.e. excluding the valuation date).

    Parameters
    ----------
    strike:
        Fixed strike ``K``.
    maturity:
        Time to expiry in years.
    payoff_type:
        ``"call"`` (``max(A - K, 0)``) or ``"put"`` (``max(K - A, 0)``).
    n_fixings:
        Suggested number of averaging dates; Monte-Carlo pricers use it to
        build their time grid.
    """

    option_name = "AsianEuro"
    exercise = ExerciseStyle.EUROPEAN
    path_dependent = True

    def __init__(
        self, strike: float, maturity: float, payoff_type: str = "call", n_fixings: int = 12
    ):
        super().__init__(maturity)
        if strike <= 0:
            raise PricingError("strike must be strictly positive")
        if payoff_type not in ("call", "put"):
            raise PricingError("payoff_type must be 'call' or 'put'")
        if n_fixings < 1:
            raise PricingError("n_fixings must be >= 1")
        self.strike = float(strike)
        self.payoff_type = payoff_type
        self.n_fixings = check_count(n_fixings, "n_fixings")

    def average(self, paths: np.ndarray) -> np.ndarray:
        """Arithmetic average over the monitoring dates (excluding t=0)."""
        paths = np.asarray(paths, dtype=float)
        if paths.ndim != 2:
            raise PricingError("Asian options are single-asset products")
        return paths[:, 1:].mean(axis=1)

    def terminal_payoff(self, spot: np.ndarray) -> np.ndarray:
        """Degenerate payoff treating the terminal value as the average.

        Only used as an intrinsic-value proxy; real pricing goes through
        :meth:`path_payoff`.
        """
        spot = np.asarray(spot, dtype=float)
        if self.payoff_type == "call":
            return np.maximum(spot - self.strike, 0.0)
        return np.maximum(self.strike - spot, 0.0)

    def path_payoff(self, paths: np.ndarray, times: np.ndarray) -> np.ndarray:
        avg = self.average(paths)
        if self.payoff_type == "call":
            return np.maximum(avg - self.strike, 0.0)
        return np.maximum(self.strike - avg, 0.0)

    def to_params(self) -> dict[str, Any]:
        return {
            "strike": self.strike,
            "maturity": self.maturity,
            "payoff_type": self.payoff_type,
            "n_fixings": self.n_fixings,
        }


class AsianCall(AsianOption):
    """Arithmetic-average Asian call."""

    option_name = "AsianCallEuro"

    def __init__(self, strike: float, maturity: float, n_fixings: int = 12):
        super().__init__(strike=strike, maturity=maturity, payoff_type="call", n_fixings=n_fixings)

    def to_params(self) -> dict[str, Any]:
        return {"strike": self.strike, "maturity": self.maturity, "n_fixings": self.n_fixings}


class AsianPut(AsianOption):
    """Arithmetic-average Asian put."""

    option_name = "AsianPutEuro"

    def __init__(self, strike: float, maturity: float, n_fixings: int = 12):
        super().__init__(strike=strike, maturity=maturity, payoff_type="put", n_fixings=n_fixings)

    def to_params(self) -> dict[str, Any]:
        return {"strike": self.strike, "maturity": self.maturity, "n_fixings": self.n_fixings}

"""Fourier-cosine (COS) pricing of European options.

The COS method of Fang & Oosterlee (2008) prices European calls and puts for
any model whose characteristic function of ``log(S_T / S_0)`` is known --
Black-Scholes, Heston and Merton in this library.  It is used both as a
standalone pricing method (it is the reference method for Heston Europeans in
the non-regression workload) and as ground truth for validating the
Monte-Carlo pricers on stochastic-volatility and jump models.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.methods.base import PricingMethod, PricingResult
from repro.pricing.models.base import Model
from repro.pricing.products.base import Product
from repro.pricing.products.vanilla import DigitalCall, DigitalPut, EuropeanCall, EuropeanPut
from repro.pricing.validation import check_count

__all__ = ["FourierCOS"]


def _chi(k: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    """Cosine coefficients of ``exp(x)`` on ``[c, d]`` within ``[a, b]``."""
    omega = k * np.pi / (b - a)
    denom = 1.0 + omega**2
    return (
        np.cos(omega * (d - a)) * np.exp(d)
        - np.cos(omega * (c - a)) * np.exp(c)
        + omega * np.sin(omega * (d - a)) * np.exp(d)
        - omega * np.sin(omega * (c - a)) * np.exp(c)
    ) / denom


def _psi(k: np.ndarray, a: float, b: float, c: float, d: float) -> np.ndarray:
    """Cosine coefficients of ``1`` on ``[c, d]`` within ``[a, b]``."""
    omega = k * np.pi / (b - a)
    out = np.empty_like(omega)
    nonzero = omega != 0
    out[nonzero] = (
        np.sin(omega[nonzero] * (d - a)) - np.sin(omega[nonzero] * (c - a))
    ) / omega[nonzero]
    out[~nonzero] = d - c
    return out


class FourierCOS(PricingMethod):
    """COS-method pricer for European vanilla and digital options.

    Parameters
    ----------
    n_terms:
        Number of cosine expansion terms (default 256; 64 is usually enough
        for Black-Scholes, Heston benefits from more).
    truncation_width:
        Half width ``L`` of the integration interval in units of the standard
        deviation of ``log(S_T/S_0)``, estimated numerically from the
        characteristic function (default 12).
    """

    method_name = "FFT_COS"

    def __init__(self, n_terms: int = 256, truncation_width: float = 12.0):
        if n_terms < 8:
            raise PricingError("n_terms must be at least 8")
        if truncation_width <= 0:
            raise PricingError("truncation_width must be positive")
        self.n_terms = check_count(n_terms, "n_terms")
        self.truncation_width = float(truncation_width)

    def to_params(self) -> dict[str, Any]:
        return {"n_terms": self.n_terms, "truncation_width": self.truncation_width}

    def supports(self, model: Model, product: Product) -> bool:
        if not isinstance(product, (EuropeanCall, EuropeanPut, DigitalCall, DigitalPut)):
            return False
        if model.dimension != 1:
            return False
        try:
            model.log_char_function(np.array([0.5]), product.maturity)
        except Exception:
            return False
        return True

    # -- helpers ---------------------------------------------------------------
    def _cumulants(self, model: Model, maturity: float) -> tuple[float, float]:
        """Numerical mean and variance of ``log(S_T/S_0)`` from the
        characteristic function (finite differences of ``log phi`` at 0)."""
        h = 1e-4
        u = np.array([-2 * h, -h, 0.0, h, 2 * h])
        phi = model.log_char_function(u, maturity)
        log_phi = np.log(phi)
        first = (log_phi[3] - log_phi[1]) / (2 * h)
        second = (log_phi[3] - 2 * log_phi[2] + log_phi[1]) / h**2
        mean = float(np.imag(first))
        var = float(max(-np.real(second), 1e-12))
        return mean, var

    def _price(self, model: Model, product: Product) -> PricingResult:
        maturity = product.maturity
        strike = product.strike
        spot = float(np.asarray(model.spot).reshape(-1)[0])
        discount = model.discount_factor(maturity)

        mean, var = self._cumulants(model, maturity)
        width = self.truncation_width * np.sqrt(var)
        # interval for y = log(S_T / K); x = log(S_0 / K)
        x = np.log(spot / strike)
        a = x + mean - width
        b = x + mean + width

        k = np.arange(self.n_terms)
        omega = k * np.pi / (b - a)
        phi = model.log_char_function(omega, maturity)
        # characteristic function of log(S_T/K) = log(S_T/S_0) + x
        phi_adj = phi * np.exp(1j * omega * (x - a))

        if isinstance(product, EuropeanCall):
            v_k = 2.0 / (b - a) * strike * (_chi(k, a, b, 0.0, b) - _psi(k, a, b, 0.0, b))
        elif isinstance(product, EuropeanPut):
            v_k = 2.0 / (b - a) * strike * (-_chi(k, a, b, a, 0.0) + _psi(k, a, b, a, 0.0))
        elif isinstance(product, DigitalCall):
            v_k = 2.0 / (b - a) * _psi(k, a, b, 0.0, b)
        else:  # DigitalPut
            v_k = 2.0 / (b - a) * _psi(k, a, b, a, 0.0)

        terms = np.real(phi_adj) * v_k
        terms[0] *= 0.5
        price = discount * float(np.sum(terms))
        price = max(price, 0.0)
        return PricingResult(
            price=price,
            n_evaluations=self.n_terms,
            extra={"interval": (float(a), float(b)), "n_terms": self.n_terms},
        )

"""Lattice (tree) pricing methods.

Premia's public release "contains finite difference algorithms, tree methods
and Monte Carlo methods"; the Cox-Ross-Rubinstein binomial tree and a
Kamrad-Ritchken trinomial tree are provided here.  Both handle European and
American exercise on one-dimensional Black-Scholes-type dynamics and serve as
independent references for validating the PDE and Longstaff-Schwartz pricers
in the test-suite.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.methods.base import PricingMethod, PricingResult
from repro.pricing.models.base import Model
from repro.pricing.models.black_scholes import BlackScholesModel
from repro.pricing.products.american import AmericanCall, AmericanPut
from repro.pricing.products.base import ExerciseStyle, Product
from repro.pricing.products.vanilla import EuropeanCall, EuropeanPut
from repro.pricing.validation import check_count

__all__ = ["BinomialTree", "TrinomialTree"]

_SUPPORTED_PRODUCTS = (EuropeanCall, EuropeanPut, AmericanCall, AmericanPut)


class BinomialTree(PricingMethod):
    """Cox-Ross-Rubinstein binomial tree.

    Parameters
    ----------
    n_steps:
        Number of time steps.  The price converges to the Black-Scholes /
        American value at rate ``O(1/n_steps)``.
    """

    method_name = "TR_CoxRossRubinstein"

    def __init__(self, n_steps: int = 500):
        self.n_steps = check_count(n_steps, "n_steps")

    def to_params(self) -> dict[str, Any]:
        return {"n_steps": self.n_steps}

    def supports(self, model: Model, product: Product) -> bool:
        return isinstance(model, BlackScholesModel) and isinstance(
            product, _SUPPORTED_PRODUCTS
        )

    def _price(self, model: BlackScholesModel, product: Product) -> PricingResult:
        n = self.n_steps
        dt = product.maturity / n
        sigma = model.volatility
        u = np.exp(sigma * np.sqrt(dt))
        d = 1.0 / u
        growth = np.exp((model.rate - model.dividend) * dt)
        p = (growth - d) / (u - d)
        if not 0.0 < p < 1.0:
            raise PricingError(
                "risk-neutral probability outside (0, 1); increase n_steps"
            )
        discount = np.exp(-model.rate * dt)
        american = product.exercise == ExerciseStyle.AMERICAN

        # terminal asset values and payoffs
        j = np.arange(n + 1)
        terminal_spots = model.spot * u**j * d ** (n - j)
        values = product.terminal_payoff(terminal_spots)

        # keep the first two layers to read delta off the tree
        layer1_values: np.ndarray | None = None
        for step in range(n - 1, -1, -1):
            values = discount * (p * values[1:] + (1.0 - p) * values[:-1])
            if american:
                j = np.arange(step + 1)
                spots = model.spot * u**j * d ** (step - j)
                values = np.maximum(values, product.intrinsic_value(spots))
            if step == 1:
                layer1_values = values.copy()

        price = float(values[0])
        delta = None
        if layer1_values is not None and len(layer1_values) == 2:
            s_up = model.spot * u
            s_dn = model.spot * d
            delta = float((layer1_values[1] - layer1_values[0]) / (s_up - s_dn))
        return PricingResult(
            price=price,
            delta=delta,
            n_evaluations=(n + 1) * (n + 2) // 2,
            extra={"u": float(u), "d": float(d), "p": float(p)},
        )


class TrinomialTree(PricingMethod):
    """Kamrad-Ritchken trinomial tree (lambda = sqrt(3/2))."""

    method_name = "TR_Trinomial"

    def __init__(self, n_steps: int = 300, stretch: float = np.sqrt(1.5)):
        if stretch < 1.0:
            raise PricingError("stretch parameter must be >= 1")
        self.n_steps = check_count(n_steps, "n_steps")
        self.stretch = float(stretch)

    def to_params(self) -> dict[str, Any]:
        return {"n_steps": self.n_steps, "stretch": self.stretch}

    def supports(self, model: Model, product: Product) -> bool:
        return isinstance(model, BlackScholesModel) and isinstance(
            product, _SUPPORTED_PRODUCTS
        )

    def _price(self, model: BlackScholesModel, product: Product) -> PricingResult:
        n = self.n_steps
        dt = product.maturity / n
        sigma = model.volatility
        lam = self.stretch
        dx = lam * sigma * np.sqrt(dt)
        nu = model.rate - model.dividend - 0.5 * sigma**2
        pu = 0.5 / lam**2 + 0.5 * nu * np.sqrt(dt) / (lam * sigma)
        pd = 0.5 / lam**2 - 0.5 * nu * np.sqrt(dt) / (lam * sigma)
        pm = 1.0 - pu - pd
        if min(pu, pm, pd) < 0.0:
            raise PricingError(
                "negative trinomial probability; increase n_steps or the stretch"
            )
        discount = np.exp(-model.rate * dt)
        american = product.exercise == ExerciseStyle.AMERICAN

        j = np.arange(-n, n + 1)
        spots = model.spot * np.exp(j * dx)
        values = product.terminal_payoff(spots)

        layer1_values: np.ndarray | None = None
        layer1_spots: np.ndarray | None = None
        for step in range(n - 1, -1, -1):
            values = discount * (pu * values[2:] + pm * values[1:-1] + pd * values[:-2])
            j = np.arange(-step, step + 1)
            spots = model.spot * np.exp(j * dx)
            if american:
                values = np.maximum(values, product.intrinsic_value(spots))
            if step == 1:
                layer1_values = values.copy()
                layer1_spots = spots.copy()

        price = float(values[0])
        delta = None
        if layer1_values is not None and layer1_spots is not None and len(layer1_values) == 3:
            delta = float(
                (layer1_values[2] - layer1_values[0]) / (layer1_spots[2] - layer1_spots[0])
            )
        return PricingResult(
            price=price,
            delta=delta,
            n_evaluations=(n + 1) ** 2,
            extra={"pu": float(pu), "pm": float(pm), "pd": float(pd)},
        )

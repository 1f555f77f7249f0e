"""American Monte-Carlo pricing by Longstaff-Schwartz regression.

The paper's example problem (Section 3.3) is an American option in the Heston
model priced with ``MC_AM_Alfonsi_LongstaffSchwartz``; the realistic
portfolio additionally contains 525 American put options on a 7-dimensional
basket priced by "American Monte-Carlo techniques".  This module implements
the Longstaff-Schwartz least-squares algorithm for both cases:

* single-asset American options under any 1-d model of the library
  (Black-Scholes, local volatility, Heston -- for Heston the variance is
  simulated with the Alfonsi scheme when ``heston_scheme="alfonsi"``);
* American basket options under the multi-asset Black-Scholes model, with a
  regression basis built on the basket value.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.methods.base import PricingMethod, PricingResult
from repro.pricing.models.base import Model, MultiAssetModel
from repro.pricing.models.heston import HestonModel
from repro.pricing.products.american import AmericanBasketCall, AmericanBasketPut, AmericanCall, AmericanPut
from repro.pricing.products.base import ExerciseStyle, Product
from repro.pricing.rng import AntitheticGenerator, create_generator
from repro.pricing.validation import check_count

__all__ = ["LongstaffSchwartz"]


def _polynomial_basis(x: np.ndarray, degree: int) -> np.ndarray:
    """Vandermonde-style polynomial basis ``[1, x, x^2, ..., x^degree]``.

    ``x`` is normalised by its mean to keep the regression well conditioned.
    """
    scale = np.mean(np.abs(x))
    scale = scale if scale > 1e-12 else 1.0
    xn = x / scale
    return np.column_stack([xn**k for k in range(degree + 1)])


class LongstaffSchwartz(PricingMethod):
    """Least-squares American Monte-Carlo (Longstaff-Schwartz 2001).

    Parameters
    ----------
    n_paths:
        Number of simulated paths.
    n_steps:
        Number of exercise dates (a Bermudan approximation of the American
        exercise right; 50 dates per year is the default).
    basis_degree:
        Degree of the polynomial regression basis in the state variable
        (the asset price, or the basket value for basket options).
    antithetic, rng_kind, seed:
        Random number generation controls, as for
        :class:`~repro.pricing.methods.montecarlo.MonteCarloEuropean`.
    heston_scheme:
        Variance discretisation scheme used when the model is Heston:
        ``"alfonsi"`` (default, the scheme named in the paper) or
        ``"full_truncation"``.
    """

    method_name = "MC_AM_LongstaffSchwartz"

    def __init__(
        self,
        n_paths: int = 50_000,
        n_steps: int | None = None,
        basis_degree: int = 3,
        antithetic: bool = True,
        rng_kind: str = "pcg64",
        seed: int = 0,
        heston_scheme: str = "alfonsi",
    ):
        if n_paths < 10:
            raise PricingError("n_paths must be at least 10")
        if n_steps is not None and n_steps < 2:
            raise PricingError("n_steps must be >= 2 when given")
        if basis_degree < 1:
            raise PricingError("basis_degree must be >= 1")
        if heston_scheme not in ("alfonsi", "full_truncation"):
            raise PricingError(f"unknown heston_scheme: {heston_scheme!r}")
        self.n_paths = check_count(n_paths, "n_paths")
        self.n_steps = None if n_steps is None else check_count(n_steps, "n_steps")
        self.basis_degree = check_count(basis_degree, "basis_degree")
        self.antithetic = bool(antithetic)
        self.rng_kind = str(rng_kind)
        self.seed = check_count(seed, "seed", 0)
        self.heston_scheme = heston_scheme

    def to_params(self) -> dict[str, Any]:
        return {
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "basis_degree": self.basis_degree,
            "antithetic": self.antithetic,
            "rng_kind": self.rng_kind,
            "seed": self.seed,
            "heston_scheme": self.heston_scheme,
        }

    # -- compatibility ---------------------------------------------------------
    def supports(self, model: Model, product: Product) -> bool:
        if product.exercise != ExerciseStyle.AMERICAN:
            return False
        if isinstance(product, (AmericanPut, AmericanCall)):
            return model.dimension == 1
        if isinstance(product, (AmericanBasketPut, AmericanBasketCall)):
            return isinstance(model, MultiAssetModel) and model.dimension == product.dimension
        return False

    # -- helpers -----------------------------------------------------------------
    def _effective_steps(self, product: Product) -> int:
        if self.n_steps is not None:
            return self.n_steps
        return max(10, int(np.ceil(50 * product.maturity)))

    def _state_variable(self, slice_values: np.ndarray, product: Product) -> np.ndarray:
        """Scalar regression state: asset price or basket value."""
        if slice_values.ndim == 1:
            return slice_values
        if isinstance(product, (AmericanBasketPut, AmericanBasketCall)):
            return slice_values @ product.weights
        return slice_values.mean(axis=1)

    def _exercise_value(self, slice_values: np.ndarray, product: Product) -> np.ndarray:
        return product.intrinsic_value(slice_values)

    # -- pricing -----------------------------------------------------------------
    def _price(self, model: Model, product: Product) -> PricingResult:
        n_steps = self._effective_steps(product)
        n_paths = self.n_paths
        if self.antithetic and n_paths % 2:
            n_paths += 1
        rng = create_generator(self.rng_kind, seed=self.seed, dimension=max(model.dimension, 1))
        if self.antithetic:
            rng = AntitheticGenerator(rng)
        times = np.linspace(0.0, product.maturity, n_steps + 1)

        if isinstance(model, HestonModel):
            paths = model.simulate_paths(rng, n_paths, times, scheme=self.heston_scheme)
        else:
            paths = model.simulate_paths(rng, n_paths, times)

        dt = product.maturity / n_steps
        step_discount = np.exp(-model.rate * dt)

        # cashflows received when following the current (sub)optimal policy,
        # expressed as value at the *current* step during backward induction
        terminal_slice = paths[:, -1] if paths.ndim == 2 else paths[:, -1, :]
        cashflows = self._exercise_value(terminal_slice, product).astype(float)

        for step in range(n_steps - 1, 0, -1):
            cashflows *= step_discount
            slice_values = paths[:, step] if paths.ndim == 2 else paths[:, step, :]
            exercise = self._exercise_value(slice_values, product)
            itm = exercise > 0.0
            if itm.sum() >= self.basis_degree + 2:
                state = self._state_variable(slice_values, product)
                basis = _polynomial_basis(state[itm], self.basis_degree)
                coeffs, *_ = np.linalg.lstsq(basis, cashflows[itm], rcond=None)
                continuation = basis @ coeffs
                exercise_now = exercise[itm] > continuation
                idx = np.where(itm)[0][exercise_now]
                cashflows[idx] = exercise[itm][exercise_now]
        cashflows *= step_discount

        # the option can also be exercised immediately at the valuation date
        spot0 = paths[:, 0] if paths.ndim == 2 else paths[:, 0, :]
        immediate = float(np.mean(self._exercise_value(spot0[:1], product)))

        mean = float(np.mean(cashflows))
        std_error = float(np.std(cashflows, ddof=1) / np.sqrt(n_paths))
        price = max(mean, immediate)
        half_width = 1.96 * std_error
        return PricingResult(
            price=price,
            std_error=std_error,
            confidence_interval=(price - half_width, price + half_width),
            n_evaluations=n_paths * n_steps,
            extra={
                "n_paths": n_paths,
                "n_steps": n_steps,
                "immediate_exercise": immediate,
                "basis_degree": self.basis_degree,
            },
        )

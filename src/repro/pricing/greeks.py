"""Bump-and-revalue Greeks for arbitrary (model, product, method) triples.

Closed-form and lattice methods return a delta directly; for the others --
and for higher-order or cross sensitivities required by the risk layer
("delta, gamma, vega, ...") -- this module recomputes prices under bumped
model parameters.  The same mechanism powers the parameter sensitivity sweeps
of :mod:`repro.core.risk` ("it is necessary to price the contingent claims
for various values of these model parameters to measure their sensibilities
to the parameters").

The ladder is expanded through :mod:`repro.pricing.scenarios` and priced as
one stacked-kernel campaign -- Monte-Carlo bumps share **one** draw cohort
with the base (common random numbers by construction), so a full ladder
costs two simulations instead of eight.  The bump-by-bump revaluation
reference it is tested against (with ``==``) lives in ``tests/oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PricingError
from repro.pricing.methods.base import PricingMethod
from repro.pricing.models.base import Model
from repro.pricing.products.base import Product

__all__ = ["GreekReport", "bump_model", "maturity_step", "compute_greeks"]

#: model parameters recognised as "volatility-like" for vega bumps, in the
#: order they are looked up
_VOL_PARAMS = ("volatility", "base_volatility", "volatilities", "v0")


@dataclass
class GreekReport:
    """First and second order sensitivities of a price."""

    price: float
    delta: float
    gamma: float
    vega: float | None
    rho: float | None
    theta: float | None = None

    def as_dict(self) -> dict[str, float | None]:
        return {
            "price": self.price,
            "delta": self.delta,
            "gamma": self.gamma,
            "vega": self.vega,
            "rho": self.rho,
            "theta": self.theta,
        }


def bump_model(model: Model, param: str, bump: float, relative: bool = False) -> Model:
    """Return a copy of ``model`` with ``param`` bumped by ``bump``.

    ``param`` must be a key of ``model.to_params()``.  Vector-valued
    parameters (multi-asset spots and volatilities) are bumped element-wise.
    ``relative=True`` multiplies by ``(1 + bump)`` instead of adding.
    """
    params = model.to_params()
    if param not in params:
        raise PricingError(
            f"model {model.model_name!r} has no parameter {param!r}; "
            f"available: {sorted(params)}"
        )
    value = params[param]
    if isinstance(value, (list, tuple, np.ndarray)):
        arr = np.asarray(value, dtype=float)
        params[param] = (arr * (1.0 + bump) if relative else arr + bump).tolist()
    else:
        params[param] = value * (1.0 + bump) if relative else value + bump
    return type(model).from_params(params)


def maturity_step(maturity: float, theta_bump: float) -> float:
    """Calendar step of the theta scenario, clamped to keep maturity positive."""
    return min(float(theta_bump), float(maturity) / 2.0)


def _vol_param(model: Model) -> str | None:
    params = model.to_params()
    for name in _VOL_PARAMS:
        if name in params:
            return name
    return None


def compute_greeks(
    model: Model,
    product: Product,
    method: PricingMethod,
    spot_bump: float = 0.01,
    vol_bump: float = 0.01,
    rate_bump: float = 0.0001,
    compute_vega: bool = True,
    compute_rho: bool = True,
    *,
    theta_bump: float = 1.0 / 365.0,
    compute_theta: bool = True,
) -> GreekReport:
    """Bump-and-revalue Greeks.

    Parameters
    ----------
    spot_bump:
        Relative spot bump used for delta and gamma (default 1%).
    vol_bump:
        Absolute bump of the volatility-like parameter (default 1 vol point).
    rate_bump:
        Absolute bump of the interest rate (default 1 basis point).
    theta_bump:
        Calendar step of the theta scenario (default one day), clamped to
        half the maturity so the rolled-down product stays alive.  Theta is
        the one-sided difference ``(price(T - dt) - price(T)) / dt`` --
        negative for plain long options, as time decay should be.

    Notes
    -----
    For Monte-Carlo methods the bumped estimates share random numbers with
    the base (common random numbers), which keeps the finite-difference
    Greeks usable despite the statistical noise.  This is structural, not
    conventional: all bump scenarios of a stackable model join the base
    problem's **draw cohort** in the stacked kernel
    (:func:`repro.pricing.kernel.run_groups`), so every estimate consumes
    the *same* normal stream object with per-scenario drift/vol broadcast.
    Repricing bump by bump from identically-seeded generators gives the same
    prices bit for bit, which is exactly what the differential suite
    enforces.
    """
    # imported lazily: scenarios builds on this module (no import cycle)
    from repro.pricing.engine import PricingProblem
    from repro.pricing.scenarios import (
        greek_ladder,
        greeks_from_prices,
        price_scenarios,
    )

    problem = PricingProblem.from_instances(model, product, method)
    scenarios = greek_ladder(
        spot_bump=spot_bump, vol_bump=vol_bump, rate_bump=rate_bump,
        theta_bump=theta_bump, compute_vega=compute_vega, compute_rho=compute_rho,
        compute_theta=compute_theta, vol_param=_vol_param(model),
    )
    prices = price_scenarios([problem], scenarios)[0]
    return greeks_from_prices(
        model, product, prices, spot_bump=spot_bump, vol_bump=vol_bump,
        rate_bump=rate_bump, theta_bump=theta_bump,
    )

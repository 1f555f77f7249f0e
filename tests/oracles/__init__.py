"""Reference implementations the risk layer is tested against with ``==``.

Nothing here is fast or shared with production beyond the primitives it
bumps with: :func:`serial_greeks` is the position-by-position
bump-and-revalue ladder (one repricing per bump, common random numbers only
because each repricing re-draws from an identically-seeded generator), and
:func:`solo_cell_pricer` prices every cell of a scenario grid alone with
``problem.compute()`` -- the same oracle ``benchmarks/e2e/harness.verify``
uses.  Pass the latter as ``price_grid=`` to a :mod:`repro.core.risk`
measure to get the measure's serial reference.  :mod:`tests.oracles.samplers`
holds the solo samplers the stackable models carried beside their stacked
ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pricing.engine import PricingProblem
from repro.pricing.greeks import GreekReport, _vol_param, bump_model, maturity_step
from repro.pricing.methods.base import PricingMethod
from repro.pricing.models.base import Model
from repro.pricing.products.base import Product
from repro.pricing.scenarios import Scenario, collect_cell_prices, expand_scenarios

__all__ = ["serial_greeks", "solo_cell_pricer"]


def serial_greeks(
    model: Model,
    product: Product,
    method: PricingMethod,
    spot_bump: float = 0.01,
    vol_bump: float = 0.01,
    rate_bump: float = 0.0001,
    theta_bump: float = 1.0 / 365.0,
) -> GreekReport:
    """Bump-and-revalue Greeks, one ``method.price`` call per bump."""
    base = method.price(model, product).price

    up = bump_model(model, "spot", spot_bump, relative=True)
    down = bump_model(model, "spot", -spot_bump, relative=True)
    price_up = method.price(up, product).price
    price_down = method.price(down, product).price
    h = float(np.asarray(model.spot).mean()) * spot_bump
    delta = (price_up - price_down) / (2.0 * h)
    gamma = (price_up - 2.0 * base + price_down) / h**2

    vega = None
    vol_param = _vol_param(model)
    if vol_param is not None:
        vol_up = bump_model(model, vol_param, vol_bump)
        vol_down = bump_model(model, vol_param, -vol_bump)
        vega = (
            method.price(vol_up, product).price - method.price(vol_down, product).price
        ) / (2.0 * vol_bump)

    rate_up = bump_model(model, "rate", rate_bump)
    rate_down = bump_model(model, "rate", -rate_bump)
    rho = (
        method.price(rate_up, product).price - method.price(rate_down, product).price
    ) / (2.0 * rate_bump)

    step = maturity_step(product.maturity, theta_bump)
    params = product.to_params()
    params["maturity"] = product.maturity - step
    shorter = type(product).from_params(params)
    theta = (method.price(model, shorter).price - base) / step

    return GreekReport(price=base, delta=float(delta), gamma=float(gamma),
                       vega=None if vega is None else float(vega),
                       rho=float(rho), theta=float(theta))


def solo_cell_pricer(
    problems: Sequence[PricingProblem],
    scenarios: Sequence[Scenario],
    on_missing: str = "raise",
) -> list[dict[str, float]]:
    """A ``price_grid`` that prices every cell on its own, no batching."""
    problems = list(problems)
    expanded, cells = expand_scenarios(problems, scenarios, on_missing=on_missing)
    prices = [problem.compute().price for problem in expanded]
    return collect_cell_prices(prices, cells, scenarios, len(problems))

"""Portfolio risk measures: present value, Greeks, sensitivity sweeps, VaR.

The motivation of the paper is daily risk evaluation: "it is necessary to
price the contingent claims for various values of these model parameters to
measure their sensibilities to the parameters.  As a consequence, a huge
number of atomic computations (around 10^6) is necessary to evaluate the risk
of the whole portfolio."  This module provides the post-treatment layer that
turns the per-position prices produced by the benchmark runs into
portfolio-level risk numbers:

* :func:`portfolio_value` -- present value of the portfolio;
* :func:`portfolio_greeks` -- aggregated delta / gamma / vega / rho / theta;
* :func:`sensitivity_sweep` -- revalue the portfolio on a grid of bumped
  model parameters (the "various values of these model parameters");
* :func:`scenario_jobs` -- expand a portfolio x scenarios into the flat job
  list that the cluster values (this is what multiplies a few thousand
  claims into ~10^6 atomic computations);
* :func:`historical_var` -- one-day value-at-risk from historical spot
  returns, revaluing the portfolio under each historical shock.

Every measure is *scenario set -> priced grid -> fold*.  The scenario sets
and the grid come from :mod:`repro.pricing.scenarios`; the one thing that
varies is who prices the grid, the keyword-only ``price_grid`` argument:
:func:`~repro.pricing.scenarios.price_scenarios` (default) prices it in
process as one stacked-kernel campaign -- every bumped cell of a position
joins its base's draw cohort, so a Greek ladder or a thousand-scenario VaR
campaign costs a couple of simulations instead of one per cell, with common
random numbers by construction -- and
:meth:`ValuationSession.greeks <repro.api.session.ValuationSession.greeks>`
/ ``.risk`` pass the session's backend-distributed pricer.  The
position-by-position bump-and-revalue references these measures are tested
against (with ``==``) live in ``tests/oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.portfolio import Portfolio, Position
from repro.errors import PortfolioError
from repro.pricing.engine import PricingProblem
from repro.pricing.greeks import GreekReport
from repro.pricing.scenarios import (
    VOL_PARAM,
    Scenario,
    expand_scenarios,
    greek_ladder,
    greeks_from_prices,
    historical_scenarios,
    price_scenarios,
    shock_scenarios,
)

__all__ = [
    "PositionRisk",
    "PortfolioRiskReport",
    "portfolio_value",
    "portfolio_greeks",
    "sensitivity_sweep",
    "scenario_jobs",
    "historical_var",
]

#: ``price_grid(problems, scenarios, on_missing=...)`` -> one ``{scenario
#: name: price}`` mapping per problem (the signature of ``price_scenarios``)
GridPricer = Callable[..., list[dict[str, float]]]


@dataclass
class PositionRisk:
    """Risk numbers of one position (scaled by its quantity)."""

    label: str
    category: str
    quantity: float
    price: float
    delta: float | None = None
    gamma: float | None = None
    vega: float | None = None
    rho: float | None = None
    theta: float | None = None

    @property
    def value(self) -> float:
        return self.quantity * self.price


@dataclass
class PortfolioRiskReport:
    """Aggregated portfolio risk."""

    total_value: float
    total_delta: float
    total_gamma: float
    total_vega: float
    total_rho: float
    total_theta: float = 0.0
    positions: list[PositionRisk] = field(default_factory=list)
    by_category: dict[str, float] = field(default_factory=dict)


def _price_position(position: Position) -> float:
    problem = position.problem
    if problem.has_result:
        return float(problem.get_method_results().price)
    return float(problem.compute().price)


def portfolio_value(
    portfolio: Portfolio, prices: dict[int, float] | None = None
) -> float:
    """Present value ``sum_i quantity_i * price_i``.

    ``prices`` may carry prices already computed by a cluster run (job id ->
    price, job ids being position indices); positions without a supplied
    price are priced locally.
    """
    total = 0.0
    for index, position in enumerate(portfolio):
        if prices is not None and index in prices:
            price = prices[index]
        else:
            price = _price_position(position)
        total += position.quantity * price
    return total


def _aggregate_greeks(
    pairs: Sequence[tuple[Position, GreekReport]],
) -> PortfolioRiskReport:
    """Fold per-position Greek reports into one portfolio report."""
    rows: list[PositionRisk] = []
    by_category: dict[str, float] = {}
    totals = {"value": 0.0, "delta": 0.0, "gamma": 0.0, "vega": 0.0,
              "rho": 0.0, "theta": 0.0}
    for position, report in pairs:
        row = PositionRisk(
            label=position.label,
            category=position.category,
            quantity=position.quantity,
            price=report.price,
            delta=report.delta,
            gamma=report.gamma,
            vega=report.vega,
            rho=report.rho,
            theta=report.theta,
        )
        rows.append(row)
        totals["value"] += row.value
        totals["delta"] += position.quantity * (report.delta or 0.0)
        totals["gamma"] += position.quantity * (report.gamma or 0.0)
        totals["vega"] += position.quantity * (report.vega or 0.0)
        totals["rho"] += position.quantity * (report.rho or 0.0)
        totals["theta"] += position.quantity * (report.theta or 0.0)
        by_category[position.category] = by_category.get(position.category, 0.0) + row.value
    return PortfolioRiskReport(
        total_value=totals["value"],
        total_delta=totals["delta"],
        total_gamma=totals["gamma"],
        total_vega=totals["vega"],
        total_rho=totals["rho"],
        total_theta=totals["theta"],
        positions=rows,
        by_category=by_category,
    )


def _positions(portfolio: Portfolio, measure: str) -> list[Position]:
    positions = portfolio.positions
    if not positions:
        raise PortfolioError(f"cannot compute {measure} of an empty portfolio")
    return positions


def _scenario_values(
    positions: Sequence[Position],
    grids: Sequence[dict[str, float]],
    scenarios: Sequence[Scenario],
) -> list[float]:
    """Portfolio value ``sum_i quantity_i * price_i`` under each scenario."""
    return [
        sum(
            position.quantity * grid[scenario.name]
            for position, grid in zip(positions, grids)
        )
        for scenario in scenarios
    ]


def portfolio_greeks(
    portfolio: Portfolio,
    spot_bump: float = 0.01,
    vol_bump: float = 0.01,
    *,
    rate_bump: float = 0.0001,
    theta_bump: float = 1.0 / 365.0,
    price_grid: GridPricer = price_scenarios,
) -> PortfolioRiskReport:
    """Bump-and-revalue Greeks aggregated over the portfolio.

    The whole book is expanded against one
    :func:`~repro.pricing.scenarios.greek_ladder` and priced as a single
    scenario campaign: all bumped cells of the stackable positions share
    their base's draw cohort, so a 50-position single-model ladder costs two
    simulations instead of ~400 repricings.  Positions whose model has no
    volatility-like parameter simply report ``vega=None`` (their cells are
    skipped).
    """
    positions = _positions(portfolio, "Greeks")
    bumps = {"spot_bump": spot_bump, "vol_bump": vol_bump,
             "rate_bump": rate_bump, "theta_bump": theta_bump}
    ladder = greek_ladder(**bumps, vol_param=VOL_PARAM)
    grids = price_grid(
        [position.problem for position in positions], ladder, on_missing="skip"
    )
    return _aggregate_greeks([
        (
            position,
            greeks_from_prices(
                position.problem.model, position.problem.product, prices, **bumps
            ),
        )
        for position, prices in zip(positions, grids)
    ])


def sensitivity_sweep(
    portfolio: Portfolio,
    param: str,
    bumps: Sequence[float],
    relative: bool = True,
    *,
    price_grid: GridPricer = price_scenarios,
) -> dict[float, float]:
    """Portfolio value as a function of a bumped model parameter.

    Positions whose model does not expose ``param`` are kept unbumped (their
    value still enters the total), so the sweep is well defined on mixed
    portfolios.  The whole (positions x bumps) grid prices as one campaign.
    """
    positions = _positions(portfolio, "a sensitivity sweep")
    scenarios = shock_scenarios(bumps, param=param, relative=relative)
    if not scenarios:
        return {}
    grids = price_grid(
        [position.problem for position in positions], scenarios, on_missing="base"
    )
    values = _scenario_values(positions, grids, scenarios)
    return {float(bump): value for bump, value in zip(bumps, values)}


def scenario_jobs(
    portfolio: Portfolio,
    param: str,
    bumps: Sequence[float],
    relative: bool = True,
) -> list[PricingProblem]:
    """Expand a portfolio into one pricing problem per (position, scenario).

    This is the workload multiplication the paper's introduction describes: a
    portfolio of a few thousand claims times a few hundred parameter
    scenarios yields the ~10^6 atomic computations of a full risk run.  The
    returned problems can be wrapped into a :class:`Portfolio` and fed to the
    cluster runner like any other workload.  A position whose model lacks
    ``param`` is skipped; the grid stays dense for the rest.
    """
    scenarios = shock_scenarios(bumps, param=param, relative=relative)
    problems, _ = expand_scenarios(
        [position.problem for position in portfolio], scenarios, on_missing="skip"
    )
    return problems


def historical_var(
    portfolio: Portfolio,
    spot_returns: Sequence[float],
    confidence: float = 0.99,
    *,
    price_grid: GridPricer = price_scenarios,
) -> dict[str, Any]:
    """One-day historical value-at-risk of the portfolio.

    Each historical return ``r`` defines a scenario in which every underlying
    spot is shocked by ``(1 + r)``; the portfolio is revalued under each
    scenario and the VaR is the ``confidence``-quantile of the loss
    distribution relative to the base value.

    Base and all shocked states price as **one** scenario campaign: spot
    shocks leave the time grid and method untouched, so a thousand
    historical scenarios of a stackable book share a single draw cohort
    instead of a thousand portfolio revaluations.
    """
    if not 0.5 < confidence < 1.0:
        raise PortfolioError("confidence must lie in (0.5, 1)")
    returns = [float(shock) for shock in spot_returns]
    if not returns:
        raise PortfolioError("need at least one historical return")
    positions = _positions(portfolio, "a historical VaR")
    scenarios = historical_scenarios(returns)
    grids = price_grid(
        [position.problem for position in positions], scenarios, on_missing="base"
    )
    base_value, *shocked = _scenario_values(positions, grids, scenarios)
    scenario_values = np.asarray(shocked)
    losses = base_value - scenario_values
    var = float(np.quantile(losses, confidence))
    expected_shortfall = float(losses[losses >= var].mean()) if np.any(losses >= var) else var
    return {
        "base_value": float(base_value),
        "var": var,
        "expected_shortfall": expected_shortfall,
        "confidence": confidence,
        "n_scenarios": int(scenario_values.size),
        "worst_loss": float(losses.max()),
        "scenario_values": scenario_values.tolist(),
    }

"""Scenario-grid planning: common-random-numbers bump campaigns on the batch engine.

The paper's motivating workload is daily portfolio risk -- "price the
contingent claims for various values of these model parameters ... a huge
number of atomic computations (around 10^6)".  Bump-and-revalue risk is a
*scenario grid*: (portfolio positions) x (bumped market states), where every
cell prices the same product under a slightly perturbed model.  Priced
naively, every cell re-simulates its own path set; priced through this
module, the grid is expanded into :func:`~repro.pricing.batch.plan_batches`
groups tagged with their scenario coordinates and evaluated by
``price_problems(kernel="stacked")`` -- and because the stacked kernel's
draw cohorts (:func:`repro.pricing.kernel.run_groups`) key on the *method*
(rng kind, seed, antithetic, path counts) and the time grid but **not** on
the model parameters of stackable schemes, every bumped variant of a
position lands in the same cohort as its base and consumes the **one**
shared normal stream with its own drift/vol broadcast.

Common random numbers therefore hold *by construction*: the bumped and base
estimates differ only in the deterministic per-group arithmetic applied to
one shared draw, not by the convention that re-seeding reproduces the same
stream.  A full Greek ladder over a single-model book collapses to two
simulations (one cohort for the spot/vol/rate bumps, one for the
shorter-maturity theta scenario, which changes the time grid) instead of
one simulation per (position, bump) cell.

Building blocks:

* :class:`Scenario` -- one named market perturbation (a model-parameter
  bump, a maturity roll-down, or the base state);
* :func:`greek_ladder` / :func:`shock_scenarios` /
  :func:`historical_scenarios` -- standard scenario sets;
* :func:`apply_scenario` / :func:`expand_scenarios` -- expand (problems x
  scenarios) into a flat problem list plus :class:`ScenarioCell`
  coordinates (the round-trip from flat index back to (position, scenario)
  is what the property tests pin);
* :func:`price_scenarios` -- expand, price through the batch planner with
  ``min_group_size=1`` (every cell is its own signature group; the stacked
  kernel still clusters them into shared-draw cohorts), and return one
  ``{scenario name: price}`` mapping per input problem;
* :func:`greeks_from_prices` -- assemble finite-difference Greeks from a
  priced ladder with exactly the IEEE expressions of the bump-and-revalue
  reference in ``tests/oracles``, so the Greeks match that oracle bit for
  bit when the prices do.

This module is under the repro-lint determinism contract: it never reads a
wall clock or an entropy source.  All randomness is the seeded generators
of the methods it prices; elapsed-time stamping happens inside the
Monte-Carlo layer, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.errors import PricingError
from repro.pricing.batch import price_problems
from repro.pricing.engine import PricingProblem
from repro.pricing.greeks import GreekReport, _vol_param, bump_model, maturity_step

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pricing.cache import ResultCache
    from repro.pricing.models.base import Model
    from repro.pricing.products.base import Product

__all__ = [
    "VOL_PARAM",
    "Scenario",
    "ScenarioCell",
    "greek_ladder",
    "shock_scenarios",
    "historical_scenarios",
    "apply_scenario",
    "expand_scenarios",
    "collect_cell_prices",
    "price_scenarios",
    "maturity_step",
    "greeks_from_prices",
]

#: symbolic volatility parameter: resolved per model against the
#: volatility-like names of :mod:`repro.pricing.greeks` at expansion time,
#: so one ladder serves a book mixing 1d, basket and stochastic-vol models
VOL_PARAM = "__vol__"

#: scenario targets: the unbumped state, a model-parameter bump, or a
#: calendar roll-down of the product maturity (the theta scenario)
_TARGETS = ("base", "model", "maturity")

#: how expansion treats a scenario a problem cannot realise (see
#: :func:`expand_scenarios`)
_ON_MISSING = ("raise", "skip", "base")


@dataclass(frozen=True)
class Scenario:
    """One named perturbation of the market state.

    ``target="base"`` is the unbumped state (the cell reuses the original
    problem instance).  ``target="model"`` bumps one model parameter --
    ``param`` may be the symbolic :data:`VOL_PARAM`, resolved per model.
    ``target="maturity"`` rolls the product maturity *down* by
    ``maturity_step(maturity, bump)`` (clamped so maturity stays positive),
    which is the calendar-time theta scenario.
    """

    name: str
    target: str = "base"
    param: str | None = None
    bump: float = 0.0
    relative: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise PricingError("a scenario needs a non-empty name")
        if self.target not in _TARGETS:
            raise PricingError(
                f"unknown scenario target {self.target!r}; expected one of {_TARGETS}"
            )
        if self.target == "model" and not self.param:
            raise PricingError("a model scenario needs the bumped parameter name")
        if self.target == "maturity" and not self.bump > 0.0:
            raise PricingError("a maturity scenario needs a positive calendar step")


@dataclass(frozen=True)
class ScenarioCell:
    """Coordinates of one expanded problem: (input problem, scenario)."""

    problem_index: int
    scenario_index: int


# -- standard scenario sets ------------------------------------------------------


def greek_ladder(
    spot_bump: float = 0.01,
    vol_bump: float = 0.01,
    rate_bump: float = 0.0001,
    theta_bump: float = 1.0 / 365.0,
    compute_vega: bool = True,
    compute_rho: bool = True,
    compute_theta: bool = True,
    vol_param: str | None = VOL_PARAM,
) -> tuple[Scenario, ...]:
    """The bump set behind a full finite-difference Greek report.

    Base + up/down spot (relative), up/down volatility (absolute, on
    ``vol_param``; pass ``None`` to drop the vega axis entirely), up/down
    rate (absolute) and the one-sided maturity roll-down for theta.  Every
    bump is a finite-difference step the assembled Greeks divide by, so each
    must be finite and non-zero.
    """
    for name, bump in (("spot_bump", spot_bump), ("vol_bump", vol_bump),
                       ("rate_bump", rate_bump), ("theta_bump", theta_bump)):
        if not math.isfinite(bump) or bump == 0.0:
            raise PricingError(f"{name} must be finite and non-zero, got {bump!r}")
    scenarios = [
        Scenario(name="base"),
        Scenario(name="spot_up", target="model", param="spot",
                 bump=spot_bump, relative=True),
        Scenario(name="spot_down", target="model", param="spot",
                 bump=-spot_bump, relative=True),
    ]
    if compute_vega and vol_param is not None:
        scenarios += [
            Scenario(name="vol_up", target="model", param=vol_param, bump=vol_bump),
            Scenario(name="vol_down", target="model", param=vol_param, bump=-vol_bump),
        ]
    if compute_rho:
        scenarios += [
            Scenario(name="rate_up", target="model", param="rate", bump=rate_bump),
            Scenario(name="rate_down", target="model", param="rate", bump=-rate_bump),
        ]
    if compute_theta:
        scenarios.append(Scenario(name="theta_down", target="maturity", bump=theta_bump))
    return tuple(scenarios)


def shock_scenarios(
    bumps: Sequence[float], param: str = "spot", relative: bool = True
) -> tuple[Scenario, ...]:
    """One scenario per bump of one model parameter (sensitivity surfaces).

    Names carry the grid index so duplicate bump values stay distinct cells.
    """
    return tuple(
        Scenario(name=f"{param}[{index}]{float(bump):+g}", target="model",
                 param=param, bump=float(bump), relative=relative)
        for index, bump in enumerate(bumps)
    )


def historical_scenarios(spot_returns: Sequence[float]) -> tuple[Scenario, ...]:
    """Base + one relative spot shock per historical return (VaR campaigns)."""
    shocks = tuple(
        Scenario(name=f"hist{index:04d}", target="model", param="spot",
                 bump=float(shock), relative=True)
        for index, shock in enumerate(spot_returns)
    )
    return (Scenario(name="base"),) + shocks


# -- expansion -------------------------------------------------------------------


def apply_scenario(problem: PricingProblem, scenario: Scenario) -> PricingProblem:
    """The problem priced under ``scenario``.

    The base scenario returns the *original instance* (its result slot is
    where ``price_problems`` stores the base price); bump scenarios return
    a fresh clone sharing the unbumped components, so the input problem is
    never mutated.  Raises :class:`~repro.errors.PricingError` when the
    problem cannot realise the scenario (unknown model parameter, no
    volatility-like parameter for :data:`VOL_PARAM`).
    """
    return _apply(problem, scenario, _bumped_model)


def _bumped_model(model: "Model", scenario: Scenario) -> "Model":
    """``model`` under a ``target="model"`` scenario."""
    param = scenario.param
    if param == VOL_PARAM:
        param = _vol_param(model)
        if param is None:
            raise PricingError(
                f"model {model.model_name!r} has no volatility-like "
                f"parameter to bump"
            )
    assert param is not None
    return bump_model(model, param, scenario.bump, relative=scenario.relative)


def _apply(
    problem: PricingProblem,
    scenario: Scenario,
    bumped_model: "Callable[[Model, Scenario], Model]",
) -> PricingProblem:
    if not problem.is_complete:
        raise PricingError("scenario expansion needs fully-specified problems")
    if scenario.target == "base":
        return problem
    label = f"{problem.label}|{scenario.name}" if problem.label else scenario.name
    if scenario.target == "model":
        return PricingProblem.from_instances(
            bumped_model(problem.model, scenario), problem.product, problem.method,
            asset=problem.asset, label=label,
        )
    # maturity roll-down: clone the product one calendar step closer to expiry
    product = problem.product
    step = maturity_step(product.maturity, scenario.bump)
    params = product.to_params()
    params["maturity"] = product.maturity - step
    shorter = type(product).from_params(params)
    return PricingProblem.from_instances(
        problem.model, shorter, problem.method, asset=problem.asset, label=label
    )


def expand_scenarios(
    problems: Sequence[PricingProblem],
    scenarios: Sequence[Scenario],
    on_missing: str = "raise",
) -> tuple[list[PricingProblem], list[ScenarioCell]]:
    """Expand (problems x scenarios) into a flat list plus cell coordinates.

    Cells are emitted problem-major then scenario-major, so the flat list is
    a row-major walk of the grid.  ``on_missing`` controls cells whose
    scenario the problem cannot realise: ``"raise"`` propagates the error,
    ``"skip"`` drops the cell (its Greek assembles to ``None``), ``"base"``
    prices the *unbumped* problem in the cell (mixed-portfolio sweeps and
    VaR keep every position's value in every scenario total).

    Within one scenario, positions whose base models have equal parameters
    share **one** bumped model object (as :func:`apply_scenario` shares the
    product and the method): a book on one underlying builds one model per
    scenario, not one per cell.
    """
    if on_missing not in _ON_MISSING:
        raise PricingError(
            f"unknown on_missing {on_missing!r}; expected one of {_ON_MISSING}"
        )
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise PricingError("scenario names must be unique within one grid")
    shared: dict[tuple[str, str], "Model"] = {}

    def shared_bump(model: "Model", scenario: Scenario) -> "Model":
        key = (model.param_digest(), scenario.name)
        bumped = shared.get(key)
        if bumped is None:
            bumped = shared[key] = _bumped_model(model, scenario)
        return bumped

    expanded: list[PricingProblem] = []
    cells: list[ScenarioCell] = []
    for i, problem in enumerate(problems):
        for j, scenario in enumerate(scenarios):
            try:
                cell_problem = _apply(problem, scenario, shared_bump)
            except PricingError:
                if on_missing == "raise":
                    raise
                if on_missing == "skip":
                    continue
                cell_problem = problem
            expanded.append(cell_problem)
            cells.append(ScenarioCell(problem_index=i, scenario_index=j))
    return expanded, cells


def collect_cell_prices(
    prices: Sequence[float],
    cells: Sequence[ScenarioCell],
    scenarios: Sequence[Scenario],
    n_problems: int,
) -> list[dict[str, float]]:
    """Fold flat cell prices back into one ``{scenario name: price}`` per problem."""
    if len(prices) != len(cells):
        raise PricingError("need exactly one price per scenario cell")
    grid: list[dict[str, float]] = [{} for _ in range(n_problems)]
    for cell, price in zip(cells, prices):
        grid[cell.problem_index][scenarios[cell.scenario_index].name] = float(price)
    return grid


def price_scenarios(
    problems: Sequence[PricingProblem],
    scenarios: Sequence[Scenario],
    kernel: str = "stacked",
    on_missing: str = "raise",
    min_group_size: int = 1,
    max_group_size: int | None = None,
    cache: "ResultCache | None" = None,
) -> list[dict[str, float]]:
    """Price a whole scenario grid as one batched campaign.

    The expanded cells go through :func:`~repro.pricing.batch.price_problems`
    with ``min_group_size=1``: bumped cells carry distinct model digests, so
    each is its own plan group, and the stacked kernel clusters all groups
    that share (scheme, time grid, rng kind, seed, antithetic, path counts)
    into **one draw cohort** -- base and bumps consume the same normal
    stream (common random numbers by construction).  Non-Monte-Carlo cells
    (closed forms, trees, PDEs) fall through to per-problem pricing
    unchanged, so grids over mixed books are always safe.
    """
    problems = list(problems)
    expanded, cells = expand_scenarios(problems, scenarios, on_missing=on_missing)
    results = price_problems(
        expanded,
        min_group_size=min_group_size,
        max_group_size=max_group_size,
        cache=cache,
        kernel=kernel,
    )
    return collect_cell_prices(
        [result.price for result in results], cells, scenarios, len(problems)
    )


# -- Greek assembly --------------------------------------------------------------


def greeks_from_prices(
    model: "Model",
    product: "Product",
    prices: Mapping[str, float],
    spot_bump: float = 0.01,
    vol_bump: float = 0.01,
    rate_bump: float = 0.0001,
    theta_bump: float = 1.0 / 365.0,
) -> GreekReport:
    """Finite-difference Greeks from a priced :func:`greek_ladder`.

    The expressions replicate the bump-and-revalue reference of
    ``tests/oracles`` operation for operation (same differences, same
    parenthesisation), so when the ladder prices are bit-identical to
    repricing cell by cell -- which the stacked kernel's CRN cohorts
    guarantee -- the assembled Greeks are too.
    Scenarios absent from ``prices`` (skipped cells, trimmed ladders)
    assemble to ``None``.
    """
    base = float(prices["base"])
    price_up = float(prices["spot_up"])
    price_down = float(prices["spot_down"])
    h = float(np.asarray(model.spot).mean()) * spot_bump
    delta = (price_up - price_down) / (2.0 * h)
    gamma = (price_up - 2.0 * base + price_down) / h**2

    vega = None
    if "vol_up" in prices and "vol_down" in prices:
        vega = (float(prices["vol_up"]) - float(prices["vol_down"])) / (2.0 * vol_bump)

    rho = None
    if "rate_up" in prices and "rate_down" in prices:
        rho = (float(prices["rate_up"]) - float(prices["rate_down"])) / (2.0 * rate_bump)

    theta = None
    if "theta_down" in prices:
        step = maturity_step(product.maturity, theta_bump)
        theta = (float(prices["theta_down"]) - base) / step

    return GreekReport(price=base, delta=float(delta), gamma=float(gamma),
                       vega=vega, rho=rho, theta=theta)

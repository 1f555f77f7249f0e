"""The books the risk differentials and the batch tests run on."""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.portfolio import Portfolio, Position
from repro.pricing import BlackScholesModel, PricingProblem, flat_correlation, register_model

__all__ = ["SigmaOnlyModel", "basket_family", "mixed_book"]


@register_model
class SigmaOnlyModel(BlackScholesModel):
    """Black-Scholes under a parameter name no vega bump recognises.

    Registered so forked multiprocessing workers can rebuild it by name.
    """

    model_name = "TestSigmaOnly1D"

    def __init__(self, spot: float, rate: float, sigma: float, dividend: float = 0.0):
        super().__init__(spot, rate, sigma, dividend)

    def to_params(self) -> dict[str, Any]:
        params = super().to_params()
        params["sigma"] = params.pop("volatility")
        return params


def mixed_book(rng_kind: str = "pcg64", antithetic: bool = True) -> Portfolio:
    """Two Monte-Carlo calls, a closed-form put and a position with no
    volatility-like parameter (its vega cells are skipped, its sweeps unbumped)."""
    book = Portfolio(name="mixed")

    def add(label: str, quantity: float, model: tuple, option: tuple, method: tuple) -> None:
        problem = PricingProblem(label=label)
        problem.set_asset("equity")
        problem.set_model(model[0], **model[1])
        problem.set_option(option[0], **option[1])
        problem.set_method(method[0], **method[1])
        book.add(Position(problem=problem, quantity=quantity, category=method[0],
                          label=label))

    bs = ("BlackScholes1D", {"spot": 100.0, "rate": 0.045, "volatility": 0.22})
    mc = ("MC_European", {"n_paths": 4_000, "seed": 11, "antithetic": antithetic,
                          "rng_kind": rng_kind})
    add("mc_K95", 3.0, bs, ("CallEuro", {"strike": 95.0, "maturity": 1.0}), mc)
    add("mc_K105", -2.0, bs, ("CallEuro", {"strike": 105.0, "maturity": 1.0}), mc)
    add("cf_put", 5.0, bs, ("PutEuro", {"strike": 90.0, "maturity": 0.5}), ("CF_Put", {}))
    add("sigma_only", 1.5,
        ("TestSigmaOnly1D", {"spot": 100.0, "rate": 0.03, "sigma": 0.2}),
        ("CallEuro", {"strike": 100.0, "maturity": 1.0}), mc)
    return book


def basket_family(spots: Sequence[Any], family: int = 0) -> list[PricingProblem]:
    """A family of ``benchmarks/e2e`` ``basket_grid_mp`` (under its ``family``-th
    volatility vector): 10-d Sobol basket puts, one per spot vector of
    ``spots``, every member its own model and method objects."""
    correlation = flat_correlation(10, 0.3).tolist()
    volatilities = [0.12 + 0.01 * k + 0.004 * family for k in range(10)]
    problems = []
    for number, spot in enumerate(spots):
        strike = 80.0 + 40.0 * number / max(len(spots) - 1, 1)
        problem = PricingProblem(label=f"put_K{strike:.2f}")
        problem.set_model("BlackScholesND", spot=spot, rate=0.045, volatilities=volatilities,
                          correlation=correlation, dividends=0.0)
        problem.set_option("BasketPutEuro", strike=strike, maturity=1.0, weights=[0.1] * 10)
        problem.set_method("MC_European", n_paths=512, n_steps=1, antithetic=False,
                           control_variate=False, seed=11, rng_kind="sobol")
        problems.append(problem)
    return problems

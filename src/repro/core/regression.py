"""Premia-style non-regression tests (the Table I workload).

"The Premia development team ... uses a bunch of non-regression tests to make
sure that a change in the source code does not alter the behaviour of any
algorithm.  These non-regression tests consist in a single instance of any
pricing problem which can be solved using Premia ... Several sets of these
tests exist with different parameters and are run at least once a day."

:func:`generate_regression_problems` yields one problem per compatible
(model, option, method) combination registered in the pricing engine, with
either the paper-scale parameters (``profile="paper"``, used by the simulated
Table I benchmark) or laptop-scale parameters (``profile="fast"``, which the
test-suite executes and checks against ``tests/data/regression_fast.json``).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import PortfolioError
from repro.pricing.engine import PricingProblem, compatible_methods
from repro.pricing.models.multi_asset import flat_correlation

__all__ = [
    "generate_regression_problems",
    "REGRESSION_MODEL_SPECS",
    "REGRESSION_PRODUCT_SPECS",
]

# ---------------------------------------------------------------------------
# canonical model / product instances of the regression suite
# ---------------------------------------------------------------------------

#: (registry name, parameters, short tag)
REGRESSION_MODEL_SPECS: list[tuple[str, dict[str, Any], str]] = [
    (
        "BlackScholes1D",
        {"spot": 100.0, "rate": 0.05, "volatility": 0.2, "dividend": 0.0},
        "bs",
    ),
    (
        "CEV1D",
        {"spot": 100.0, "rate": 0.05, "volatility": 0.2, "beta": 0.7, "dividend": 0.0},
        "cev",
    ),
    (
        "LocalVolSmile1D",
        {"spot": 100.0, "rate": 0.05, "base_volatility": 0.2, "skew": 0.3, "term": 0.1},
        "lv",
    ),
    (
        "Heston1D",
        {
            "spot": 100.0,
            "rate": 0.03,
            "v0": 0.04,
            "kappa": 2.0,
            "theta": 0.04,
            "sigma_v": 0.4,
            "rho": -0.7,
        },
        "heston",
    ),
    (
        "MertonJump1D",
        {
            "spot": 100.0,
            "rate": 0.05,
            "volatility": 0.2,
            "jump_intensity": 0.5,
            "jump_mean": -0.1,
            "jump_std": 0.2,
        },
        "merton",
    ),
    (
        "BlackScholesND",
        {
            "spot": [100.0] * 5,
            "rate": 0.05,
            "volatilities": [0.2, 0.22, 0.18, 0.25, 0.21],
            "correlation": flat_correlation(5, 0.4).tolist(),
            "dividends": 0.0,
        },
        "bs5d",
    ),
]

#: (registry name, parameters, short tag)
REGRESSION_PRODUCT_SPECS: list[tuple[str, dict[str, Any], str]] = [
    ("CallEuro", {"strike": 100.0, "maturity": 1.0}, "call"),
    ("PutEuro", {"strike": 100.0, "maturity": 1.0}, "put"),
    ("DigitalCallEuro", {"strike": 100.0, "maturity": 1.0}, "digital_call"),
    ("DigitalPutEuro", {"strike": 100.0, "maturity": 1.0}, "digital_put"),
    (
        "CallDownOutEuro",
        {"strike": 100.0, "maturity": 1.0, "barrier": 85.0, "rebate": 0.0},
        "down_out_call",
    ),
    (
        "PutUpOutEuro",
        {"strike": 100.0, "maturity": 1.0, "barrier": 120.0, "rebate": 0.0},
        "up_out_put",
    ),
    ("AsianCallEuro", {"strike": 100.0, "maturity": 1.0, "n_fixings": 12}, "asian_call"),
    ("AsianPutEuro", {"strike": 100.0, "maturity": 1.0, "n_fixings": 12}, "asian_put"),
    ("CallAmer", {"strike": 100.0, "maturity": 1.0}, "american_call"),
    ("PutAmer", {"strike": 100.0, "maturity": 1.0}, "american_put"),
    ("BasketCallEuro", {"strike": 100.0, "maturity": 1.0, "weights": [0.2] * 5}, "basket_call"),
    ("BasketPutEuro", {"strike": 100.0, "maturity": 1.0, "weights": [0.2] * 5}, "basket_put"),
    ("BasketPutAmer", {"strike": 100.0, "maturity": 1.0, "weights": [0.2] * 5}, "basket_put_amer"),
]


def _method_parameters(method_name: str, profile: str, model_dimension: int) -> dict[str, Any]:
    """Regression parameters for each method family.

    ``"paper"`` yields problems whose estimated cost spans roughly 1-30
    seconds on the reference node (as in Table I, where the suite totals
    ~840 s and the longest test ~30 s); ``"fast"`` yields problems that run
    in milliseconds so the suite can be executed for real in the tests.
    """
    heavy = profile == "paper"
    if method_name in ("CF_Call", "CF_Put", "CF_Digital", "CF_Barrier", "CF_BasketMomentMatch"):
        return {}
    if method_name == "FFT_COS":
        return {"n_terms": 4096 if heavy else 128}
    if method_name in ("TR_CoxRossRubinstein", "TR_Trinomial"):
        return {"n_steps": 5000 if heavy else 100}
    if method_name == "FD_European":
        return {"n_space": 1000 if heavy else 60, "n_time": 2000 if heavy else 40}
    if method_name == "FD_Barrier":
        return {"n_space": 1000 if heavy else 60, "n_time": 2000 if heavy else 40}
    if method_name == "FD_American":
        return {"n_space": 1000 if heavy else 60, "n_time": 2000 if heavy else 40}
    if method_name == "MC_European":
        if heavy:
            # keep multi-asset problems at a comparable cost to 1-d ones
            n_steps = 500 if model_dimension == 1 else 100
            return {"n_paths": 2_000_000, "n_steps": n_steps, "seed": 0}
        return {"n_paths": 2_000, "n_steps": 5, "seed": 0}
    if method_name == "MC_AM_LongstaffSchwartz":
        if heavy:
            return {"n_paths": 500_000, "n_steps": 250, "seed": 0}
        return {"n_paths": 1_000, "n_steps": 10, "seed": 0}
    raise PortfolioError(f"no regression parameters defined for method {method_name!r}")


def generate_regression_problems(
    profile: str = "paper",
) -> Iterator[tuple[PricingProblem, str]]:
    """Yield ``(problem, category)`` for every compatible combination.

    The category string is ``"<model>/<product>/<method>"``, e.g.
    ``"bs/call/MC_European"``.
    """
    if profile not in ("paper", "fast"):
        raise PortfolioError("profile must be 'paper' or 'fast'")
    for model_name, model_params, model_tag in REGRESSION_MODEL_SPECS:
        probe = PricingProblem()
        probe.set_model(model_name, **model_params)
        model = probe.model
        for product_name, product_params, product_tag in REGRESSION_PRODUCT_SPECS:
            probe.set_option(product_name, **product_params)
            product = probe.product
            # multi-asset products only make sense on the multi-asset model
            if product.dimension != model.dimension:
                continue
            for method_name in compatible_methods(model, product):
                params = _method_parameters(method_name, profile, model.dimension)
                problem = PricingProblem(
                    label=f"{model_tag}/{product_tag}/{method_name}"
                )
                problem.set_asset("equity")
                problem.set_model(model_name, **model_params)
                problem.set_option(product_name, **product_params)
                problem.set_method(method_name, **params)
                yield problem, problem.label

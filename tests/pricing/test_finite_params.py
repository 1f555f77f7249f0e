"""NaN and infinities are refused where a leg is built, naming the parameter.

Only sign checks existed (``nan <= 0`` is false), so
``set_model("BlackScholes1D", ..., volatility=nan)`` was accepted and the
error surfaced at ``compute()`` as a non-finite price blamed on the method.
The columnar result record writes NaN for *absent* and leans on this guard.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing import PricingProblem
from repro.pricing.engine import _build_method, _build_model, _build_product

NAN, INF = float("nan"), float("inf")

#: one valid parameter set per model family
MODELS = {
    "BlackScholes1D": {"spot": 100.0, "rate": 0.05, "volatility": 0.2, "dividend": 0.01},
    "CEV1D": {"spot": 100.0, "rate": 0.05, "volatility": 0.2, "beta": 0.7},
    "LocalVolSmile1D": {"spot": 100.0, "rate": 0.05, "base_volatility": 0.2, "skew": 0.3},
    "Heston1D": {"spot": 100.0, "rate": 0.05, "v0": 0.04, "kappa": 1.5, "theta": 0.04,
                 "sigma_v": 0.3, "rho": -0.5},
    "MertonJump1D": {"spot": 100.0, "rate": 0.05, "volatility": 0.2, "jump_intensity": 0.5,
                     "jump_mean": -0.1, "jump_std": 0.15},
    "BlackScholesND": {"spot": [100.0, 95.0], "rate": 0.05, "volatilities": [0.2, 0.25],
                       "correlation": [[1.0, 0.3], [0.3, 1.0]], "dividends": [0.0, 0.01]},
}
#: one per product family (vanilla, digital, barrier, basket, Asian, American)
PRODUCTS = {
    "CallEuro": {"strike": 100.0, "maturity": 1.0},
    "DigitalPutEuro": {"strike": 100.0, "maturity": 1.0},
    "CallDownOutEuro": {"strike": 100.0, "maturity": 1.0, "barrier": 80.0, "rebate": 1.0},
    "BasketPutEuro": {"strike": 100.0, "maturity": 1.0, "weights": [0.5, 0.5]},
    "AsianCallEuro": {"strike": 100.0, "maturity": 1.0},
    "PutAmer": {"strike": 100.0, "maturity": 1.0},
}
#: the float parameters of the method families that have any
METHODS = {
    "FD_European": {"theta": 0.5, "n_std": 6.0},
    "FD_American": {"theta": 1.0, "n_std": 6.0},
    "TR_Trinomial": {"stretch": 1.2},
    "FFT_COS": {"truncation_width": 12.0},
}


def _poisoned(params: dict, name: str, bad: float) -> dict:
    value = params[name]
    if isinstance(value, list):  # first entry of a vector / first row of a matrix
        value = np.array(value, dtype=float)
        value.flat[0] = bad
    else:
        value = bad
    return {**params, name: value}


def _cases(table: dict) -> list[tuple[str, str]]:
    return [(family, name) for family, params in table.items() for name in params]


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
class TestEveryFamilyRefusesNonFiniteParameters:
    """A family's own sign check may speak first (``-inf <= 0``); what no
    family may do is build the object."""

    @pytest.mark.parametrize(("family", "name"), _cases(MODELS))
    def test_models(self, family, name, bad):
        _build_model(family, MODELS[family])  # the clean set is accepted
        with pytest.raises(PricingError):
            _build_model(family, _poisoned(MODELS[family], name, bad))

    @pytest.mark.parametrize(("family", "name"), _cases(PRODUCTS))
    def test_products(self, family, name, bad):
        _build_product(family, PRODUCTS[family])
        with pytest.raises(PricingError):
            _build_product(family, _poisoned(PRODUCTS[family], name, bad))

    @pytest.mark.parametrize(("family", "name"), _cases(METHODS))
    def test_methods(self, family, name, bad):
        _build_method(family, METHODS[family])
        with pytest.raises(PricingError):
            _build_method(family, _poisoned(METHODS[family], name, bad))


def test_the_error_is_raised_at_set_model_not_at_compute():
    problem = PricingProblem()
    with pytest.raises(PricingError, match="'volatility' must be finite, got nan"):
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=NAN)
    with pytest.raises(PricingError, match="'spot' must be finite"):
        problem.set_model("BlackScholes1D", spot=INF, rate=0.05, volatility=0.2)
    with pytest.raises(PricingError, match="'rate' must be finite"):
        problem.set_model("BlackScholes1D", spot=100.0, rate=NAN, volatility=0.2)


def test_instances_are_checked_like_names():
    from repro.pricing import BlackScholesModel, EuropeanCall

    with pytest.raises(PricingError, match="volatility"):
        BlackScholesModel(100.0, 0.05, NAN)
    with pytest.raises(PricingError, match="strike"):
        EuropeanCall(strike=INF, maturity=1.0)
    assert math.isfinite(BlackScholesModel(100.0, 0.05, 0.2).volatility)

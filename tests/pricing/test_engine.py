"""Tests of the PricingProblem engine and the registries."""

from __future__ import annotations

import pytest

from repro.errors import ProblemStateError, RegistryError
from repro.pricing import (
    BlackScholesModel,
    ClosedFormCall,
    EuropeanCall,
    PricingProblem,
    compatible_methods,
    list_methods,
    list_models,
    list_products,
    premia_create,
    register_method,
    register_method_alias,
    register_model,
    register_product,
)
from repro.pricing.engine import ASSET_CLASSES
from repro.pricing.methods.base import PricingMethod, PricingResult
from repro.pricing.models.black_scholes import BlackScholesModel as BSModel
from repro.pricing.products.vanilla import EuropeanCall as ECall


class TestRegistries:
    def test_expected_entries_present(self):
        assert "BlackScholes1D" in list_models()
        assert "Heston1D" in list_models()
        assert "CallEuro" in list_products()
        assert "PutAmer" in list_products()
        assert "CF_Call" in list_methods()
        assert "MC_AM_Alfonsi_LongstaffSchwartz" in list_methods()
        assert "MC_AM_Alfonsi_LongstaffSchwartz" not in list_methods(include_aliases=False)

    def test_compatible_methods_black_scholes_call(self, bs_model, atm_call):
        methods = compatible_methods(bs_model, atm_call)
        for expected in ("CF_Call", "FD_European", "MC_European", "TR_CoxRossRubinstein",
                         "FFT_COS", "TR_Trinomial"):
            assert expected in methods
        assert "CF_Put" not in methods
        assert "FD_American" not in methods

    def test_compatible_methods_heston_american(self, heston_model):
        from repro.pricing import AmericanPut

        methods = compatible_methods(heston_model, AmericanPut(100.0, 1.0))
        assert methods == ["MC_AM_LongstaffSchwartz"]

    def test_register_custom_method_and_alias(self, bs_model, atm_call, monkeypatch):
        import repro.pricing.engine as engine

        # the registries are module state: later tests (the regression suite
        # walks every compatible method) must not see the test method
        monkeypatch.setattr(engine, "_METHOD_REGISTRY", dict(engine._METHOD_REGISTRY))
        monkeypatch.setattr(engine, "_METHOD_ALIASES", dict(engine._METHOD_ALIASES))

        class ConstantPrice(PricingMethod):
            method_name = "TEST_Constant"

            def supports(self, model, product):
                return True

            def _price(self, model, product):
                return PricingResult(price=1.234)

        register_method(ConstantPrice)
        register_method_alias("TEST_ConstantAlias", "TEST_Constant")
        problem = PricingProblem()
        problem.set_model(bs_model)
        problem.set_option(atm_call)
        problem.set_method("TEST_ConstantAlias")
        assert problem.compute().price == 1.234

    def test_register_invalid_classes(self):
        class NoName(PricingMethod):
            def supports(self, model, product):
                return True

            def _price(self, model, product):
                return PricingResult(price=0.0)

        NoName.method_name = "abstract"
        with pytest.raises(RegistryError):
            register_method(NoName)
        with pytest.raises(RegistryError):
            register_method_alias("X", "does_not_exist")

    def test_register_model_and_product_decorators(self):
        assert register_model(BSModel) is BSModel
        assert register_product(ECall) is ECall


class TestPricingProblem:
    def test_paper_example_workflow(self):
        """The exact call sequence of the paper's Section 3.3 example."""
        problem = premia_create()
        problem.set_asset("equity")
        problem.set_model(
            "Heston1D", spot=100.0, rate=0.03, v0=0.04, kappa=2.0, theta=0.04,
            sigma_v=0.4, rho=-0.7,
        )
        problem.set_option("PutAmer", strike=100.0, maturity=1.0)
        problem.set_method("MC_AM_Alfonsi_LongstaffSchwartz", n_paths=5_000, n_steps=10, seed=0)
        result = problem.compute()
        assert result.price > 0
        assert problem.get_method_results() is result

    def test_method_chaining(self):
        problem = (
            PricingProblem()
            .set_asset("equity")
            .set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
            .set_option("CallEuro", strike=100.0, maturity=1.0)
            .set_method("CF_Call")
        )
        assert problem.is_complete
        assert problem.compute().price == pytest.approx(10.450584, abs=1e-6)

    def test_set_with_instances(self, bs_model, atm_call):
        problem = PricingProblem.from_instances(bs_model, atm_call, ClosedFormCall())
        assert problem.model_name == "BlackScholes1D"
        assert problem.option_name == "CallEuro"
        assert problem.method_name == "CF_Call"
        assert problem.compute().price == pytest.approx(10.450584, abs=1e-6)

    def test_incomplete_problem_errors(self):
        problem = PricingProblem()
        assert not problem.is_complete
        with pytest.raises(ProblemStateError):
            problem.compute()
        with pytest.raises(ProblemStateError):
            problem.get_method_results()
        with pytest.raises(ProblemStateError):
            _ = problem.model
        with pytest.raises(ProblemStateError):
            _ = problem.product
        with pytest.raises(ProblemStateError):
            _ = problem.method

    def test_unknown_names_raise(self):
        problem = PricingProblem()
        with pytest.raises(RegistryError):
            problem.set_asset("crypto")
        with pytest.raises(RegistryError):
            problem.set_model("BlackScholes3000", spot=1.0)
        with pytest.raises(RegistryError):
            problem.set_option("CallQuantum", strike=1.0, maturity=1.0)
        with pytest.raises(RegistryError):
            problem.set_method("FD_DoesNotExist")

    def test_asset_classes(self):
        assert "equity" in ASSET_CLASSES
        problem = PricingProblem()
        problem.set_asset("interest_rate")
        assert problem.asset == "interest_rate"

    def test_to_dict_roundtrip(self, simple_problem):
        simple_problem.compute()
        data = simple_problem.to_dict()
        clone = PricingProblem.from_dict(data)
        assert clone == simple_problem
        assert clone.get_method_results().price == pytest.approx(
            simple_problem.get_method_results().price
        )

    def test_to_dict_roundtrip_without_result(self, simple_problem):
        clone = PricingProblem.from_dict(simple_problem.to_dict())
        assert clone == simple_problem
        assert not clone.has_result

    def test_partial_dict(self):
        clone = PricingProblem.from_dict({"asset": "equity", "label": "partial"})
        assert not clone.is_complete
        assert clone.label == "partial"

    def test_changing_inputs_invalidates_results(self, simple_problem):
        simple_problem.compute()
        assert simple_problem.has_result
        simple_problem.set_option("CallEuro", strike=120.0, maturity=1.0)
        assert not simple_problem.has_result

    def test_result_is_stamped_with_elapsed_and_name(self, simple_problem):
        result = simple_problem.compute()
        assert result.elapsed >= 0.0
        assert result.method_name == "CF_Call"

    def test_equality_ignores_results(self, simple_problem):
        other = PricingProblem.from_dict(simple_problem.to_dict())
        simple_problem.compute()
        assert other == simple_problem

    def test_repr(self, simple_problem):
        text = repr(simple_problem)
        assert "BlackScholes1D" in text and "CallEuro" in text and "CF_Call" in text

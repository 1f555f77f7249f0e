"""Memos cannot go stale, sharing cannot leak.

The master computes a problem's simulation signature and digest once and a
method's parameter digest once per instance; scenario expansion builds one
bumped model per (base model, scenario).  These tests pin the other half of
that bargain: every setter invalidates, and nothing shared is ever written to.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pricing import (
    BlackScholesModel,
    EuropeanCall,
    MonteCarloEuropean,
    PricingProblem,
    ProblemBatch,
    plan_batches,
    problem_digest,
    simulation_signature,
)
from repro.pricing.scenarios import apply_scenario, expand_scenarios, historical_scenarios


def _problem(strike: float = 100.0, spot: float = 100.0, seed: int = 3) -> PricingProblem:
    problem = PricingProblem(label=f"K{strike}")
    problem.set_model("BlackScholes1D", spot=spot, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("MC_European", n_paths=1_000, n_steps=1, seed=seed)
    return problem


#: one edit per setter; each moves the digest, and the signature where the
#: signature depends on that leg
_EDITS = {
    "model": lambda p, k: p.set_model(
        "BlackScholes1D", spot=100.0 + k, rate=0.05, volatility=0.2),
    "option": lambda p, k: p.set_option("CallEuro", strike=100.0, maturity=1.0 + k),
    "method": lambda p, k: p.set_method("MC_European", n_paths=1_000, n_steps=1, seed=3 + k),
}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(sorted(_EDITS)), min_size=1, max_size=6))
def test_every_setter_invalidates_signature_and_digest(setters):
    problem = _problem()
    # planned once: both memos are warm
    plan_batches([problem, _problem(110.0)])
    ProblemBatch([problem, _problem(110.0)])
    problem_digest(problem)
    for step, name in enumerate(setters, start=1):
        signature, digest = simulation_signature(problem), problem_digest(problem)
        _EDITS[name](problem, step)
        assert simulation_signature(problem) != signature
        assert problem_digest(problem) != digest
        # and what the memo now holds is what a fresh problem computes
        fresh = PricingProblem.from_dict(problem.to_dict())
        assert simulation_signature(problem) == simulation_signature(fresh)
        assert problem_digest(problem) == problem_digest(fresh)


def test_signature_of_an_ungroupable_problem_is_memoised_as_none():
    problem = _problem()
    problem.set_method("CF_Call")
    assert simulation_signature(problem) is None
    assert problem._signature_cache == (None,)
    problem.set_method("MC_European", n_paths=1_000, n_steps=1, seed=3)
    assert simulation_signature(problem) is not None


def test_method_digest_is_per_instance_and_by_content():
    method = MonteCarloEuropean(n_paths=1_000, n_steps=1, seed=3)
    model, product = BlackScholesModel(100.0, 0.05, 0.2), EuropeanCall(100.0, 1.0)
    a = PricingProblem.from_instances(model, product, method)
    b = PricingProblem.from_instances(model, EuropeanCall(110.0, 1.0), method)
    c = PricingProblem.from_instances(
        model, product, MonteCarloEuropean(n_paths=1_000, n_steps=1, seed=4))
    assert simulation_signature(a).method_digest == simulation_signature(b).method_digest
    assert simulation_signature(a).method_digest != simulation_signature(c).method_digest
    # equal content, distinct instance: equal digest
    twin = MonteCarloEuropean(n_paths=1_000, n_steps=1, seed=3)
    assert twin is not method and twin.param_digest() == method.param_digest()


def test_instance_parameters_are_taken_when_first_needed(monkeypatch):
    calls = []
    original = BlackScholesModel.to_params

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(BlackScholesModel, "to_params", spy)
    model = BlackScholesModel(100.0, 0.05, 0.2)
    calls.clear()  # the constructor's finite-parameter check read them once
    problem = PricingProblem.from_instances(
        model, EuropeanCall(100.0, 1.0), MonteCarloEuropean(n_paths=1_000, seed=3))
    assert calls == []
    assert problem.to_dict()["model"]["params"] == original(model)
    assert problem == PricingProblem.from_dict(problem.to_dict())
    # taken once, then kept (the rebuilt twin's constructor reads its own)
    assert [leg for leg in calls if leg is model] == [model]


class TestScenarioSharing:
    RETURNS = [-0.02, 0.0, 0.013]

    def _book(self) -> list[PricingProblem]:
        # two positions on one underlying, one on another
        return [_problem(90.0), _problem(110.0), _problem(100.0, spot=55.0)]

    def test_one_bumped_model_per_base_model_and_scenario(self):
        book = self._book()
        scenarios = historical_scenarios(self.RETURNS)
        expanded, cells = expand_scenarios(book, scenarios)
        by_cell = {(c.problem_index, c.scenario_index): p for p, c in zip(expanded, cells)}
        for j in range(1, len(scenarios)):
            assert by_cell[0, j].model is by_cell[1, j].model  # equal base parameters
            assert by_cell[0, j].model is not by_cell[2, j].model
            assert by_cell[0, j].model == apply_scenario(book[0], scenarios[j]).model
            for other in range(1, len(scenarios)):
                if other != j:
                    # never across scenarios
                    assert by_cell[0, j].model is not by_cell[0, other].model
        # the base scenario hands the inputs back untouched
        assert all(by_cell[i, 0] is book[i] for i in range(len(book)))

    def test_equal_bumps_under_different_names_do_not_share(self):
        scenarios = historical_scenarios([0.01, 0.01])
        expanded, _cells = expand_scenarios([_problem()], scenarios)
        assert expanded[1].model == expanded[2].model
        assert expanded[1].model is not expanded[2].model

    def test_inputs_are_never_mutated(self):
        book = self._book()
        before = copy.deepcopy(book)
        models = [problem.model for problem in book]
        expanded, _cells = expand_scenarios(book, historical_scenarios(self.RETURNS))
        for problem in expanded:
            problem_digest(problem), simulation_signature(problem)
        assert book == before
        assert all(problem.model is model for problem, model in zip(book, models))
        assert [m.to_params() for m in models] == [p.model.to_params() for p in before]

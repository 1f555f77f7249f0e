"""Tests of the shared-path batch pricing subsystem (:mod:`repro.pricing.batch`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing import (
    MonteCarloEuropean,
    PricingProblem,
    ProblemBatch,
    ResultCache,
    plan_batches,
    price_problems,
    simulation_signature,
)
from repro.serial import serialize


def _mc_problem(
    strike: float,
    seed: int = 0,
    n_paths: int = 2_000,
    n_steps: int | None = None,
    option: str = "CallEuro",
    maturity: float = 1.0,
    antithetic: bool = True,
    **method_params,
) -> PricingProblem:
    problem = PricingProblem(label=f"{option}_K{strike}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option(option, strike=strike, maturity=maturity)
    problem.set_method(
        "MC_European", n_paths=n_paths, n_steps=n_steps, seed=seed,
        antithetic=antithetic, **method_params,
    )
    return problem


def _cf_problem(strike: float = 100.0) -> PricingProblem:
    problem = PricingProblem(label=f"cf_{strike}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


class TestSimulationSignature:
    def test_same_family_same_signature(self):
        a = simulation_signature(_mc_problem(90.0))
        b = simulation_signature(_mc_problem(110.0))
        assert a is not None and a == b

    def test_terminal_vs_path_modes(self):
        terminal = simulation_signature(_mc_problem(100.0))
        paths = simulation_signature(_mc_problem(100.0, n_steps=12))
        assert terminal.mode == "terminal"
        assert paths.mode == "paths"
        assert terminal != paths

    @pytest.mark.parametrize(
        "other",
        [
            _mc_problem(100.0, seed=1),
            _mc_problem(100.0, n_paths=3_000),
            _mc_problem(100.0, maturity=2.0),
            _mc_problem(100.0, antithetic=False),
            # *every* method parameter must split groups: grouping problems
            # that differ only in payoff-side options (control variate,
            # barrier correction, rng, batching) would change their prices
            _mc_problem(100.0, control_variate=False),
            _mc_problem(100.0, barrier_correction=False),
            _mc_problem(100.0, rng_kind="sobol"),
            _mc_problem(100.0, batch_size=512),
        ],
    )
    def test_simulation_parameters_split_groups(self, other):
        assert simulation_signature(other) != simulation_signature(_mc_problem(100.0))

    def test_control_variate_mismatch_prices_stay_solo_identical(self):
        # the concrete bug this guards against: grouping a cv=True with a
        # cv=False problem would silently price both with one method
        with_cv = _mc_problem(100.0, control_variate=True)
        without_cv = _mc_problem(100.0, control_variate=False)
        results = price_problems([with_cv, without_cv])
        assert results[0].price == _mc_problem(100.0, control_variate=True).compute().price
        assert results[1].price == _mc_problem(100.0, control_variate=False).compute().price
        assert results[0].price != results[1].price

    def test_model_parameters_split_groups(self):
        other = _mc_problem(100.0)
        other.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.3)
        assert simulation_signature(other) != simulation_signature(_mc_problem(100.0))

    def test_non_mc_methods_have_no_signature(self):
        assert simulation_signature(_cf_problem()) is None

    def test_incomplete_problem_has_no_signature(self):
        assert simulation_signature(PricingProblem()) is None


class TestPlanBatches:
    def test_groups_and_singles(self):
        problems = [
            _mc_problem(90.0),
            _cf_problem(),
            _mc_problem(100.0),
            None,
            _mc_problem(110.0, seed=5),  # different stream: not groupable
            _mc_problem(120.0),
        ]
        plan = plan_batches(problems)
        assert [group.indices for group in plan.groups] == [(0, 2, 5)]
        assert plan.singles == (1, 3, 4)
        assert plan.n_grouped == 3
        assert plan.n_simulations_saved == 2

    def test_a_family_is_never_split(self):
        problems = [_mc_problem(80.0 + i) for i in range(7)]
        plan = plan_batches(problems)
        assert [group.indices for group in plan.groups] == [tuple(range(7))]
        assert plan.singles == ()

    def test_validation(self):
        with pytest.raises(PricingError):
            plan_batches([], min_group_size=0)

    def test_min_group_size_one_keeps_singletons_as_groups(self):
        # the scenario-grid configuration: every problem a distinct signature,
        # yet all of them belong in the plan (the stacked kernel still merges
        # their draw cohorts)
        problems = [_mc_problem(100.0, n_paths=4096), _mc_problem(100.0, n_paths=8192)]
        plan = plan_batches(problems, min_group_size=1)
        assert len(plan.groups) == 2
        assert all(len(group.indices) == 1 for group in plan.groups)
        assert plan.singles == ()


class TestSharedPathPricing:
    def test_batched_prices_bit_identical(self):
        strikes = [85.0, 95.0, 100.0, 105.0, 115.0]
        solo = [_mc_problem(k).compute() for k in strikes]
        batched = price_problems([_mc_problem(k) for k in strikes])
        for alone, shared in zip(solo, batched):
            assert shared.price == alone.price
            assert shared.std_error == alone.std_error
            assert shared.confidence_interval == alone.confidence_interval
            assert shared.n_evaluations == alone.n_evaluations

    def test_batched_path_mode_bit_identical(self):
        strikes = [90.0, 100.0, 110.0]
        solo = [_mc_problem(k, n_steps=6, n_paths=1_000).compute() for k in strikes]
        batched = price_problems(
            [_mc_problem(k, n_steps=6, n_paths=1_000) for k in strikes]
        )
        for alone, shared in zip(solo, batched):
            assert shared.price == alone.price
            assert shared.std_error == alone.std_error

    def test_mixed_payoffs_share_one_simulation(self):
        call = _mc_problem(100.0, option="CallEuro")
        put = _mc_problem(100.0, option="PutEuro")
        plan = plan_batches([call, put])
        assert len(plan.groups) == 1
        results = price_problems([call, put])
        assert results[0].price == _mc_problem(100.0, option="CallEuro").compute().price
        assert results[1].price == _mc_problem(100.0, option="PutEuro").compute().price

    def test_fallback_for_ungroupable_problems(self):
        problems = [_mc_problem(95.0), _cf_problem(), _mc_problem(105.0)]
        results = price_problems(problems)
        assert len(results) == 3
        assert results[1].method_name == "CF_Call"
        for problem, result in zip(problems, results):
            assert problem.get_method_results() is result

    def test_price_many_rejects_mixed_grids(self):
        method = MonteCarloEuropean(n_paths=1_000)
        model = _mc_problem(100.0).model
        short = _mc_problem(100.0, maturity=0.5).product
        long = _mc_problem(100.0, maturity=1.0).product
        with pytest.raises(PricingError):
            method.price_many(model, [short, long])

    def test_price_many_empty(self):
        method = MonteCarloEuropean(n_paths=1_000)
        assert method.price_many(_mc_problem(100.0).model, []) == []


class TestProblemBatch:
    def test_requires_shared_signature(self):
        with pytest.raises(PricingError):
            ProblemBatch([_mc_problem(90.0), _mc_problem(100.0, seed=9)])
        with pytest.raises(PricingError):
            ProblemBatch([_cf_problem()])
        with pytest.raises(PricingError):
            ProblemBatch([])

    def test_serialization_round_trip(self):
        batch = ProblemBatch([_mc_problem(90.0), _mc_problem(110.0)], keys=[41, 42])
        rebuilt = serialize(batch).unserialize()
        assert isinstance(rebuilt, ProblemBatch)
        assert rebuilt.keys == [41, 42]
        assert rebuilt.signature == batch.signature
        original = batch.compute()
        restored = rebuilt.compute()
        assert {k: v["price"] for k, v in original.items()} == {
            k: v["price"] for k, v in restored.items()
        }

    def test_unnamed_kernel_is_the_single_sourced_default(self):
        from repro.api import RunConfig
        from repro.pricing.kernel import DEFAULT_KERNEL

        assert DEFAULT_KERNEL == "stacked"
        batch = ProblemBatch([_mc_problem(90.0), _mc_problem(110.0)])
        assert batch.kernel == DEFAULT_KERNEL
        wire = batch.to_dict()
        del wire["kernel"]
        assert ProblemBatch.from_dict(wire).kernel == DEFAULT_KERNEL
        assert RunConfig().kernel == DEFAULT_KERNEL
        assert ProblemBatch([_mc_problem(90.0)], kernel="loop").kernel == "loop"

    def test_compute_with_cache_skips_members(self):
        cache = ResultCache()
        batch = ProblemBatch([_mc_problem(90.0), _mc_problem(110.0)])
        cold = batch.compute(cache=cache)
        assert not any(entry.get("cache_hit") for entry in cold.values())

        # warm pass: one member cached, one new -- the shared simulation
        # shrinks but the fresh member's price must not move
        warm_batch = ProblemBatch(
            [_mc_problem(90.0), _mc_problem(100.0)], keys=[0, 1]
        )
        warm = warm_batch.compute(cache=cache)
        assert warm[0]["cache_hit"] is True
        assert warm[0]["price"] == cold[0]["price"]
        assert warm[1]["price"] == _mc_problem(100.0).compute().price


class TestMemberFailureIsolation:
    def _exploding_problem(self) -> PricingProblem:
        from repro.pricing.engine import register_product
        from repro.pricing.products.vanilla import EuropeanCall

        class ExplodingCall(EuropeanCall):
            option_name = "ExplodingCallTest"

            def terminal_payoff(self, spot):
                return np.full(np.shape(spot)[0], np.inf)

        register_product(ExplodingCall)
        problem = _mc_problem(100.0)
        problem.set_option(ExplodingCall(strike=100.0, maturity=1.0))
        return problem

    def test_one_bad_member_does_not_fail_the_family(self):
        good_a, bad, good_b = _mc_problem(95.0), self._exploding_problem(), _mc_problem(105.0)
        batch = ProblemBatch([good_a, bad, good_b], keys=[0, 1, 2])
        out = batch.compute()
        assert "error" in out[1] and "price" not in out[1]
        assert out[0]["price"] == _mc_problem(95.0).compute().price
        assert out[2]["price"] == _mc_problem(105.0).compute().price

    def test_price_problems_raises_for_the_bad_member(self):
        with pytest.raises(PricingError, match="shared-path batch"):
            price_problems([_mc_problem(95.0), self._exploding_problem()])


class TestAntitheticSampleAccounting:
    """Satellite fix: reported counts equal samples actually used."""

    def test_odd_n_paths_reports_even_effective_count(self, bs_model, atm_call):
        method = MonteCarloEuropean(n_paths=1_001, seed=3)
        result = method.price(bs_model, atm_call)
        assert result.extra["n_paths"] == 1_002  # one pair completes the odd request
        assert result.extra["n_paths_requested"] == 1_001
        assert result.n_evaluations == result.extra["n_paths"]

    def test_even_n_paths_reports_exact_count(self, bs_model, atm_call):
        result = MonteCarloEuropean(n_paths=1_000, seed=3).price(bs_model, atm_call)
        assert result.extra["n_paths"] == 1_000
        assert result.n_evaluations == 1_000

    def test_odd_batch_size_never_exceeds_the_memory_bound(self, bs_model, atm_call):
        captured: list[int] = []
        original = type(bs_model).sample_terminal

        def spy(model, rng, n_paths, maturity):
            captured.append(n_paths)
            return original(model, rng, n_paths, maturity)

        method = MonteCarloEuropean(n_paths=1_000, batch_size=333, seed=1)
        model = bs_model
        type(model).sample_terminal = spy
        try:
            result = method.price(model, atm_call)
        finally:
            type(model).sample_terminal = original
        assert all(batch <= 333 for batch in captured)
        assert all(batch % 2 == 0 for batch in captured)
        assert sum(captured) == 1_000
        assert result.extra["n_paths"] == 1_000

    def test_non_antithetic_counts(self, bs_model, atm_call):
        method = MonteCarloEuropean(n_paths=1_001, antithetic=False, seed=2)
        result = method.price(bs_model, atm_call)
        assert result.extra["n_paths"] == 1_001
        assert result.n_evaluations == 1_001


class TestLargeFamilyAgreement:
    def test_portfolio_slice_agreement_with_control_variate(self):
        # a miniature version of the paper's basket family: shared 5-d model,
        # varying strikes, antithetic + control variate
        from repro.pricing import flat_correlation

        strikes = np.linspace(90.0, 110.0, 6)

        def make(strike: float) -> PricingProblem:
            problem = PricingProblem(label=f"basket_{strike:.0f}")
            problem.set_asset("equity")
            problem.set_model(
                "BlackScholesND",
                spot=[100.0] * 5,
                rate=0.045,
                volatilities=[0.2, 0.22, 0.18, 0.25, 0.21],
                correlation=flat_correlation(5, 0.3).tolist(),
                dividends=0.0,
            )
            problem.set_option(
                "BasketPutEuro", strike=float(strike), maturity=1.0,
                weights=[0.2] * 5,
            )
            problem.set_method(
                "MC_European", n_paths=4_000, n_steps=1, antithetic=True,
                control_variate=True, seed=11,
            )
            return problem

        solo = [make(k).compute() for k in strikes]
        batched = price_problems([make(k) for k in strikes])
        for alone, shared in zip(solo, batched):
            assert shared.price == alone.price
            assert shared.std_error == alone.std_error
            assert shared.extra["control_variate_beta"] == alone.extra["control_variate_beta"]

"""Differential harness: the stacked kernel is bit-exact against the loop.

Every test drives **both** kernels over the same inputs and asserts
``np.array_equal`` (exact IEEE-754 equality, zero ULP of slack) on prices,
standard errors, confidence intervals and -- through ``sample_sink`` -- on
the per-path payoff samples themselves.  ``pytest.approx`` is deliberately
absent from this file: the stacked kernel's contract is bit-exactness by
construction, and any drift, however small, is a bug.

The matrix crosses model x product-family x antithetic x odd/even path
counts x batch sizes x group shapes, so every family branch and every batch
accounting edge in the stacked engine is exercised against its loop twin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pricing.kernel import resolve_kernel, run_groups
from repro.pricing.methods.montecarlo import MonteCarloEuropean, price_groups_stacked
from repro.pricing.models import (
    BlackScholesModel,
    CEVModel,
    HestonModel,
    MertonJumpModel,
    MultiAssetBlackScholesModel,
    SmileLocalVolModel,
    flat_correlation,
)
from repro.pricing.products import (
    AsianCall,
    AsianPut,
    BasketCall,
    BasketPut,
    DigitalCall,
    DigitalPut,
    DownOutCall,
    EuropeanCall,
    EuropeanPut,
    UpOutPut,
)


def _collecting_sink():
    """A sample_sink capturing ``member -> [payoff batches]``."""
    store: dict[int, list[np.ndarray]] = {}

    def sink(index: int, payoffs: np.ndarray) -> None:
        store.setdefault(index, []).append(np.array(payoffs, copy=True))

    return store, sink


def _samples(store: dict[int, list[np.ndarray]]) -> dict[int, np.ndarray]:
    return {index: np.concatenate(batches) for index, batches in store.items()}


def assert_results_bit_equal(loop_results, stacked_results):
    assert len(loop_results) == len(stacked_results)
    for loop_result, stacked_result in zip(loop_results, stacked_results):
        assert loop_result.price == stacked_result.price
        assert loop_result.std_error == stacked_result.std_error
        assert loop_result.confidence_interval == stacked_result.confidence_interval
        assert loop_result.n_evaluations == stacked_result.n_evaluations


def run_both(method, model, products):
    """Price through both kernels, asserting results AND samples bit-equal."""
    loop_store, loop_sink = _collecting_sink()
    stacked_store, stacked_sink = _collecting_sink()
    loop_results = method.price_many(
        model, products, kernel="loop", sample_sink=loop_sink
    )
    stacked_results = method.price_many(
        model, products, kernel="stacked", sample_sink=stacked_sink
    )
    assert_results_bit_equal(loop_results, stacked_results)
    loop_samples, stacked_samples = _samples(loop_store), _samples(stacked_store)
    assert loop_samples.keys() == stacked_samples.keys()
    for index in loop_samples:
        assert np.array_equal(loop_samples[index], stacked_samples[index]), (
            f"per-path samples diverge for member {index}"
        )
    return loop_results


MODELS = {
    "bs": lambda: BlackScholesModel(spot=100.0, rate=0.03, volatility=0.25),
    "bs_div": lambda: BlackScholesModel(
        spot=95.0, rate=0.02, volatility=0.18, dividend=0.015
    ),
    "cev": lambda: CEVModel(spot=100.0, rate=0.03, volatility=0.2, beta=0.8),
    "smile": lambda: SmileLocalVolModel(spot=100.0, rate=0.01, base_volatility=0.22),
    "heston": lambda: HestonModel(
        spot=100.0, rate=0.02, v0=0.04, kappa=1.5, theta=0.05, sigma_v=0.4, rho=-0.6
    ),
    "merton": lambda: MertonJumpModel(
        spot=100.0, rate=0.02, volatility=0.2, jump_intensity=0.4,
        jump_mean=-0.08, jump_std=0.12,
    ),
}

PRODUCT_SETS = {
    "vanilla_mix": lambda: [
        EuropeanCall(strike=k, maturity=1.0) for k in (80.0, 100.0, 120.0)
    ]
    + [EuropeanPut(strike=100.0, maturity=1.0)]
    + [DigitalCall(strike=105.0, maturity=1.0), DigitalPut(strike=95.0, maturity=1.0)],
    "asian": lambda: [
        AsianCall(strike=k, maturity=1.0, n_fixings=12) for k in (90.0, 100.0, 110.0)
    ]
    + [AsianPut(strike=100.0, maturity=1.0, n_fixings=12)],
    "barrier": lambda: [
        DownOutCall(strike=100.0, maturity=1.0, barrier=b) for b in (70.0, 85.0)
    ]
    + [UpOutPut(strike=100.0, maturity=1.0, barrier=130.0, rebate=2.0)],
    "mixed_grid": lambda: [
        EuropeanCall(strike=100.0, maturity=1.0),
        AsianCall(strike=100.0, maturity=1.0, n_fixings=16),
        DownOutCall(strike=95.0, maturity=1.0, barrier=80.0),
    ],
}


class TestModelProductMatrix:
    """model x product-family coordinates, shared time grid where needed."""

    @pytest.mark.parametrize("model_key", sorted(MODELS))
    @pytest.mark.parametrize("products_key", sorted(PRODUCT_SETS))
    def test_coordinate(self, model_key, products_key):
        method = MonteCarloEuropean(n_paths=4001, n_steps=16, seed=42, batch_size=1500)
        run_both(method, MODELS[model_key](), PRODUCT_SETS[products_key]())

    @pytest.mark.parametrize("model_key", ["bs", "cev", "heston"])
    def test_terminal_mode(self, model_key):
        """n_steps=None + terminal products -> exact-law sampling path."""
        method = MonteCarloEuropean(n_paths=4001, seed=7)
        run_both(method, MODELS[model_key](), PRODUCT_SETS["vanilla_mix"]())


class TestAntitheticAndBatchEdges:
    """antithetic on/off x odd/even n_paths x batch-size edge cases."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n_paths", [2, 3, 999, 1000, 4001])
    @pytest.mark.parametrize("batch_size", [2, 3, 997, 65_536])
    def test_terminal_accounting(self, antithetic, n_paths, batch_size):
        method = MonteCarloEuropean(
            n_paths=n_paths, antithetic=antithetic, seed=5, batch_size=batch_size
        )
        run_both(
            method,
            BlackScholesModel(spot=100.0, rate=0.03, volatility=0.25),
            [EuropeanCall(strike=100.0, maturity=1.0),
             EuropeanPut(strike=95.0, maturity=1.0)],
        )

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n_paths", [3, 999])
    def test_paths_accounting(self, antithetic, n_paths):
        method = MonteCarloEuropean(
            n_paths=n_paths, n_steps=8, antithetic=antithetic, seed=5, batch_size=128
        )
        run_both(
            method,
            BlackScholesModel(spot=100.0, rate=0.03, volatility=0.25),
            PRODUCT_SETS["mixed_grid"](),
        )

    @pytest.mark.parametrize("control_variate", [False, True])
    def test_control_variate_toggle(self, control_variate):
        method = MonteCarloEuropean(
            n_paths=3001, seed=3, control_variate=control_variate
        )
        run_both(
            method,
            BlackScholesModel(spot=100.0, rate=0.03, volatility=0.25),
            PRODUCT_SETS["vanilla_mix"](),
        )

    def test_sobol_rng(self):
        method = MonteCarloEuropean(n_paths=4096, seed=9, rng_kind="sobol")
        run_both(
            method,
            BlackScholesModel(spot=100.0, rate=0.03, volatility=0.25),
            [EuropeanCall(strike=100.0, maturity=1.0),
             DigitalCall(strike=110.0, maturity=1.0)],
        )


class TestBasket:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_basket_terminal(self, antithetic):
        model = MultiAssetBlackScholesModel(
            spot=np.array([100.0, 95.0, 105.0, 90.0, 110.0]),
            rate=0.02,
            volatilities=np.array([0.2, 0.25, 0.18, 0.3, 0.22]),
            correlation=flat_correlation(5, 0.35),
        )
        weights = np.full(5, 0.2)
        method = MonteCarloEuropean(n_paths=3001 + antithetic, seed=13, antithetic=antithetic)
        run_both(
            method,
            model,
            [BasketPut(strike=k, maturity=1.0, weights=weights) for k in (90.0, 100.0)]
            + [BasketCall(strike=100.0, maturity=1.0, weights=weights)],
        )

    def test_basket_paths(self):
        model = MultiAssetBlackScholesModel(
            spot=np.array([100.0, 95.0]),
            rate=0.02,
            volatilities=np.array([0.2, 0.25]),
            correlation=flat_correlation(2, 0.5),
        )
        weights = np.array([0.6, 0.4])
        method = MonteCarloEuropean(n_paths=2001, n_steps=6, seed=13)
        run_both(
            method, model,
            [BasketPut(strike=100.0, maturity=1.0, weights=weights),
             BasketCall(strike=95.0, maturity=1.0, weights=weights)],
        )


class TestGroupShapes:
    """cohort clustering: several groups through one run_groups plan."""

    def test_cross_group_cohort_equals_solo(self):
        """Same-signature groups (different vols) share one draw cohort."""
        method = MonteCarloEuropean(n_paths=3001, seed=21, batch_size=1000)
        groups = [
            (method, BlackScholesModel(spot=100.0, rate=0.03, volatility=vol),
             [EuropeanCall(strike=100.0, maturity=1.0),
              EuropeanPut(strike=100.0, maturity=1.0)])
            for vol in (0.15, 0.25, 0.35)
        ]
        stacked = run_groups(groups)
        for (m, model, products), group_results in zip(groups, stacked):
            solo = m.price_many(model, products, kernel="loop")
            assert_results_bit_equal(solo, group_results)

    def test_mixed_cohorts_one_plan(self):
        """Groups with different methods/grids cannot share draws -- still exact."""
        groups = [
            (MonteCarloEuropean(n_paths=2001, seed=1),
             BlackScholesModel(spot=100.0, rate=0.03, volatility=0.2),
             [EuropeanCall(strike=100.0, maturity=1.0)] * 2),
            (MonteCarloEuropean(n_paths=2001, seed=2),
             BlackScholesModel(spot=100.0, rate=0.03, volatility=0.2),
             [EuropeanPut(strike=100.0, maturity=1.0)] * 2),
            (MonteCarloEuropean(n_paths=1001, n_steps=4, seed=1),
             CEVModel(spot=100.0, rate=0.03, volatility=0.2, beta=0.8),
             [AsianCall(strike=100.0, maturity=1.0, n_fixings=4)]),
        ]
        stacked = run_groups(groups)
        for (m, model, products), group_results in zip(groups, stacked):
            solo = m.price_many(model, products, kernel="loop")
            assert_results_bit_equal(solo, group_results)

    def test_singleton_group(self):
        method = MonteCarloEuropean(n_paths=1001, seed=4)
        model = BlackScholesModel(spot=100.0, rate=0.03, volatility=0.2)
        run_both(method, model, [EuropeanCall(strike=100.0, maturity=1.0)])

    def test_chunked_cohort_still_exact(self, monkeypatch):
        """Force the memory-budget chunking path and re-check bit-equality."""
        import repro.pricing.kernel as kernel_module

        monkeypatch.setattr(kernel_module, "_MAX_STACK_ELEMENTS", 1 << 12)
        method = MonteCarloEuropean(n_paths=2001, n_steps=8, seed=17, batch_size=512)
        run_both(
            method,
            BlackScholesModel(spot=100.0, rate=0.03, volatility=0.25),
            PRODUCT_SETS["mixed_grid"](),
        )


class TestKernelSelection:
    def test_resolve_kernel(self):
        from repro.errors import PricingError

        assert resolve_kernel(None) == "stacked"
        assert resolve_kernel("loop") == "loop"
        assert resolve_kernel("stacked") == "stacked"
        with pytest.raises(PricingError):
            resolve_kernel("warp")

    def test_price_many_rejects_unknown_kernel(self):
        from repro.errors import PricingError

        method = MonteCarloEuropean(n_paths=100, seed=0)
        model = BlackScholesModel(spot=100.0, rate=0.03, volatility=0.2)
        with pytest.raises(PricingError, match="unknown kernel"):
            method.price_many(model, [EuropeanCall(strike=100.0, maturity=1.0)],
                              kernel="warp")

    def test_price_groups_stacked_entrypoint(self):
        method = MonteCarloEuropean(n_paths=1001, seed=4)
        model = BlackScholesModel(spot=100.0, rate=0.03, volatility=0.2)
        products = [EuropeanCall(strike=100.0, maturity=1.0)]
        [direct] = price_groups_stacked([(method, model, products)])
        via_price_many = method.price_many(model, products, kernel="stacked")
        assert_results_bit_equal(direct, via_price_many)

    def test_kernel_never_changes_method_params(self):
        """The kernel is an evaluation strategy, not a method parameter."""
        method = MonteCarloEuropean(n_paths=1001, seed=4)
        params_before = dict(method.to_params())
        model = BlackScholesModel(spot=100.0, rate=0.03, volatility=0.2)
        method.price_many(model, [EuropeanCall(strike=100.0, maturity=1.0)],
                          kernel="stacked")
        assert method.to_params() == params_before
        assert "kernel" not in params_before

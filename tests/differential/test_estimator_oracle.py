"""Production's one estimator loop is ``==`` the per-group loop it replaced.

``tests/oracles/estimator.py`` keeps ``MonteCarloEuropean._price_shared``,
the batch loop that priced a single problem and every ``kernel="loop"``
group before both ran through :func:`repro.pricing.kernel.run_groups`.  Each
coordinate below prices the same inputs through the oracle and through
production -- ``price_many`` under both ``kernel`` values, ``price()`` for
every product alone, and a batch plan -- and asserts exact equality of
prices, standard errors, confidence intervals, ``n_evaluations``, the
result extras and (through ``sample_sink``) every per-batch payoff sample.

The matrix is the kernel-differential one: models x product sets, terminal
mode, antithetic x odd/even ``n_paths`` x batch edges, control variate,
Sobol and the basket cases.  Only entry points that predate the merge are
called, so the file runs unchanged against the tree before it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pricing.batch import price_problems
from repro.pricing.engine import PricingProblem
from repro.pricing.kernel import KERNELS
from repro.pricing.methods.montecarlo import MonteCarloEuropean
from repro.pricing.models import BlackScholesModel, MultiAssetBlackScholesModel, flat_correlation
from repro.pricing.products import BasketCall, BasketPut, DigitalCall, EuropeanCall, EuropeanPut
from tests.oracles.estimator import price_shared

from .test_kernel_differential import MODELS, PRODUCT_SETS


def _sampled(price):
    """``price(sink)``'s results and the ``member -> samples`` it sank."""
    store: dict[int, list[np.ndarray]] = {}

    def sink(index: int, payoffs: np.ndarray) -> None:
        store.setdefault(index, []).append(np.array(payoffs, copy=True))

    results = price(sink)
    return results, {index: np.concatenate(batches) for index, batches in store.items()}


def _assert_same(expected, actual) -> None:
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert got.price == want.price
        assert got.std_error == want.std_error
        assert got.confidence_interval == want.confidence_interval
        assert got.n_evaluations == want.n_evaluations
        assert got.extra == want.extra


def assert_matches_oracle(method, model, products) -> None:
    """Every production entry point against the oracle, samples included."""
    products = list(products)
    expected, expected_samples = _sampled(
        lambda sink: price_shared(method, model, products, sample_sink=sink)
    )
    for kernel in KERNELS:
        results, samples = _sampled(
            lambda sink: method.price_many(model, products, kernel=kernel, sample_sink=sink)
        )
        _assert_same(expected, results)
        assert samples.keys() == expected_samples.keys()
        for index, want in expected_samples.items():
            assert np.array_equal(samples[index], want), (
                f"kernel={kernel}: samples of member {index} diverge from the oracle"
            )
    for product in products:
        _assert_same(price_shared(method, model, [product]), [method.price(model, product)])


class TestModelProductMatrix:
    @pytest.mark.parametrize("model_key", sorted(MODELS))
    @pytest.mark.parametrize("products_key", sorted(PRODUCT_SETS))
    def test_coordinate(self, model_key, products_key):
        method = MonteCarloEuropean(n_paths=4001, n_steps=16, seed=42, batch_size=1500)
        assert_matches_oracle(method, MODELS[model_key](), PRODUCT_SETS[products_key]())

    @pytest.mark.parametrize("model_key", ["bs", "cev", "heston"])
    def test_terminal_mode(self, model_key):
        method = MonteCarloEuropean(n_paths=4001, seed=7)
        assert_matches_oracle(method, MODELS[model_key](), PRODUCT_SETS["vanilla_mix"]())


_BS = BlackScholesModel(spot=100.0, rate=0.03, volatility=0.25)


class TestAntitheticAndBatchEdges:
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n_paths", [2, 3, 999, 1000, 4001])
    @pytest.mark.parametrize("batch_size", [2, 3, 997, 65_536])
    def test_terminal_accounting(self, antithetic, n_paths, batch_size):
        method = MonteCarloEuropean(
            n_paths=n_paths, antithetic=antithetic, seed=5, batch_size=batch_size
        )
        assert_matches_oracle(
            method, _BS,
            [EuropeanCall(strike=100.0, maturity=1.0), EuropeanPut(strike=95.0, maturity=1.0)],
        )

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("n_paths", [3, 999])
    def test_paths_accounting(self, antithetic, n_paths):
        method = MonteCarloEuropean(
            n_paths=n_paths, n_steps=8, antithetic=antithetic, seed=5, batch_size=128
        )
        assert_matches_oracle(method, _BS, PRODUCT_SETS["mixed_grid"]())

    @pytest.mark.parametrize("control_variate", [False, True])
    def test_control_variate_toggle(self, control_variate):
        method = MonteCarloEuropean(n_paths=3001, seed=3, control_variate=control_variate)
        assert_matches_oracle(method, _BS, PRODUCT_SETS["vanilla_mix"]())

    def test_sobol_rng(self):
        method = MonteCarloEuropean(n_paths=4096, seed=9, rng_kind="sobol")
        assert_matches_oracle(
            method, _BS,
            [EuropeanCall(strike=100.0, maturity=1.0), DigitalCall(strike=110.0, maturity=1.0)],
        )


class TestBasket:
    @staticmethod
    def _model(d: int) -> MultiAssetBlackScholesModel:
        return MultiAssetBlackScholesModel(
            spot=np.linspace(90.0, 110.0, d),
            rate=0.02,
            volatilities=np.linspace(0.18, 0.3, d),
            correlation=flat_correlation(d, 0.35),
        )

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_basket_terminal(self, antithetic):
        weights = np.full(5, 0.2)
        method = MonteCarloEuropean(n_paths=3001 + antithetic, seed=13, antithetic=antithetic)
        assert_matches_oracle(
            method, self._model(5),
            [BasketPut(strike=k, maturity=1.0, weights=weights) for k in (90.0, 100.0)]
            + [BasketCall(strike=100.0, maturity=1.0, weights=weights)],
        )

    @pytest.mark.parametrize("rng_kind", ["pcg64", "sobol"])
    def test_basket_paths(self, rng_kind):
        weights = np.array([0.5, 0.3, 0.2])
        method = MonteCarloEuropean(n_paths=2001, n_steps=6, seed=13, rng_kind=rng_kind)
        assert_matches_oracle(
            method, self._model(3),
            [BasketPut(strike=100.0, maturity=1.0, weights=weights),
             BasketCall(strike=95.0, maturity=1.0, weights=weights)],
        )


class TestPlan:
    """A batch plan of several groups: each group ``==`` its oracle run."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_price_problems(self, kernel):
        def problem(strike: float, volatility: float, seed: int) -> PricingProblem:
            p = PricingProblem(label=f"K{strike}_v{volatility}_s{seed}")
            p.set_model("BlackScholes1D", spot=100.0, rate=0.03, volatility=volatility)
            p.set_option("CallEuro", strike=strike, maturity=1.0)
            p.set_method("MC_European", n_paths=2001, seed=seed, batch_size=700)
            return p

        grid = [(k, v, s) for s in (1, 2) for v in (0.15, 0.3) for k in (90.0, 110.0)]
        problems = [problem(*cell) for cell in grid]
        results = price_problems(problems, kernel=kernel)
        for p, result in zip(problems, results):
            [expected] = price_shared(p.method, p.model, [p.product])
            _assert_same([expected], [result])

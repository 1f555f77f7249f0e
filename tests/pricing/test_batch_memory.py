"""What one Monte-Carlo batch holds: traced-peak pins at megabyte scale.

A batch holds its draw, its output and at most one scratch array: the
samplers transform the draw in place and write straight into the output,
the antithetic mirror fills one array, and a payoff family keeps at most
two ``(n_members, batch)`` arrays.  Each pin below is a ``tracemalloc``
peak for one sampler call (or one family) sized so that a chain of
full-size temporaries -- what each site built before -- overshoots it.
The last two pin the stack budget's estimate
(:func:`repro.pricing.kernel._group_elements`) against a whole batch of
:func:`~repro.pricing.kernel.run_groups`.

The figures in the comments are traced peaks (MB = 10**6 bytes) measured
on x86-64 with NumPy 2.4: this layout, then the chained temporaries it
replaced.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.pricing import kernel
from repro.pricing.methods.montecarlo import MonteCarloEuropean
from repro.pricing.models import (
    BlackScholesModel,
    CEVModel,
    MultiAssetBlackScholesModel,
    flat_correlation,
)
from repro.pricing.products import AsianCall, BasketPut, EuropeanCall
from repro.pricing.rng import AntitheticGenerator, create_generator

MB = 1e6
_D = 40


def _traced_peak(call) -> float:
    """Bytes ``call()`` holds at its peak, its result included."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


def _rng(antithetic: bool, dimension: int = 1):
    rng = create_generator("pcg64", seed=3, dimension=dimension)
    return AntitheticGenerator(rng) if antithetic else rng


def _basket(volatility: float = 0.15) -> MultiAssetBlackScholesModel:
    return MultiAssetBlackScholesModel(
        spot=np.full(_D, 100.0), rate=0.03,
        volatilities=np.linspace(volatility, volatility + 0.2, _D),
        correlation=flat_correlation(_D, 0.3),
    )


def _cev_stack() -> list[CEVModel]:
    return [CEVModel(spot=100.0, rate=0.03, volatility=0.2 + 0.05 * g, beta=0.7)
            for g in range(4)]


#: (sampler call, bound in MB): one batch of each rewritten site
PINS = {
    # 50,000 x 40 antithetic: 8 MB half-draw + 16 MB mirrored output (24.0 -> 64.1)
    "basket_terminal_antithetic": (
        lambda: _basket().sample_terminal(_rng(True, _D), 50_000, 1.0), 25),
    # plain: 16 MB draw + 16 MB output (32.0 -> 64.1)
    "basket_terminal_plain": (
        lambda: _basket().sample_terminal(_rng(False, _D), 50_000, 1.0), 33),
    # two models reading one correlated draw: 16 MB draw + one copy for
    # the first reader (32.1 -> 80.1)
    "basket_terminal_shared_factor": (
        lambda: MultiAssetBlackScholesModel.stacked_sample_terminal(
            [_basket(0.15), _basket(0.25)], _rng(False, _D), 50_000, 1.0), 33),
    # 20,000 x 3 x 40 paths 19.2 MB + log-price 6.4 + one step's draw 9.6 (35.2 -> 48.1)
    "basket_paths_antithetic": (
        lambda: _basket().simulate_paths(_rng(True, _D), 20_000, np.linspace(0.0, 1.0, 3)),
        37),
    # 3 x 50,000 x 51 paths 61.2 MB + 20 MB mirrored draw (81.4 -> 323.6)
    "bs_paths_antithetic": (
        lambda: BlackScholesModel.stacked_simulate_paths(
            [BlackScholesModel(100.0, 0.03, 0.2 + 0.05 * g) for g in range(3)],
            _rng(True), 50_000, np.linspace(0.0, 1.0, 51)), 84),
    # 3 x 500,000 output 12 MB + 4 MB mirrored draw (16.0 -> 28.0)
    "bs_terminal_antithetic": (
        lambda: BlackScholesModel.stacked_sample_terminal(
            [BlackScholesModel(100.0, 0.03, 0.2 + 0.05 * g) for g in range(3)],
            _rng(True), 500_000, 1.0), 17),
    # 4 x 200,000 x 3 paths 19.2 MB + 3.2 MB draw + 6.4 MB scratch, the
    # volatility written into the next column (32.0 -> 48.0)
    "local_vol_paths": (
        lambda: CEVModel.stacked_simulate_paths(
            _cev_stack(), _rng(False), 200_000, np.linspace(0.0, 1.0, 3)), 34),
    # 4 x 200,000 streamed Euler: spots, volatility and scratch, 6.4 MB each,
    # and one model's volatility temporaries (24.0 -> 33.6)
    "local_vol_terminal": (
        lambda: CEVModel.stacked_sample_terminal(_cev_stack(), _rng(False), 200_000, 0.1),
        26),
    # a 500,000 x 4 mirrored draw: 8 MB half + 16 MB whole (24.0 -> 32.0)
    "antithetic_normals": (lambda: _rng(True, 4).normals((500_000, 4)), 25),
    "antithetic_uniforms": (lambda: _rng(True, 4).uniforms((500_000, 4)), 25),
}


@pytest.mark.parametrize("site", sorted(PINS))
def test_a_batch_holds_its_draw_and_output(site):
    call, bound_mb = PINS[site]
    assert _traced_peak(call) <= bound_mb * MB


def test_a_payoff_family_holds_two_member_by_batch_arrays():
    """40 calls x 50,000 antithetic paths: the 16 MB payoff matrix, then the
    8 MB pair averages beside it, then pairs and squares (24.4 -> 32.4)."""
    method = MonteCarloEuropean(n_paths=50_000, seed=3, antithetic=True, batch_size=50_000)
    model = BlackScholesModel(100.0, 0.03, 0.2)
    products = [EuropeanCall(strike=80.0 + k, maturity=1.0) for k in range(40)]
    assert _traced_peak(lambda: kernel.run_groups([(method, model, products)])) <= 26 * MB


def _estimate_bytes(method, model, products) -> float:
    group = kernel._build_group(method, model, products, None, "stacked")
    return 8.0 * sum(kernel._group_elements(group))


@pytest.mark.parametrize("mode", ["terminal", "paths"])
def test_the_stack_budget_bounds_a_batch(mode):
    """Traced peak of one whole batch <= 1.25 x the estimate, in bytes."""
    if mode == "terminal":
        # 40-d basket, 50,000 antithetic paths: 24.0 MB of a 40 MB estimate
        # (64.1 before, against a 16 MB estimate)
        model = _basket()
        products = [BasketPut(strike=100.0, maturity=1.0, weights=np.full(_D, 1.0 / _D))]
        method = MonteCarloEuropean(n_paths=50_000, seed=3, antithetic=True,
                                    batch_size=50_000)
    else:
        # 50 steps, 50,000 antithetic paths: 40.6 MB of a 50.4 MB estimate
        # (121.2 before, against a 20.4 MB estimate)
        model = BlackScholesModel(100.0, 0.03, 0.2)
        products = [AsianCall(strike=100.0, maturity=1.0)]
        method = MonteCarloEuropean(n_paths=50_000, n_steps=50, seed=3, antithetic=True,
                                    batch_size=50_000)
    peak = _traced_peak(lambda: kernel.run_groups([(method, model, products)]))
    assert peak <= 1.25 * _estimate_bytes(method, model, products)

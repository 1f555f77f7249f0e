"""The three places an in-place write could corrupt a Monte-Carlo result.

The samplers transform their draws in place and the payoff families write
into buffers they own.  Each test below puts one of the shared arrays that
rewrite must leave alone under load and compares every reader ``==`` with
its solo computation -- the old solo samplers of :mod:`tests.oracles.samplers`
and the per-group loop of :mod:`tests.oracles.estimator`:

* two stacked multi-asset models with one Cholesky factor read one
  correlated draw: only its last reader may transform it in place;
* the groups of an opaque cohort (bit-equal Heston models) are all handed
  the one array the solo sampler returned;
* the chunks of a cohort split by the stack budget replay the first chunk's
  draws from a tape, the very arrays, frozen read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pricing import kernel
from repro.pricing.methods.montecarlo import MonteCarloEuropean
from repro.pricing.models import (
    BlackScholesModel,
    HestonModel,
    MultiAssetBlackScholesModel,
    flat_correlation,
)
from repro.pricing.products import (
    AsianCall,
    BasketCall,
    BasketPut,
    DigitalCall,
    DownOutCall,
    EuropeanCall,
    EuropeanPut,
    UpOutPut,
)
from repro.pricing.rng import AntitheticGenerator, create_generator
from tests.oracles.estimator import price_shared
from tests.oracles.samplers import solo_sample_terminal, solo_simulate_paths

_D = 5
_TIMES = np.linspace(0.0, 0.7, 5)


def _basket(volatility: float, rho: float) -> MultiAssetBlackScholesModel:
    return MultiAssetBlackScholesModel(
        spot=np.linspace(90.0, 110.0, _D), rate=0.02,
        volatilities=np.linspace(volatility, volatility + 0.1, _D),
        correlation=flat_correlation(_D, rho), dividends=0.01,
    )


def _rng(antithetic: bool):
    rng = create_generator("pcg64", seed=11, dimension=_D)
    return AntitheticGenerator(rng) if antithetic else rng


@pytest.mark.parametrize("mode_paths", [False, True], ids=["terminal", "paths"])
@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
def test_models_sharing_a_factor_each_get_their_solo_draw(antithetic, mode_paths):
    """Rows 0, 1 and 3 share one factor (one correlated draw), row 2 has its own."""
    models = [_basket(0.15, 0.3), _basket(0.25, 0.3), _basket(0.2, 0.0), _basket(0.35, 0.3)]
    if mode_paths:
        stacked = MultiAssetBlackScholesModel.stacked_simulate_paths(
            models, _rng(antithetic), 64, _TIMES)
    else:
        stacked = MultiAssetBlackScholesModel.stacked_sample_terminal(
            models, _rng(antithetic), 64, 0.7)
    for model, row in zip(models, stacked):
        if mode_paths:
            solo = solo_simulate_paths(model, _rng(antithetic), 64, _TIMES)
        else:
            solo = solo_sample_terminal(model, _rng(antithetic), 64, 0.7)
        assert np.array_equal(row, solo)
    assert len({id(row) for row in stacked}) == len(models)


def _collecting_sink(store: dict):
    def sink(index: int, payoffs: np.ndarray) -> None:
        store.setdefault(index, []).append(np.array(payoffs, copy=True))

    return sink


def _assert_each_group_is_its_solo_run(method, groups) -> None:
    """``run_groups`` over all ``groups`` == each group priced alone by the
    old per-group loop: prices, errors and every per-path sample."""
    stores: dict[int, dict] = {gi: {} for gi in range(len(groups))}
    sinks = {gi: _collecting_sink(stores[gi]) for gi in stores}
    results = kernel.run_groups([(method, model, products) for model, products in groups],
                                sample_sinks=sinks)
    for gi, (model, products) in enumerate(groups):
        solo_store: dict = {}
        fresh = type(model).from_params(model.to_params())  # no recorder on it
        solo = price_shared(method, fresh, products, _collecting_sink(solo_store))
        assert [(r.price, r.std_error) for r in results[gi]] == \
            [(r.price, r.std_error) for r in solo]
        assert solo_store.keys() == stores[gi].keys()
        for index, batches in solo_store.items():
            assert np.array_equal(np.concatenate(batches), np.concatenate(stores[gi][index]))


def _heston() -> HestonModel:
    return HestonModel(spot=100.0, rate=0.03, v0=0.04, kappa=2.0, theta=0.04,
                       sigma_v=0.4, rho=-0.7)


@pytest.mark.parametrize("mode_paths", [False, True], ids=["terminal", "paths"])
@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
def test_an_opaque_cohort_shares_one_array_and_leaves_it_alone(
    monkeypatch, antithetic, mode_paths
):
    """Bit-equal Heston models form one opaque cohort: the one array the
    sampler returns is every group's, unchanged after all of them read it."""
    if mode_paths:
        sets = [
            [AsianCall(strike=100.0, maturity=1.0, n_fixings=8),
             DownOutCall(strike=95.0, maturity=1.0, barrier=80.0)],
            [UpOutPut(strike=100.0, maturity=1.0, barrier=130.0, rebate=2.0),
             EuropeanCall(strike=100.0, maturity=1.0)],
            [AsianCall(strike=90.0, maturity=1.0, n_fixings=8)],
        ]
        method = MonteCarloEuropean(n_paths=1001, n_steps=8, seed=5, batch_size=400,
                                    antithetic=antithetic)
    else:
        sets = [
            [EuropeanCall(strike=k, maturity=1.0) for k in (90.0, 100.0, 110.0)],
            [EuropeanPut(strike=100.0, maturity=1.0), DigitalCall(strike=105.0, maturity=1.0)],
            [EuropeanCall(strike=95.0, maturity=1.0)],
        ]
        method = MonteCarloEuropean(n_paths=1001, seed=5, batch_size=400,
                                    antithetic=antithetic, control_variate=True)
    models = [_heston() for _ in sets]
    handed: list[tuple[np.ndarray, np.ndarray]] = []
    name = "simulate_paths" if mode_paths else "sample_terminal"
    solo_sampler = getattr(models[0], name)

    def recording(*args):
        draw = solo_sampler(*args)
        handed.append((draw, draw.copy()))
        return draw

    monkeypatch.setattr(models[0], name, recording)
    _assert_each_group_is_its_solo_run(method, list(zip(models, sets)))
    assert len(handed) == 3  # one array per batch, for all three groups
    for draw, copy in handed:
        assert np.array_equal(draw, copy)


@pytest.mark.parametrize("family", ["bs_terminal", "bs_paths", "basket_terminal",
                                    "basket_paths"])
@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
def test_taped_chunks_price_alone_and_leave_the_tape_frozen(monkeypatch, antithetic, family):
    """A cohort split into one chunk per group: later chunks replay the
    first chunk's draws, which stay read-only and equal to a fresh draw."""
    tapes: list[list] = []

    class KeptTape(kernel._TapeGenerator):
        def __init__(self, base, tape, replay):
            super().__init__(base, tape, replay)
            if not replay:
                tapes.append(tape)

    monkeypatch.setattr(kernel, "_TapeGenerator", KeptTape)
    monkeypatch.setattr(kernel, "_MAX_STACK_ELEMENTS", 1)
    if family.startswith("bs"):
        models = [BlackScholesModel(spot=100.0, rate=0.03, volatility=v)
                  for v in (0.15, 0.25, 0.35)]
        products = [EuropeanCall(strike=100.0, maturity=1.0),
                    DigitalCall(strike=105.0, maturity=1.0)]
    else:
        # the first two share one factor, so one of them transforms a copy
        models = [_basket(0.15, 0.3), _basket(0.25, 0.3), _basket(0.2, 0.0)]
        weights = np.full(_D, 1.0 / _D)
        products = [BasketPut(strike=100.0, maturity=1.0, weights=weights),
                    BasketCall(strike=95.0, maturity=1.0, weights=weights)]
    n_steps = 6 if family.endswith("paths") else None
    if n_steps and family.startswith("bs"):
        products.append(AsianCall(strike=100.0, maturity=1.0, n_fixings=6))
    method = MonteCarloEuropean(n_paths=601, n_steps=n_steps, seed=9, batch_size=256,
                                antithetic=antithetic)
    _assert_each_group_is_its_solo_run(method, [(model, products) for model in models])

    assert len(tapes) == 1
    fresh = create_generator("pcg64", seed=9, dimension=models[0].dimension)
    for kind, draw in tapes[0]:
        assert kind == "n" and not draw.flags.writeable
        assert np.array_equal(draw, fresh.normals(draw.shape))

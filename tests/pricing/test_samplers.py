"""One sampler per model: the production samplers ``==`` the old solo bodies.

``tests/oracles/samplers.py`` keeps the solo ``simulate_paths`` /
``sample_terminal`` bodies the stackable models carried beside their
``stacked_*`` twins.  Production samples alone as a stack of one; these
tests pin that this changed no bit -- alone, and as one row of a stack --
under both generators, with antithetic pairs on and off, at odd and even
path counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PricingError
from repro.pricing.models import (
    BlackScholesModel,
    CEVModel,
    HestonModel,
    MertonJumpModel,
    MultiAssetBlackScholesModel,
    SmileLocalVolModel,
    flat_correlation,
)
from repro.pricing.rng import AntitheticGenerator, create_generator
from tests.oracles.samplers import solo_sample_terminal, solo_simulate_paths

_N_STEPS = 12
#: not 1: a unit maturity's sqrt hides a reassociated product
_MATURITY = 0.7
_TIMES = np.linspace(0.0, _MATURITY, _N_STEPS + 1)

MODELS = {
    "bs": lambda: BlackScholesModel(spot=100.0, rate=0.03, volatility=0.25, dividend=0.01),
    "cev": lambda: CEVModel(spot=100.0, rate=0.03, volatility=0.2, beta=0.7),
    "smile": lambda: SmileLocalVolModel(spot=100.0, rate=0.01, base_volatility=0.22),
    "basket10": lambda: MultiAssetBlackScholesModel(
        spot=np.linspace(90.0, 110.0, 10),
        rate=0.02,
        volatilities=np.linspace(0.15, 0.35, 10),
        correlation=flat_correlation(10, 0.3),
        dividends=0.01,
    ),
}

#: a stack per family: members differ in every parameter the sampler reads
STACKS = {
    "bs": lambda: [
        BlackScholesModel(spot=s, rate=r, volatility=v)
        for s, r, v in ((100.0, 0.03, 0.25), (90.0, 0.01, 0.4), (120.0, 0.05, 0.1))
    ],
    "local_vol": lambda: [
        CEVModel(spot=100.0, rate=0.03, volatility=0.2, beta=0.7),
        SmileLocalVolModel(spot=95.0, rate=0.01, base_volatility=0.22),
        CEVModel(spot=110.0, rate=0.02, volatility=0.3, beta=1.2, dividend=0.02),
    ],
    "basket10": lambda: [
        MultiAssetBlackScholesModel(
            spot=np.full(10, 100.0), rate=0.02, volatilities=0.2,
            correlation=flat_correlation(10, rho),
        )
        for rho in (0.3, 0.0, 0.3)  # equal factors share one correlated product
    ],
}


def _rng(kind: str, antithetic: bool, model, mode_paths: bool):
    """A fresh generator, dimensioned for the one draw shape the sampler asks for."""
    if model.dimension > 1:
        dimension = model.dimension  # one (n, d) draw per step
    elif mode_paths:
        dimension = _N_STEPS  # one (n, n_steps) block
    else:
        dimension = 1  # one (n,) draw (per step for the streamed Euler terminal)
    rng = create_generator(kind, seed=17, dimension=dimension)
    return AntitheticGenerator(rng) if antithetic else rng


def _sample(solo: bool, model, rng, n_paths: int, mode_paths: bool):
    if mode_paths:
        sampler = solo_simulate_paths if solo else type(model).simulate_paths
        return sampler(model, rng, n_paths, _TIMES)
    sampler = solo_sample_terminal if solo else type(model).sample_terminal
    return sampler(model, rng, n_paths, _MATURITY)


@pytest.mark.parametrize("model_key", sorted(MODELS))
@pytest.mark.parametrize("mode_paths", [True, False], ids=["paths", "terminal"])
@pytest.mark.parametrize("kind", ["pcg64", "sobol"])
@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
@pytest.mark.parametrize("n_paths", [1023, 1024])
def test_solo_sampler_is_the_old_solo_body(model_key, mode_paths, kind, antithetic, n_paths):
    model = MODELS[model_key]()
    if antithetic and n_paths % 2:
        # both refuse an odd antithetic request, with the generator's error
        for solo in (True, False):
            with pytest.raises(ValueError, match="even number"):
                _sample(solo, model, _rng(kind, antithetic, model, mode_paths), n_paths,
                        mode_paths)
        return
    expected = _sample(True, model, _rng(kind, antithetic, model, mode_paths), n_paths,
                       mode_paths)
    actual = _sample(False, model, _rng(kind, antithetic, model, mode_paths), n_paths,
                     mode_paths)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("stack_key", sorted(STACKS))
@pytest.mark.parametrize("mode_paths", [True, False], ids=["paths", "terminal"])
@pytest.mark.parametrize("antithetic", [False, True], ids=["plain", "antithetic"])
def test_each_stack_row_is_the_old_solo_body(stack_key, mode_paths, antithetic):
    """The kernel's cohorts: one shared draw, each row as if drawn alone."""
    models = STACKS[stack_key]()
    cls = type(models[0])  # a CEVModel stacks with any DiffusionModel1D
    n_paths = 512
    rng = _rng("pcg64", antithetic, models[0], mode_paths)
    if mode_paths:
        rows = cls.stacked_simulate_paths(models, rng, n_paths, _TIMES)
    else:
        rows = cls.stacked_sample_terminal(models, rng, n_paths, _MATURITY)
    assert len(rows) == len(models)
    for model, row in zip(models, rows):
        expected = _sample(True, model, _rng("pcg64", antithetic, model, mode_paths), n_paths,
                           mode_paths)
        assert np.array_equal(row, expected)


BAD_GRIDS = {
    "decreasing": [0.0, 0.5, 0.25, 1.0],
    "repeated": [0.0, 0.5, 0.5, 1.0],
    "late_start": [0.5, 1.0],
}

GRID_MODELS = {
    **MODELS,
    "heston": lambda: HestonModel(
        spot=100.0, rate=0.02, v0=0.04, kappa=1.5, theta=0.05, sigma_v=0.4, rho=-0.6
    ),
    "merton": lambda: MertonJumpModel(
        spot=100.0, rate=0.02, volatility=0.2, jump_intensity=0.4,
        jump_mean=-0.08, jump_std=0.12,
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model_key", sorted(GRID_MODELS))
@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
def test_every_path_sampler_refuses_a_bad_grid(model_key, grid):
    """A decreasing grid was ``sqrt`` of a negative step for the local-vol,
    Heston and Merton samplers (NaN paths), a repeated one a silent zero step."""
    model = GRID_MODELS[model_key]()
    rng = create_generator("pcg64", seed=0)
    message = "start at 0" if grid == "late_start" else "strictly increasing"
    with pytest.raises(PricingError, match=message):
        model.simulate_paths(rng, 8, np.array(BAD_GRIDS[grid]))

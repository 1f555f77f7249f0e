"""Seeded input generators of the five end-to-end workloads.

The seed drives everything that varies between runs (spot/vol jitter, basket
volatilities, the Sobol stream seed, the VaR return series) and nothing that
changes the *amount* of work: position counts, path counts and grid sizes are
fixed by the profile, so two seeds load the pipeline equally.  The program
under test only ever sees the generated :class:`Inputs`.

Workload names are fixed -- later issues refer to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.portfolio import (
    Portfolio,
    Position,
    build_realistic_portfolio,
    build_toy_portfolio,
)
from repro.pricing import PricingProblem, flat_correlation

#: worker count of every wall-clock workload (the sizing box has nproc = 2)
N_WORKERS = 2

#: share of the full input size priced by the untimed warm-up run of set-up
WARMUP_FRACTION = 0.1

#: ``--smoke`` divides every size by this
SMOKE_DIVISOR = 20

#: the toy builder cycles 61 strikes x 32 maturities, so one (spot, vol) pair
#: yields at most 1952 distinct problems; chunks stay well below that
_TOY_CHUNK = 1000

_BASKET_DIMENSION = 10
_GRID_STRIKES = 7


@dataclass
class Inputs:
    """What one run hands to the session: a book and, for VaR, the returns."""

    portfolio: Portfolio
    spot_returns: list[float] | None = None
    #: sizes worth recording in the result JSON
    sizes: dict[str, int] = field(default_factory=dict)

    @property
    def n_positions(self) -> int:
        """Units of work: positions, or scenario cells for a risk campaign."""
        if self.spot_returns is None:
            return len(self.portfolio)
        return len(self.portfolio) * (len(self.spot_returns) + 1)


@dataclass(frozen=True)
class Workload:
    """One named workload: its generator and how the session runs it."""

    name: str
    backend: str
    #: ``build(seed, fraction)``; ``fraction`` in (0, 1] shrinks the input
    build: Callable[[int, float], Inputs]
    #: keyword options of ``session.run`` over the (expanded) portfolio
    run_options: Mapping[str, Any] = field(default_factory=dict)
    #: ``True`` runs ``session.risk(book, spot_returns=...)`` end to end
    risk: bool = False
    #: positions re-priced alone in-process by the verification pass
    verify_sample: int = 128

    def build_profile(self, seed: int, smoke: bool, fraction: float = 1.0) -> Inputs:
        return self.build(seed, fraction / (SMOKE_DIVISOR if smoke else 1))


def _scaled(count: int, fraction: float, floor: int = 1) -> int:
    return max(floor, int(round(count * fraction)))


def _rng(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, workload stream)."""
    return np.random.default_rng([int(seed), stream])


# -- toy_cf_* : Table II ------------------------------------------------------------


def build_toy(seed: int, fraction: float = 1.0, n_options: int = 3000) -> Inputs:
    """Closed-form vanillas in chunks, each with its own jittered spot/vol."""
    rng = _rng(seed, 1)
    total = _scaled(n_options, fraction, floor=8)
    portfolio = Portfolio(name="toy")
    index = 0
    while len(portfolio) < total:
        chunk = min(_TOY_CHUNK, total - len(portfolio))
        book = build_toy_portfolio(
            chunk,
            spot=100.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)),
            volatility=0.22 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0)),
            name=f"toy{index}",
        )
        portfolio.extend(book.positions)
        index += 1
    return Inputs(portfolio, sizes={"positions": total})


# -- realistic_mp : Table III -------------------------------------------------------

#: method parameters re-set by the benchmark so the mean job is tens of ms
_REALISTIC_METHOD_PARAMS: dict[str, dict[str, int]] = {
    "barrier_pde": {"n_space": 400, "n_time": 200},
    "american_pde": {"n_space": 400, "n_time": 200},
    "basket_mc": {"n_paths": 50_000},
    "localvol_mc": {"n_paths": 50_000, "n_steps": 12},
    "american_basket_ls": {"n_paths": 20_000, "n_steps": 10},
}


def build_realistic(seed: int, fraction: float = 1.0, scale: float = 0.02) -> Inputs:
    """The six Table III slices (``profile="fast"``) at benchmark method sizes."""
    rng = _rng(seed, 2)
    portfolio = build_realistic_portfolio(
        profile="fast",
        scale=min(1.0, scale * fraction),
        seed=int(seed),
        spot=100.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)),
        volatility=0.25 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0)),
    )
    for position in portfolio:
        overrides = _REALISTIC_METHOD_PARAMS.get(position.category)
        if overrides:
            problem = position.problem
            params = problem.method.to_params()
            params.update(overrides)
            problem.set_method(problem.method_name, **params)
    return Inputs(portfolio, sizes={"positions": len(portfolio),
                                    **portfolio.count_by_category()})


# -- basket_grid_mp : the bench_batch_pricing grid ------------------------------------


def build_basket_grid(
    seed: int, fraction: float = 1.0, n_families: int = 60, n_paths: int = 100_000
) -> Inputs:
    """Vol scenarios x strikes of 10-d Sobol basket puts sharing one stream.

    Each family (one volatility vector) is one shared-simulation group; all
    groups form a single draw cohort for the stacked kernel.  Shrinking cuts
    families first so group sizes -- what the kernel sees -- stay put.
    """
    rng = _rng(seed, 3)
    families = _scaled(n_families, fraction, floor=2)
    base_vols = 0.12 + 0.01 * np.arange(_BASKET_DIMENSION) + 0.02 * rng.random(_BASKET_DIMENSION)
    stream_seed = 1 + int(rng.integers(0, 1 << 20))
    corr = flat_correlation(_BASKET_DIMENSION, 0.3).tolist()
    weights = [1.0 / _BASKET_DIMENSION] * _BASKET_DIMENSION
    portfolio = Portfolio(name="basket_grid")
    for fam in range(families):
        vols = (base_vols + 0.004 * fam).tolist()
        for j in range(_GRID_STRIKES):
            strike = 80.0 + 40.0 * j / (_GRID_STRIKES - 1)
            problem = PricingProblem(label=f"scen{fam:03d}_K{strike:.2f}")
            problem.set_asset("equity")
            problem.set_model(
                "BlackScholesND", spot=[100.0] * _BASKET_DIMENSION, rate=0.045,
                volatilities=vols, correlation=corr, dividends=0.0,
            )
            problem.set_option("BasketPutEuro", strike=strike, maturity=1.0,
                               weights=weights)
            problem.set_method(
                "MC_European", n_paths=n_paths, n_steps=1, antithetic=False,
                control_variate=False, seed=stream_seed, rng_kind="sobol",
            )
            portfolio.add(Position(problem=problem, category="scenario_mc",
                                   label=problem.label))
    return Inputs(portfolio, sizes={"positions": len(portfolio), "families": families,
                                    "strikes": _GRID_STRIKES, "paths": n_paths})


# -- var_campaign_mp : historical VaR over an MC call ladder ------------------------


def build_var_campaign(
    seed: int, fraction: float = 1.0, n_strikes: int = 50, n_returns: int = 150,
    n_paths: int = 20_000,
) -> Inputs:
    """A single-model Sobol call ladder and a seeded spot-return history."""
    rng = _rng(seed, 4)
    spot = 100.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
    volatility = 0.22 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0))
    stream_seed = 1 + int(rng.integers(0, 1 << 20))
    returns = _scaled(n_returns, fraction, floor=4)
    portfolio = Portfolio(name="var_ladder")
    for index in range(n_strikes):
        strike = 80.0 + 40.0 * index / (n_strikes - 1)
        problem = PricingProblem(label=f"call_K{strike:.2f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=spot, rate=0.045, volatility=volatility)
        problem.set_option("CallEuro", strike=strike, maturity=1.0)
        problem.set_method(
            "MC_European", n_paths=n_paths, n_steps=1, antithetic=False,
            control_variate=False, seed=stream_seed, rng_kind="sobol",
        )
        portfolio.add(Position(problem=problem, category="vanilla_mc", label=problem.label))
    spot_returns = rng.normal(0.0, 0.012, returns).tolist()
    return Inputs(portfolio, spot_returns=spot_returns,
                  sizes={"positions": n_strikes, "returns": returns, "paths": n_paths,
                         "cells": n_strikes * (returns + 1)})


#: why each was chosen is recorded beside its name in ``BENCHMARK.json``
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="toy_cf_mp",
            backend="multiprocessing",
            build=build_toy,
        ),
        Workload(
            name="toy_cf_remote",
            backend="remote",
            build=build_toy,
        ),
        Workload(
            name="realistic_mp",
            backend="multiprocessing",
            build=build_realistic,
            verify_sample=24,
        ),
        Workload(
            name="basket_grid_mp",
            backend="multiprocessing",
            build=build_basket_grid,
            run_options={"batch": True, "kernel": "stacked"},
            verify_sample=21,
        ),
        Workload(
            name="var_campaign_mp",
            backend="multiprocessing",
            build=build_var_campaign,
            run_options={"batch": True, "kernel": "stacked", "min_group_size": 1},
            risk=True,
        ),
    )
}

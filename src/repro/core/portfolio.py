"""Portfolios of pricing problems and the paper's three benchmark workloads.

A *portfolio* is an ordered collection of :class:`Position` objects, each
wrapping a fully specified :class:`~repro.pricing.engine.PricingProblem`
(plus a quantity and a category tag).  A portfolio can be

* written to disk as one problem file per position
  (:meth:`Portfolio.to_store`), which is how the paper represents a
  portfolio ("a portfolio will be a collection of files, each file describing
  a precise pricing problem");
* turned into a list of scheduler :class:`~repro.cluster.backends.base.Job`
  objects (:meth:`Portfolio.build_jobs`), with per-job compute costs from a
  :class:`~repro.cluster.costmodel.CostModel` and message sizes from the
  serialized problem size.

Three builders reproduce the paper's workloads:

* :func:`build_toy_portfolio` -- Table II: 10,000 closed-form vanilla options;
* :func:`build_realistic_portfolio` -- Table III: the 7,931-claim equity
  portfolio of Section 4.3 (vanilla, barrier PDE, 40-d basket Monte-Carlo,
  local-volatility Monte-Carlo, American PDE, 7-d American basket
  Longstaff-Schwartz);
* :func:`build_regression_portfolio` -- Table I: one instance of every
  registered (model, option, method) combination, i.e. Premia's
  non-regression tests (see also :mod:`repro.core.regression`).

Each builder accepts a ``scale`` factor that shrinks the position counts
proportionally (used by tests and the real-execution examples, which cannot
afford 7,931 Monte-Carlo pricings), and a ``profile`` switching method
parameters between the paper's heavy settings and fast settings suitable for
actual execution on a laptop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.cluster.backends.base import Job
from repro.cluster.costmodel import CostModel, paper_cost_model
from repro.errors import PortfolioError
from repro.pricing.engine import PricingProblem
from repro.pricing.models.multi_asset import flat_correlation
from repro.serial import ProblemStore

__all__ = [
    "Position",
    "Portfolio",
    "build_toy_portfolio",
    "build_realistic_portfolio",
    "build_regression_portfolio",
    "PORTFOLIO_BUILDERS",
]


@dataclass
class Position:
    """One contingent claim held in the portfolio."""

    problem: PricingProblem
    quantity: float = 1.0
    category: str = "generic"
    label: str = ""

    def __post_init__(self) -> None:
        if not self.problem.is_complete:
            raise PortfolioError(
                f"position {self.label or self.category} has an incomplete pricing problem"
            )


class Portfolio:
    """An ordered collection of positions."""

    def __init__(self, name: str = "portfolio", positions: Iterable[Position] | None = None):
        self.name = name
        self._positions: list[Position] = list(positions or [])

    # -- container protocol --------------------------------------------------------
    def add(self, position: Position) -> None:
        self._positions.append(position)

    def extend(self, positions: Iterable[Position]) -> None:
        self._positions.extend(positions)

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self) -> Iterator[Position]:
        return iter(self._positions)

    def __getitem__(self, index: int) -> Position:
        return self._positions[index]

    @property
    def positions(self) -> list[Position]:
        return list(self._positions)

    # -- summaries -----------------------------------------------------------------
    def categories(self) -> list[str]:
        """Distinct category tags, in first-appearance order."""
        seen: dict[str, None] = {}
        for position in self._positions:
            seen.setdefault(position.category, None)
        return list(seen)

    def count_by_category(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for position in self._positions:
            counts[position.category] = counts.get(position.category, 0) + 1
        return counts

    def summary(self, cost_model: CostModel | None = None) -> dict[str, dict[str, float]]:
        """Per-category position counts and (optionally) estimated costs."""
        out: dict[str, dict[str, float]] = {}
        for position in self._positions:
            entry = out.setdefault(
                position.category, {"count": 0, "estimated_cost": 0.0}
            )
            entry["count"] += 1
            if cost_model is not None:
                entry["estimated_cost"] += cost_model.estimate(position.problem)
        return out

    def total_estimated_cost(self, cost_model: CostModel | None = None) -> float:
        """Total single-worker compute time estimate (seconds)."""
        model = cost_model or paper_cost_model()
        return sum(model.estimate(position.problem) for position in self._positions)

    def subset(self, max_positions: int) -> "Portfolio":
        """First ``max_positions`` positions (stratified by insertion order)."""
        return Portfolio(name=f"{self.name}[:{max_positions}]",
                         positions=self._positions[:max_positions])

    # -- persistence -----------------------------------------------------------------
    def to_store(self, directory: str | Path, compress: bool = False) -> ProblemStore:
        """Write one problem file per position and return the store."""
        store = ProblemStore(directory, prefix=f"{self.name}_")
        store.write_all((position.problem for position in self._positions), compress=compress)
        return store

    @classmethod
    def from_store(cls, store: ProblemStore, name: str = "portfolio") -> "Portfolio":
        """Rebuild a portfolio (with unit quantities) from a problem store."""
        positions = []
        for path in store.paths():
            problem = store_load(path)
            positions.append(
                Position(problem=problem, category=problem.label or "generic",
                         label=str(path.name))
            )
        return cls(name=name, positions=positions)

    # -- scheduler jobs -----------------------------------------------------------------
    def build_jobs(
        self,
        cost_model: CostModel | None = None,
        store: ProblemStore | None = None,
        attach_problems: bool = False,
        virtual_prefix: str = "/virtual/portfolio",
    ) -> list[Job]:
        """Turn the portfolio into scheduler jobs.

        Parameters
        ----------
        cost_model:
            Cost model used for the per-job compute cost (default:
            :func:`repro.cluster.costmodel.paper_cost_model`).
        store:
            When given, jobs point at the real problem files of the store
            (required by executing backends with the NFS strategy).  When
            omitted, jobs carry virtual paths and the file size of the
            serialized problem (simulation-only runs, no disk I/O).
        attach_problems:
            Attach the in-memory problem to each job (needed by executing
            backends when no store is used).  An attached problem is
            serialized when its bytes or size are first needed, once (see
            :meth:`Job.wire_bytes`); without it the size is taken now.
        """
        model = cost_model or paper_cost_model()
        jobs: list[Job] = []
        paths = store.paths() if store is not None else None
        if paths is not None and len(paths) != len(self._positions):
            raise PortfolioError(
                f"store has {len(paths)} files but the portfolio has "
                f"{len(self._positions)} positions"
            )
        for index, position in enumerate(self._positions):
            if paths is not None:
                path = str(paths[index])
                file_size = paths[index].stat().st_size
            else:
                path = f"{virtual_prefix}/{self.name}_{index:06d}.pb"
                file_size = None
            job = Job(
                job_id=index,
                path=path,
                file_size=file_size,
                compute_cost=model.estimate(position.problem),
                category=position.category,
                problem=position.problem,
            )
            if not attach_problems:
                job.drop_problem()
            jobs.append(job)
        return jobs


def store_load(path: Path) -> PricingProblem:
    """Load one problem file (thin wrapper kept separate for monkeypatching)."""
    from repro.serial import load

    problem = load(path)
    if not isinstance(problem, PricingProblem):
        raise PortfolioError(f"file {path} does not contain a PricingProblem")
    return problem


# ---------------------------------------------------------------------------
# workload builders
# ---------------------------------------------------------------------------


def _scaled(count: int, scale: float) -> int:
    """Scale a position count, keeping at least one position."""
    return max(1, int(round(count * scale)))


def _maturity_strike_grid(
    maturities: np.ndarray, strike_fractions: np.ndarray, spot: float
) -> list[tuple[float, float]]:
    """Cartesian (maturity, strike) grid in the paper's enumeration order."""
    return [
        (float(maturity), float(spot * fraction))
        for maturity in maturities
        for fraction in strike_fractions
    ]


def build_toy_portfolio(
    n_options: int = 10_000,
    spot: float = 100.0,
    rate: float = 0.045,
    volatility: float = 0.22,
    dividend: float = 0.0,
    name: str = "toy",
) -> Portfolio:
    """The Table II workload: vanilla options priced by closed-form formulas.

    "we considered a portfolio of 10,000 vanilla options which can be priced
    using closed-form formula.  A single price computation is then very fast
    and the time spent in communication is easily highlighted."

    Strikes cycle over 70%-130% of the spot and maturities over a quarterly
    grid so that the problems are all distinct (distinct problem files).
    Calls and puts alternate.
    """
    if n_options < 1:
        raise PortfolioError("the toy portfolio needs at least one option")
    strike_fractions = np.arange(0.70, 1.3001, 0.01)
    maturities = 1.0 / 3.0 + 0.25 * np.arange(32)
    portfolio = Portfolio(name=name)
    for index in range(n_options):
        strike = spot * strike_fractions[index % len(strike_fractions)]
        maturity = maturities[(index // len(strike_fractions)) % len(maturities)]
        is_call = index % 2 == 0
        problem = PricingProblem(label=f"toy_vanilla_{index}")
        problem.set_asset("equity")
        problem.set_model(
            "BlackScholes1D", spot=spot, rate=rate, volatility=volatility, dividend=dividend
        )
        if is_call:
            problem.set_option("CallEuro", strike=strike, maturity=maturity)
            problem.set_method("CF_Call")
        else:
            problem.set_option("PutEuro", strike=strike, maturity=maturity)
            problem.set_method("CF_Put")
        portfolio.add(Position(problem=problem, category="vanilla_cf",
                               label=problem.label))
    return portfolio


def build_realistic_portfolio(
    spot: float = 100.0,
    rate: float = 0.045,
    volatility: float = 0.25,
    dividend: float = 0.0,
    barrier_fraction: float = 0.85,
    correlation: float = 0.3,
    scale: float = 1.0,
    profile: str = "paper",
    seed: int = 12345,
    name: str = "realistic",
) -> Portfolio:
    """The Table III workload: the 7,931-claim equity portfolio of Section 4.3.

    Composition (at ``scale=1.0``):

    ==========================================  =====  ==========================
    slice                                        count  method
    ==========================================  =====  ==========================
    plain vanilla calls                           1952  closed form
    down-and-out calls                            1952  PDE (2-day time steps)
    40-dimensional basket puts                     525  Monte-Carlo (10^6 paths)
    local-volatility calls                        1025  Monte-Carlo
    American puts                                 1952  PDE with early exercise
    7-dimensional American basket puts             525  Longstaff-Schwartz
    ==========================================  =====  ==========================

    ``profile="paper"`` uses the paper's heavy method parameters (10^6
    Monte-Carlo samples, one PDE time step every two days) -- intended for the
    *simulated* cluster; ``profile="fast"`` shrinks them so the problems can
    actually be executed by the real backends in tests and examples.
    ``scale`` shrinks every slice proportionally (grids are sub-sampled, the
    slice structure is preserved).
    """
    if profile not in ("paper", "fast"):
        raise PortfolioError("profile must be 'paper' or 'fast'")
    if not 0.0 < scale <= 1.0:
        raise PortfolioError("scale must be in (0, 1]")
    heavy = profile == "paper"
    rng = np.random.default_rng(seed)
    portfolio = Portfolio(name=name)

    vanilla_maturities = 1.0 / 3.0 + 0.25 * np.arange(32)
    vanilla_strikes = np.arange(0.70, 1.3001, 0.01)
    basket_maturities = 0.2 * np.arange(1, 26)
    basket_strikes = np.arange(0.90, 1.1001, 0.01)
    localvol_strikes = np.arange(0.80, 1.2001, 0.01)

    def make_model_bs() -> dict:
        return {"spot": spot, "rate": rate, "volatility": volatility, "dividend": dividend}

    # -- slice 1: 1952 plain vanilla calls (closed form) --------------------------
    grid = _maturity_strike_grid(vanilla_maturities, vanilla_strikes, spot)
    for maturity, strike in _subsample(grid, _scaled(1952, scale)):
        problem = PricingProblem(label=f"vanilla_call_T{maturity:.2f}_K{strike:.1f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", **make_model_bs())
        problem.set_option("CallEuro", strike=strike, maturity=maturity)
        problem.set_method("CF_Call")
        portfolio.add(Position(problem=problem, category="vanilla_cf", label=problem.label))

    # -- slice 2: 1952 down-and-out calls (PDE, one time step every 2 days) --------
    for maturity, strike in _subsample(grid, _scaled(1952, scale)):
        n_time = max(16, int(math.ceil(maturity * 126))) if heavy else 32
        n_space = 500 if heavy else 120
        problem = PricingProblem(label=f"barrier_doc_T{maturity:.2f}_K{strike:.1f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", **make_model_bs())
        problem.set_option(
            "CallDownOutEuro",
            strike=strike,
            maturity=maturity,
            barrier=spot * barrier_fraction,
            rebate=0.0,
        )
        problem.set_method("FD_Barrier", n_space=n_space, n_time=n_time)
        portfolio.add(Position(problem=problem, category="barrier_pde", label=problem.label))

    # -- slice 3: 525 puts on a 40-dimensional basket (Monte-Carlo) ----------------
    basket_grid = _maturity_strike_grid(basket_maturities, basket_strikes, spot)
    dim40 = 40
    weights40 = [1.0 / dim40] * dim40
    vols40 = (0.15 + 0.15 * rng.random(dim40)).tolist()
    corr40 = flat_correlation(dim40, correlation).tolist()
    spots40 = [spot] * dim40
    for maturity, strike in _subsample(basket_grid, _scaled(525, scale)):
        n_paths = 1_000_000 if heavy else 4_000
        problem = PricingProblem(label=f"basket40_put_T{maturity:.2f}_K{strike:.1f}")
        problem.set_asset("equity")
        problem.set_model(
            "BlackScholesND",
            spot=spots40,
            rate=rate,
            volatilities=vols40,
            correlation=corr40,
            dividends=0.0,
        )
        problem.set_option("BasketPutEuro", strike=strike, maturity=maturity, weights=weights40)
        problem.set_method(
            "MC_European", n_paths=n_paths, n_steps=1, antithetic=True, control_variate=True
        )
        portfolio.add(Position(problem=problem, category="basket_mc", label=problem.label))

    # -- slice 4: 1025 calls in a local volatility model (Monte-Carlo) --------------
    lv_grid = _maturity_strike_grid(basket_maturities, localvol_strikes, spot)
    for maturity, strike in _subsample(lv_grid, _scaled(1025, scale)):
        n_paths = 1_000_000 if heavy else 5_000
        n_steps = max(12, int(math.ceil(12 * maturity))) if heavy else 12
        problem = PricingProblem(label=f"localvol_call_T{maturity:.2f}_K{strike:.1f}")
        problem.set_asset("equity")
        problem.set_model(
            "LocalVolSmile1D",
            spot=spot,
            rate=rate,
            base_volatility=volatility,
            skew=0.3,
            term=0.1,
            dividend=dividend,
        )
        problem.set_option("CallEuro", strike=strike, maturity=maturity)
        problem.set_method(
            "MC_European",
            n_paths=n_paths,
            n_steps=n_steps,
            antithetic=True,
            control_variate=True,
        )
        portfolio.add(Position(problem=problem, category="localvol_mc", label=problem.label))

    # -- slice 5: 1952 American puts (PDE) --------------------------------------------
    for maturity, strike in _subsample(grid, _scaled(1952, scale)):
        n_time = max(16, int(math.ceil(maturity * 126))) if heavy else 32
        n_space = 500 if heavy else 120
        problem = PricingProblem(label=f"american_put_T{maturity:.2f}_K{strike:.1f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", **make_model_bs())
        problem.set_option("PutAmer", strike=strike, maturity=maturity)
        problem.set_method("FD_American", n_space=n_space, n_time=n_time)
        portfolio.add(Position(problem=problem, category="american_pde", label=problem.label))

    # -- slice 6: 525 American puts on a 7-dimensional basket (Longstaff-Schwartz) ----
    dim7 = 7
    weights7 = [1.0 / dim7] * dim7
    vols7 = (0.18 + 0.12 * rng.random(dim7)).tolist()
    corr7 = flat_correlation(dim7, correlation).tolist()
    spots7 = [spot] * dim7
    for maturity, strike in _subsample(basket_grid, _scaled(525, scale)):
        n_paths = 100_000 if heavy else 2_000
        n_steps = max(10, int(math.ceil(50 * maturity))) if heavy else 10
        problem = PricingProblem(label=f"american_basket7_put_T{maturity:.2f}_K{strike:.1f}")
        problem.set_asset("equity")
        problem.set_model(
            "BlackScholesND",
            spot=spots7,
            rate=rate,
            volatilities=vols7,
            correlation=corr7,
            dividends=0.0,
        )
        problem.set_option("BasketPutAmer", strike=strike, maturity=maturity, weights=weights7)
        problem.set_method(
            "MC_AM_LongstaffSchwartz",
            n_paths=n_paths,
            n_steps=n_steps,
            basis_degree=3,
            antithetic=True,
        )
        portfolio.add(
            Position(problem=problem, category="american_basket_ls", label=problem.label)
        )

    return portfolio


def _subsample(grid: list[tuple[float, float]], count: int) -> list[tuple[float, float]]:
    """Pick ``count`` evenly spaced entries of the grid (all of it when
    ``count`` >= len(grid)), preserving order."""
    if count >= len(grid):
        return list(grid)
    indices = np.linspace(0, len(grid) - 1, count).round().astype(int)
    return [grid[i] for i in indices]


def build_regression_portfolio(profile: str = "paper", name: str = "regression") -> Portfolio:
    """The Table I workload: Premia's non-regression tests.

    "These non-regression tests consist in a single instance of any pricing
    problem which can be solved using Premia -- a pricing problem corresponds
    to the choice of a model for the underlying asset, a financial product and
    a pricing method."

    The builder enumerates every compatible (model, option, method)
    combination registered in the pricing engine, with one representative
    parameter set per combination.  ``profile="paper"`` uses the heavy
    regression parameters (the suite totals on the order of 10^2-10^3 seconds
    of single-node work, with the longest individual test tens of seconds, as
    in Table I); ``profile="fast"`` uses small parameters so the whole suite
    can actually run in seconds inside the test-suite.
    """
    from repro.core.regression import generate_regression_problems

    portfolio = Portfolio(name=name)
    for problem, category in generate_regression_problems(profile=profile):
        portfolio.add(Position(problem=problem, category=category, label=problem.label))
    return portfolio


#: named builders, used by the command line interface and the benchmarks
PORTFOLIO_BUILDERS: dict[str, Callable[..., Portfolio]] = {
    "toy": build_toy_portfolio,
    "realistic": build_realistic_portfolio,
    "regression": build_regression_portfolio,
}

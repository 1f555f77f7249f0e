"""Compute-cost model for pricing problems.

The simulated cluster does not execute every pricing problem (re-pricing the
7,931-claim portfolio once per CPU count would be pointless -- the prices do
not change); instead it advances virtual time by a per-problem *compute
cost*.  The cost model estimates this cost from the pricing method and its
work parameters (paths, steps, grid sizes), with throughput constants
calibrated so that the realistic portfolio of Section 4.3 lands in the same
cost classes as the paper:

* plain-vanilla closed form: "almost instantaneous";
* Monte-Carlo / PDE European options: an intermediate, method-dependent cost;
* American options (PDE or Longstaff-Schwartz): the most expensive class.

The absolute scale is set by ``seconds_per_mega_evaluation``-style constants
that can be re-calibrated against actual measurements of the Python pricers
(:meth:`CostModel.calibrate`), or set to the paper's cluster scale
(:func:`paper_cost_model`) so that simulated running times are comparable to
Tables I-III.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

from repro.pricing.engine import PricingProblem

__all__ = ["CostModel", "paper_cost_model", "measured_cost", "estimate_work_units"]


def _named_closed_form(method_name: str | None) -> bool:
    """Whether a method is a closed form, whose work its name alone decides."""
    return (method_name or "").startswith("CF_")


def estimate_work_units(problem: PricingProblem) -> tuple[float, str]:
    """Estimate the work of a problem in abstract units and its cost family.

    Returns ``(work_units, family)`` where ``family`` is one of
    ``"closed_form"``, ``"fourier"``, ``"tree"``, ``"pde"``, ``"pde_american"``,
    ``"monte_carlo"`` or ``"american_monte_carlo"``.  Work units roughly count
    elementary floating point sweeps:

    * PDE: ``n_space * n_time``
    * trees: ``n_steps ** 2``
    * Monte-Carlo: ``n_paths * n_steps * dimension``
    * closed form / Fourier: a constant.
    """
    method_name = problem.method_name or ""
    model = problem.model  # a problem without a model has no estimate
    if _named_closed_form(method_name):
        return 1.0, "closed_form"
    params = problem.method.to_params()
    dimension = max(model.dimension, 1)
    if method_name.startswith("FFT"):
        return float(params.get("n_terms", 256)), "fourier"
    if method_name.startswith("TR_"):
        n_steps = int(params.get("n_steps", 500))
        return float(n_steps * n_steps), "tree"
    if method_name.startswith("FD_"):
        n_space = int(params.get("n_space", 400))
        n_time = int(params.get("n_time", 200))
        family = "pde_american" if "American" in method_name else "pde"
        return float(n_space * n_time), family
    if method_name.startswith("MC_AM"):
        n_paths = int(params.get("n_paths", 50_000))
        n_steps = params.get("n_steps") or 50
        return float(n_paths * int(n_steps) * dimension), "american_monte_carlo"
    if method_name.startswith("MC_"):
        n_paths = int(params.get("n_paths", 100_000))
        n_steps = params.get("n_steps") or 1
        return float(n_paths * int(n_steps) * dimension), "monte_carlo"
    # unknown method: assume a mid-range cost
    return 1.0e6, "monte_carlo"


@dataclass(frozen=True)
class CostModel:
    """Per-family throughput constants (seconds per work unit) plus overheads.

    The defaults approximate the single-threaded Python pricers of this
    library on a current laptop; :func:`paper_cost_model` rescales them to
    the 2.66 GHz Xeon-3075 / C-implementation regime of the paper, where a
    single Monte-Carlo European costs 10-30 s and American options exceed
    60 s.
    """

    #: fixed per-problem overhead (argument parsing, object setup)
    overhead: float = 2.0e-4
    closed_form: float = 2.0e-4
    fourier: float = 2.0e-6
    tree: float = 2.0e-8
    pde: float = 1.5e-7
    pde_american: float = 2.0e-7
    monte_carlo: float = 1.2e-8
    american_monte_carlo: float = 2.5e-8
    #: global multiplier (useful to emulate slower/faster nodes)
    scale: float = 1.0
    #: fraction of a shared-simulation member's cost that is payoff
    #: evaluation rather than path simulation; a coalesced
    #: :class:`~repro.pricing.batch.ProblemBatch` job costs one full member
    #: (the shared simulation) plus this fraction of every other member
    batch_payoff_fraction: float = 0.02

    _FAMILY_FIELDS = (
        "closed_form",
        "fourier",
        "tree",
        "pde",
        "pde_american",
        "monte_carlo",
        "american_monte_carlo",
    )

    def rate_for(self, family: str) -> float:
        if family not in self._FAMILY_FIELDS:
            raise ValueError(f"unknown cost family {family!r}")
        return float(getattr(self, family))

    def estimate(self, problem: PricingProblem) -> float:
        """Estimated compute time (seconds) of ``problem`` on a reference node."""
        work, family = estimate_work_units(problem)
        if family == "closed_form":
            return self.scale * (self.overhead + self.closed_form)
        return self.scale * (self.overhead + work * self.rate_for(family))

    def estimate_all(self, problems: Sequence[PricingProblem]) -> list[float]:
        """:meth:`estimate` of each of ``problems``.  A closed form's cost
        follows from its method's name, so it is estimated once per name (a
        whole toy book is two estimates); every other problem on its own."""
        names = [problem.method_name for problem in problems]
        # each name's first problem: the last one a backward walk meets
        firsts = dict(zip(reversed(names), reversed(problems)))
        by_name = {name: self.estimate(problem) for name, problem in firsts.items()
                   if _named_closed_form(name) and problem.is_complete}
        return [by_name[name] if name in by_name and problem.is_complete
                else self.estimate(problem) for name, problem in zip(names, problems)]

    def with_scale(self, scale: float) -> "CostModel":
        """Return a copy with a different global scale factor."""
        return replace(self, scale=scale)

    def estimate_batch_jobs(self, member_costs: list[float]) -> float:
        """Cost of a shared-simulation batch job from its members' solo costs.

        The family simulates its path set **once** -- the most expensive
        member pays full price -- and every other member only re-evaluates
        its payoff against the shared paths, modelled as
        ``batch_payoff_fraction`` of its solo cost.  This is what makes the
        simulated cluster batch-aware: Tables II/III regenerate "with
        batching" by coalescing jobs whose compute cost comes from here.
        """
        if not member_costs:
            raise ValueError("estimate_batch_jobs needs at least one member cost")
        peak = max(member_costs)
        return peak + self.batch_payoff_fraction * (sum(member_costs) - peak)

    def calibrate(self, problems: list[PricingProblem], measured: list[float]) -> "CostModel":
        """Refit the per-family rates from measured execution times.

        A simple per-family least-squares fit (each family has a single rate,
        so the fit reduces to a ratio of sums); families with no sample keep
        their current rate.
        """
        if len(problems) != len(measured):
            raise ValueError("problems and measured timings must have the same length")
        sums: dict[str, list[float]] = {}
        for problem, elapsed in zip(problems, measured):
            work, family = estimate_work_units(problem)
            sums.setdefault(family, [0.0, 0.0])
            net = max(elapsed - self.overhead, 1e-6)
            if family == "closed_form":
                sums[family][0] += 1.0
                sums[family][1] += net
            else:
                sums[family][0] += work
                sums[family][1] += net
        updates: dict[str, float] = {}
        for family, (work_sum, time_sum) in sums.items():
            if work_sum > 0:
                updates[family] = time_sum / work_sum
        return replace(self, **updates)

    def as_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in
                ("overhead", "scale", "batch_payoff_fraction", *self._FAMILY_FIELDS)}


def paper_cost_model() -> CostModel:
    """Cost model calibrated to the *paper's* cost classes.

    With the default method parameters used by
    :func:`repro.core.portfolio.build_realistic_portfolio`, this model puts
    plain-vanilla options at a fraction of a millisecond, PDE/Monte-Carlo
    European options in the 0.4-1.5 s range and American options above that,
    so the simulated Table III has the same total-work scale (a few thousand
    seconds on 1 worker) and the same heterogeneity as the paper's run.
    """
    return CostModel(
        overhead=1.0e-4,
        closed_form=2.0e-4,
        fourier=4.0e-6,
        tree=4.0e-8,
        pde=2.5e-6,
        pde_american=3.5e-6,
        monte_carlo=1.6e-8,
        american_monte_carlo=4.0e-8,
        scale=1.0,
    )


def measured_cost(problem: PricingProblem) -> float:
    """Actually run the problem once and return the measured wall time.

    Used to calibrate :class:`CostModel` against the real Python pricers.
    """
    import time

    start = time.perf_counter()
    problem.compute()
    return time.perf_counter() - start

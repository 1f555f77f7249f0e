"""Monte-Carlo pricing of European (possibly path-dependent) products.

This pricer covers the Monte-Carlo slices of the realistic portfolio:

* 525 put options on a 40-dimensional basket ("We usually use 10^6 samples
  for the Monte-Carlo simulations");
* 1025 call options in a local volatility model;

and additionally prices barrier and Asian options by path simulation, and any
European product under the Heston and Merton models (used in the
non-regression workload).

Variance reduction: antithetic variates (model-agnostic, through
:class:`~repro.pricing.rng.AntitheticGenerator`) and a martingale control
variate (the discounted terminal underlying / basket value, whose expectation
is known in every risk-neutral model of the library).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import PricingError
from repro.pricing.methods.base import PricingMethod, PricingResult
from repro.pricing.models.base import Model, MultiAssetModel
from repro.pricing.models.black_scholes import BlackScholesModel
from repro.pricing.products.barrier import BarrierOption
from repro.pricing.products.base import ExerciseStyle, Product
from repro.pricing.products.basket import BasketOption
from repro.pricing.rng import AntitheticGenerator, create_generator
from repro.pricing.validation import check_count

__all__ = ["MonteCarloEuropean", "price_groups_stacked"]


def _stamp_and_validate(
    method: "MonteCarloEuropean",
    model: Model,
    products: list[Product],
    results: list[PricingResult],
    elapsed: float,
) -> None:
    """Share the wall-clock time across members and reject non-finite prices."""
    share = elapsed / len(results)
    for product, result in zip(products, results):
        result.elapsed = share
        result.method_name = method.method_name
        if not np.isfinite(result.price):
            raise method.non_finite_price(model, product)


def price_groups_stacked(
    groups: Sequence[tuple["MonteCarloEuropean", Model, Sequence[Product]]],
    sample_sinks: dict[int, Any] | None = None,
) -> list[list[PricingResult]]:
    """Price several shared-simulation groups through the stacked kernel.

    The one entry point of ``kernel="stacked"``, for batch pricing and
    :meth:`MonteCarloEuropean.price_many` alike: all groups go to
    :func:`repro.pricing.kernel.run_groups` together, so groups whose
    methods draw identical random streams share one stacked simulation
    (cross-group draw cohorts).  Results are bit-identical to calling
    ``method.price_many(model, products, kernel="loop")`` per group; elapsed
    time is measured here (the kernel module is wall-clock-free by contract)
    and shared across each group's members.  ``sample_sinks`` is passed to
    :func:`~repro.pricing.kernel.run_groups`.
    """
    from repro.pricing.kernel import run_groups

    start = time.perf_counter()
    all_results = run_groups(groups, sample_sinks=sample_sinks)
    elapsed = time.perf_counter() - start
    n_members = sum(len(results) for results in all_results) or 1
    for (method, model, products), results in zip(groups, all_results):
        _stamp_and_validate(method, model, list(products), results, elapsed * len(results) / n_members)
    return all_results


@dataclass
class _MemberState:
    """Per-product accumulators of one shared-path pricing pass."""

    product: Product
    product_adj: Product
    use_cv: bool
    discount: float
    sum_payoff: float = 0.0
    sum_payoff2: float = 0.0
    sum_control: float = 0.0
    sum_control2: float = 0.0
    sum_cross: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

#: Broadie-Glasserman-Kou continuity-correction constant for discretely
#: monitored barriers: ``beta = -zeta(1/2) / sqrt(2 pi)``.
BARRIER_CORRECTION_BETA = 0.5826


class MonteCarloEuropean(PricingMethod):
    """Monte-Carlo pricer for European-exercise products.

    Parameters
    ----------
    n_paths:
        Number of simulated paths (after antithetic doubling).
    n_steps:
        Number of time steps for path-dependent products or models without an
        exact terminal law.  ``None`` lets the pricer choose: 1 step for
        terminal-law products under exactly samplable models, otherwise
        a grid fine enough for the product (e.g. 2-day steps for barriers).
    antithetic:
        Use antithetic variates (default True).
    control_variate:
        Use the discounted terminal underlying as a control variate
        (default True; only applied to non-path-dependent payoffs).
    rng_kind / seed:
        Random number generator family (``"pcg64"`` or ``"sobol"``) and seed.
    barrier_correction:
        Apply the Broadie-Glasserman continuity correction to barrier levels
        so that discretely monitored paths approximate a continuously
        monitored barrier (default True).
    batch_size:
        Paths are simulated in batches of at most this size to bound memory
        (important for the 40-dimensional baskets).
    """

    method_name = "MC_European"

    def __init__(
        self,
        n_paths: int = 100_000,
        n_steps: int | None = None,
        antithetic: bool = True,
        control_variate: bool = True,
        rng_kind: str = "pcg64",
        seed: int = 0,
        barrier_correction: bool = True,
        batch_size: int = 65_536,
    ):
        if n_paths < 2:
            raise PricingError("n_paths must be at least 2")
        if n_steps is not None and n_steps < 1:
            raise PricingError("n_steps must be >= 1 when given")
        if batch_size < 2:
            raise PricingError("batch_size must be at least 2")
        self.n_paths = check_count(n_paths, "n_paths")
        self.n_steps = None if n_steps is None else check_count(n_steps, "n_steps")
        self.antithetic = bool(antithetic)
        self.control_variate = bool(control_variate)
        self.rng_kind = str(rng_kind)
        self.seed = check_count(seed, "seed", 0)
        self.barrier_correction = bool(barrier_correction)
        self.batch_size = check_count(batch_size, "batch_size")

    def to_params(self) -> dict[str, Any]:
        return {
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "antithetic": self.antithetic,
            "control_variate": self.control_variate,
            "rng_kind": self.rng_kind,
            "seed": self.seed,
            "barrier_correction": self.barrier_correction,
            "batch_size": self.batch_size,
        }

    # -- compatibility ---------------------------------------------------------
    def supports(self, model: Model, product: Product) -> bool:
        if product.exercise != ExerciseStyle.EUROPEAN:
            return False
        if product.dimension > 1:
            return isinstance(model, MultiAssetModel) and model.dimension == product.dimension
        return model.dimension == 1

    # -- helpers -----------------------------------------------------------------
    def _effective_steps(self, model: Model, product: Product) -> int:
        if self.n_steps is not None:
            return self.n_steps
        if isinstance(product, BarrierOption):
            # one monitoring date every 2 (business) days, as in the paper
            return max(2, int(np.ceil(product.maturity * 126)))
        if product.path_dependent:
            n_fixings = getattr(product, "n_fixings", 12)
            return max(1, int(n_fixings))
        return 1

    def _make_rng(self, dimension: int):
        rng = create_generator(self.rng_kind, seed=self.seed, dimension=dimension)
        if self.antithetic:
            rng = AntitheticGenerator(rng)
        return rng

    def _adjusted_product(self, model: Model, product: Product, n_steps: int) -> Product:
        """Apply the barrier continuity correction when appropriate."""
        if (
            not self.barrier_correction
            or not isinstance(product, BarrierOption)
            or not isinstance(model, BlackScholesModel)
            or n_steps < 1
        ):
            return product
        # To emulate a continuously monitored barrier with discretely
        # monitored paths, move the barrier *towards* the spot by
        # exp(beta * sigma * sqrt(dt)) (Broadie-Glasserman-Kou): up for a
        # down barrier, down for an up barrier.
        dt = product.maturity / n_steps
        shift = np.exp(
            (1 if product.is_down else -1)
            * BARRIER_CORRECTION_BETA
            * model.volatility
            * np.sqrt(dt)
        )
        adjusted = BarrierOption(
            strike=product.strike,
            maturity=product.maturity,
            barrier=product.barrier * shift,
            barrier_type=product.barrier_type,
            payoff_type=product.payoff_type,
            rebate=product.rebate,
        )
        return adjusted

    def _control_value(self, model: Model, terminal: np.ndarray, product: Product) -> np.ndarray:
        """Per-path control variate: terminal (basket) value."""
        if isinstance(product, BasketOption) and terminal.ndim == 2:
            return terminal @ product.weights
        if terminal.ndim == 2:
            return terminal.mean(axis=1)
        return terminal

    def _control_expectation(self, model: Model, product: Product) -> float:
        forward = model.forward(product.maturity)
        if isinstance(product, BasketOption) and np.ndim(forward) == 1:
            return float(np.sum(product.weights * forward))
        return float(np.mean(forward))

    # -- pricing -----------------------------------------------------------------
    def _price(self, model: Model, product: Product) -> PricingResult:
        # single-product pricing is the one-member case of the shared-path
        # engine, so batched portfolio pricing is bit-identical by construction
        return self._price_shared(model, [product])[0]

    def shares_simulation(self, model: Model, a: Product, b: Product) -> bool:
        """Whether ``a`` and ``b`` can be priced against one shared path set.

        Two products share the simulation when they induce the same effective
        time grid and the same sampling mode (full paths vs exact terminal
        law); the payoffs themselves are free to differ.
        """
        if self._effective_steps(model, a) != self._effective_steps(model, b):
            return False
        if a.maturity != b.maturity:
            return False
        n_steps = self._effective_steps(model, a)
        return (a.path_dependent or n_steps > 1) == (b.path_dependent or n_steps > 1)

    def price_many(
        self,
        model: Model,
        products: Sequence[Product],
        *,
        kernel: str | None = None,
        sample_sink: Any = None,
    ) -> list[PricingResult]:
        """Price several products against **one** shared simulated path set.

        All products must be supported under ``model`` and share the same
        simulation grid (see :meth:`shares_simulation`); the
        :mod:`repro.pricing.batch` planner guarantees this by grouping on the
        simulation signature.  Each returned :class:`PricingResult` is
        bit-identical to what :meth:`price` would return for that product
        alone -- the paths are a deterministic function of (model, rng kind,
        seed, batching), which every member reproduces independently.

        ``kernel`` selects the evaluation engine: ``"loop"`` (the per-member
        python loop above) or ``"stacked"`` (the vectorized engine of
        :mod:`repro.pricing.kernel`, bit-identical by construction and
        enforced so by the differential test suite).  ``kernel`` is an
        evaluation strategy, **not** a method parameter: it never enters
        :meth:`to_params`, so digests, signatures and cache keys are
        unchanged by the choice.  ``sample_sink``, when given, receives
        ``(member_index, payoff_batch)`` for every simulated batch (payoffs
        pair-averaged when antithetic) -- the differential harness uses it
        to compare per-path samples across kernels.
        """
        products = list(products)
        if not products:
            return []
        for product in products:
            self.check_supports(model, product)
        from repro.pricing.kernel import resolve_kernel

        if resolve_kernel(kernel) == "stacked":
            sinks = {0: sample_sink} if sample_sink is not None else None
            return price_groups_stacked([(self, model, products)], sample_sinks=sinks)[0]
        start = time.perf_counter()
        results = self._price_shared(model, products, sample_sink=sample_sink)
        elapsed = time.perf_counter() - start
        _stamp_and_validate(self, model, products, results, elapsed)
        return results

    def _price_shared(
        self, model: Model, products: list[Product], sample_sink: Any = None
    ) -> list[PricingResult]:
        n_steps = self._effective_steps(model, products[0])
        maturity = products[0].maturity
        mode_paths = products[0].path_dependent or n_steps > 1
        for product in products[1:]:
            if not self.shares_simulation(model, products[0], product):
                raise PricingError(
                    "products in a shared-path batch must induce the same "
                    "simulation grid and sampling mode"
                )
        members = [
            _MemberState(
                product=product,
                product_adj=self._adjusted_product(model, product, n_steps),
                use_cv=self.control_variate and not product.path_dependent,
                discount=model.discount_factor(product.maturity),
            )
            for product in products
        ]

        n_total = self.n_paths
        if self.antithetic and n_total % 2:
            n_total += 1

        n_done = 0
        n_samples = 0
        rng = self._make_rng(dimension=max(model.dimension, 1))
        times = np.linspace(0.0, maturity, n_steps + 1)

        # simulate batch by batch (bounding memory) and evaluate every
        # member's payoff against the same path array
        while n_done < n_total:
            batch = min(self.batch_size, n_total - n_done)
            if self.antithetic:
                # keep antithetic pairs inside one batch; n_total is even, so
                # flooring (rather than padding past batch_size) never stalls
                # and the memory bound is respected even for odd batch sizes
                batch -= batch % 2
            if mode_paths:
                paths = model.simulate_paths(rng, batch, times)
                terminal = paths[:, -1]
            else:
                paths = None
                terminal = model.sample_terminal(rng, batch, maturity)
            half = batch // 2
            for index, member in enumerate(members):
                samples = self._fold_member(model, member, paths, terminal, times, half)
                if sample_sink is not None:
                    sample_sink(index, samples)
            n_done += batch
            n_samples += half if self.antithetic else batch

        # exact sample accounting: the estimator consumed n_samples
        # (pair-averaged) samples, i.e. n_paths_used simulated paths -- no
        # padded phantom paths are ever reported
        n_paths_used = 2 * n_samples if self.antithetic else n_samples
        return [
            self._finalize_member(model, member, n_samples, n_paths_used, n_steps)
            for member in members
        ]

    def _fold_member(
        self,
        model: Model,
        member: _MemberState,
        paths: np.ndarray | None,
        terminal: np.ndarray,
        times: np.ndarray,
        half: int,
    ) -> np.ndarray:
        """Fold one simulated batch into ``member``'s accumulators.

        ``paths`` is ``None`` for terminal-law sampling.  Returns the payoff
        samples the estimator saw: antithetic pairs are averaged, so that the
        variance estimate reflects the actual (pairwise-coupled) estimator.
        """
        if paths is not None:
            payoffs = member.product_adj.path_payoff(paths, times)
        else:
            payoffs = member.product_adj.terminal_payoff(terminal)
        payoffs = np.asarray(payoffs, dtype=float)
        if member.use_cv:
            control = self._control_value(model, terminal, member.product_adj)
        else:
            control = None
        if self.antithetic:
            payoffs = 0.5 * (payoffs[:half] + payoffs[half:])
            if control is not None:
                control = 0.5 * (control[:half] + control[half:])
        member.sum_payoff += payoffs.sum()
        member.sum_payoff2 += (payoffs**2).sum()
        if control is not None:
            member.sum_control += control.sum()
            member.sum_control2 += (control**2).sum()
            member.sum_cross += (payoffs * control).sum()
        return payoffs

    def _finalize_member(
        self,
        model: Model,
        member: _MemberState,
        n_samples: int,
        n_paths_used: int,
        n_steps: int,
    ) -> PricingResult:
        n = n_samples
        if not np.isfinite(member.sum_payoff):
            # the price below would be non-finite too; fail before the
            # variance terms compute inf - inf
            raise self.non_finite_price(model, member.product)
        mean_payoff = member.sum_payoff / n
        var_payoff = max(member.sum_payoff2 / n - mean_payoff**2, 0.0)

        if member.use_cv:
            mean_control = member.sum_control / n
            var_control = max(member.sum_control2 / n - mean_control**2, 0.0)
            cov = member.sum_cross / n - mean_payoff * mean_control
            expected_control = self._control_expectation(model, member.product)
            if var_control > 1e-14:
                beta = cov / var_control
                adjusted_mean = mean_payoff - beta * (mean_control - expected_control)
                adjusted_var = max(var_payoff - cov**2 / var_control, 0.0)
            else:
                beta = 0.0
                adjusted_mean = mean_payoff
                adjusted_var = var_payoff
        else:
            beta = 0.0
            adjusted_mean = mean_payoff
            adjusted_var = var_payoff

        price = member.discount * adjusted_mean
        std_error = member.discount * np.sqrt(adjusted_var / n)
        half_width = 1.96 * std_error
        return PricingResult(
            price=float(price),
            std_error=float(std_error),
            confidence_interval=(float(price - half_width), float(price + half_width)),
            n_evaluations=n_paths_used * max(n_steps, 1),
            extra={
                "n_paths": n_paths_used,
                "n_paths_requested": self.n_paths,
                "n_steps": n_steps,
                "control_variate_beta": float(beta),
                "antithetic": self.antithetic,
            },
        )

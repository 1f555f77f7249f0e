"""The per-group Monte-Carlo estimator loop production once carried, kept as the ``==`` reference.

``MonteCarloEuropean`` used to price a single problem and every
``kernel="loop"`` group through its own batch loop, ``_price_shared``, beside
the stacked engine's loop in :mod:`repro.pricing.kernel`.  Production now
runs only the kernel's loop (``kernel="loop"`` is one cohort per group and
member-by-member folding); the old body lives on here, unchanged -- ``self``
is the method -- except that it calls :func:`_make_rng` instead of the
method's copy of the generator set-up.  It reuses the production member
steps (``_effective_steps``, ``_adjusted_product``, ``_fold_member``,
``_finalize_member``), which both loops always shared.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.methods.base import PricingResult
from repro.pricing.methods.montecarlo import _MemberState
from repro.pricing.models.base import Model
from repro.pricing.products.base import Product
from repro.pricing.rng import AntitheticGenerator, create_generator

__all__ = ["price_shared"]


def _make_rng(self, dimension: int):
    rng = create_generator(self.rng_kind, seed=self.seed, dimension=dimension)
    if self.antithetic:
        rng = AntitheticGenerator(rng)
    return rng


def price_shared(
    self, model: Model, products: list[Product], sample_sink: Any = None
) -> list[PricingResult]:
    """What ``self.price_many(model, products, kernel="loop")`` computed before
    the two estimator loops became one (unstamped: no elapsed, no method name)."""
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
    rng = _make_rng(self, dimension=max(model.dimension, 1))
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

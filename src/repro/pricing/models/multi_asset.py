"""Multi-asset Black-Scholes model for basket and high-dimensional products.

The realistic portfolio of Section 4.3 contains 525 put options on a
40-dimensional basket (Cac 40-like index baskets) and 525 American put
options on a 7-dimensional basket.  Both are priced by (American)
Monte-Carlo under a correlated multi-asset geometric Brownian motion, which
this module provides.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.models.base import MultiAssetModel, StackedSampler, time_grid_steps
from repro.pricing.rng import AntitheticGenerator, RandomGenerator, cholesky_factor

__all__ = ["MultiAssetBlackScholesModel", "flat_correlation"]


def flat_correlation(dimension: int, rho: float) -> np.ndarray:
    """Build an equicorrelation matrix ``(1 - rho) I + rho 11^T``.

    Such a matrix is positive semi-definite iff
    ``-1 / (d - 1) <= rho <= 1``; the bound is checked here so that model
    construction fails fast on invalid configurations.
    """
    if dimension < 1:
        raise PricingError("dimension must be >= 1")
    if dimension > 1:
        low = -1.0 / (dimension - 1)
    else:
        low = -1.0
    if not low - 1e-12 <= rho <= 1.0 + 1e-12:
        raise PricingError(
            f"equicorrelation {rho} outside the admissible range [{low:.4f}, 1]"
        )
    corr = np.full((dimension, dimension), rho, dtype=float)
    np.fill_diagonal(corr, 1.0)
    return corr


class MultiAssetBlackScholesModel(StackedSampler, MultiAssetModel):
    """Correlated multi-asset geometric Brownian motion.

    ``dS_i = (r - q_i) S_i dt + sigma_i S_i dW_i``, with
    ``d<W_i, W_j> = rho_ij dt``.

    Parameters
    ----------
    spot:
        Vector of initial asset prices (length ``d``).
    rate:
        Common risk-free rate.
    volatilities:
        Vector of lognormal volatilities (length ``d``), or a scalar
        broadcast to all assets.
    correlation:
        ``d x d`` correlation matrix (default: identity).
    dividends:
        Vector of dividend yields or scalar (default 0).
    """

    model_name = "BlackScholesND"

    def __init__(
        self,
        spot: np.ndarray,
        rate: float,
        volatilities: np.ndarray | float,
        correlation: np.ndarray | None = None,
        dividends: np.ndarray | float = 0.0,
    ):
        super().__init__(spot=spot, rate=rate, dividend=dividends, correlation=correlation)
        vols = np.broadcast_to(
            np.asarray(volatilities, dtype=float), (self.dimension,)
        ).copy()
        if np.any(vols <= 0):
            raise PricingError("all volatilities must be strictly positive")
        self.volatilities = vols

    # -- exact sampling: one raw draw shared by a stack of models ---------------
    @staticmethod
    def _stacked_correlated(
        models: "list[MultiAssetBlackScholesModel]", rng: RandomGenerator, n_paths: int
    ) -> "list[np.ndarray]":
        """One raw ``(n_paths, d)`` normal draw, correlated per model as
        ``z @ chol.T`` with its :func:`~repro.pricing.rng.cholesky_factor`.

        Under an :class:`~repro.pricing.rng.AntitheticGenerator` the raw draw
        is half as tall and each correlated half is mirrored, so a pair
        shares its correlated draw up to sign.
        """
        chols = [cholesky_factor(model.correlation) for model in models]
        d = models[0].dimension
        # models with bit-equal correlation matrices get bit-equal factors,
        # so the (expensive) product is computed once per distinct factor
        # and the result shared -- downstream code only reads the draws
        products: dict[bytes, np.ndarray] = {}

        def correlate(raw: np.ndarray, chol: np.ndarray) -> np.ndarray:
            key = chol.tobytes()
            z = products.get(key)
            if z is None:
                z = raw @ chol.T
                products[key] = z
            return z

        if isinstance(rng, AntitheticGenerator):
            AntitheticGenerator._check_even(n_paths)
            raw = rng.base.normals((n_paths // 2, d))
            mirrored: dict[bytes, np.ndarray] = {}
            out = []
            for chol in chols:
                key = chol.tobytes()
                full = mirrored.get(key)
                if full is None:
                    half = correlate(raw, chol)
                    full = np.concatenate([half, -half], axis=0)
                    mirrored[key] = full
                out.append(full)
            return out
        raw = rng.normals((n_paths, d))
        return [correlate(raw, chol) for chol in chols]

    @staticmethod
    def stacked_sample_terminal(
        models: "list[MultiAssetBlackScholesModel]",
        rng: RandomGenerator,
        n_paths: int,
        maturity: float,
    ) -> "list[np.ndarray]":
        """Exact sampling of the terminal vector ``S_T`` for several models
        from one raw draw: one ``(n_paths, d)`` array per model.
        """
        zs = MultiAssetBlackScholesModel._stacked_correlated(models, rng, n_paths)
        out = []
        for model, z in zip(models, zs):
            drift = (
                model.rate - model.dividend_vector - 0.5 * model.volatilities**2
            ) * maturity
            diffusion = model.volatilities * np.sqrt(maturity) * z
            out.append(np.asarray(model.spot)[None, :] * np.exp(drift[None, :] + diffusion))
        return out

    @staticmethod
    def stacked_simulate_paths(
        models: "list[MultiAssetBlackScholesModel]",
        rng: RandomGenerator,
        n_paths: int,
        times: np.ndarray,
    ) -> "list[np.ndarray]":
        """Exact simulation on a grid for several models from shared raw
        draws: one ``(n_paths, n_times, d)`` array per model.
        """
        times, dts = time_grid_steps(times)
        n_steps = len(dts)
        d = models[0].dimension
        paths = []
        log_s = []
        for model in models:
            arr = np.empty((n_paths, n_steps + 1, d))
            arr[:, 0, :] = np.asarray(model.spot)[None, :]
            paths.append(arr)
            log_s.append(
                np.log(np.asarray(model.spot, dtype=float))[None, :].repeat(n_paths, axis=0)
            )
        sqrt_dts = np.sqrt(dts)
        for k, dt in enumerate(dts):
            zs = MultiAssetBlackScholesModel._stacked_correlated(models, rng, n_paths)
            for g, model in enumerate(models):
                drift_rate = (
                    model.rate - model.dividend_vector - 0.5 * model.volatilities**2
                )
                log_s[g] = (
                    log_s[g] + (drift_rate * dt)[None, :] + model.volatilities * sqrt_dts[k] * zs[g]
                )
                paths[g][:, k + 1, :] = np.exp(log_s[g])
        return paths

    # -- analytic helpers ------------------------------------------------------
    def basket_lognormal_proxy(
        self, weights: np.ndarray, maturity: float
    ) -> tuple[float, float]:
        """Moment-matched lognormal proxy for the basket value at maturity.

        Returns ``(forward, volatility)`` of a lognormal random variable with
        the same first two moments as the basket.  Used by the approximate
        closed-form basket pricer (a control variate and sanity check for the
        Monte-Carlo basket pricers).
        """
        weights = np.asarray(weights, dtype=float)
        fwd_i = np.asarray(self.forward(maturity), dtype=float)
        m1 = float(np.sum(weights * fwd_i))
        if m1 <= 0:
            raise PricingError("basket forward must be positive for the lognormal proxy")
        cov = (
            np.outer(self.volatilities, self.volatilities) * self.correlation * maturity
        )
        weighted = np.outer(weights * fwd_i, weights * fwd_i) * np.exp(cov)
        m2 = float(np.sum(weighted))
        var_log = np.log(max(m2, m1**2 * (1 + 1e-16)) / m1**2)
        vol = float(np.sqrt(max(var_log, 1e-16) / maturity))
        return m1, vol

    # -- serialization -----------------------------------------------------------
    def to_params(self) -> dict[str, Any]:
        return {
            "spot": np.asarray(self.spot, dtype=float).tolist(),
            "rate": self.rate,
            "volatilities": self.volatilities.tolist(),
            "correlation": self.correlation.tolist(),
            "dividends": self.dividend_vector.tolist(),
        }

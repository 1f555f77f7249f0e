"""The standard one-dimensional Black-Scholes model.

This is the workhorse model of the benchmark: the toy portfolio of Table II
and the plain-vanilla / barrier / American slices of the realistic portfolio
of Table III are all priced under this model.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.models.base import DiffusionModel1D, time_grid_steps
from repro.pricing.rng import RandomGenerator

__all__ = ["BlackScholesModel"]


class BlackScholesModel(DiffusionModel1D):
    """Geometric Brownian motion ``dS = (r - q) S dt + sigma S dW``.

    Parameters
    ----------
    spot:
        Current asset price ``S_0 > 0``.
    rate:
        Continuously compounded risk-free interest rate.
    volatility:
        Constant lognormal volatility ``sigma > 0``.
    dividend:
        Continuous dividend yield ``q`` (default 0).
    """

    model_name = "BlackScholes1D"

    def __init__(self, spot: float, rate: float, volatility: float, dividend: float = 0.0):
        super().__init__(spot=float(spot), rate=rate, dividend=dividend)
        if volatility <= 0:
            raise PricingError("volatility must be strictly positive")
        self.volatility = float(volatility)

    # -- analytic structure -------------------------------------------------
    def local_volatility(self, t: float, s: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(s, dtype=float), self.volatility)

    def log_char_function(self, u: np.ndarray, maturity: float) -> np.ndarray:
        """Characteristic function of ``log(S_T / S_0)``."""
        u = np.asarray(u, dtype=complex)
        mu = (self.rate - self.dividend - 0.5 * self.volatility**2) * maturity
        var = self.volatility**2 * maturity
        return np.exp(1j * u * mu - 0.5 * var * u**2)

    # -- exact sampling: one draw shared by a stack of models ------------------
    @staticmethod
    def stacked_sample_terminal(
        models: "list[BlackScholesModel]",
        rng: RandomGenerator,
        n_paths: int,
        maturity: float,
    ) -> np.ndarray:
        """Exact lognormal sampling of ``S_T`` (no discretisation error) for
        several models from one shared draw: ``(len(models), n_paths)``, the
        drift and volatility broadcast down the group axis.
        """
        z = rng.normals((n_paths,))
        spots = np.array([model.spot for model in models])
        vols = np.array([model.volatility for model in models])
        drifts = np.array(
            [
                (model.rate - model.dividend - 0.5 * model.volatility**2) * maturity
                for model in models
            ]
        )
        s = (vols * np.sqrt(maturity))[:, None] * z[None, :]
        s += drifts[:, None]
        np.exp(s, out=s)
        s *= spots[:, None]
        return s

    @staticmethod
    def stacked_simulate_paths(
        models: "list[BlackScholesModel]",
        rng: RandomGenerator,
        n_paths: int,
        times: np.ndarray,
    ) -> np.ndarray:
        """Exact simulation on an arbitrary time grid for several models from
        one shared draw: ``(len(models), n_paths, len(times))``.

        Because increments of the driving Brownian motion are independent,
        the scheme is exact at the grid points (unlike the generic Euler
        scheme of :class:`DiffusionModel1D`).
        """
        times, dts = time_grid_steps(times)
        n_steps = len(dts)
        n_groups = len(models)
        z = rng.normals((n_paths, n_steps))
        spots = np.array([model.spot for model in models])
        vols = np.array([model.volatility for model in models])
        coefs = np.array(
            [model.rate - model.dividend - 0.5 * model.volatility**2 for model in models]
        )
        drift = coefs[:, None] * dts[None, :]  # (G, n_steps)
        # the log-paths are built in the returned array: increments, their
        # running sum, then exp and the spot in place (column 0: exp(0) = 1)
        paths = np.empty((n_groups, n_paths, n_steps + 1))
        paths[:, :, 0] = 0.0
        log_paths = paths[:, :, 1:]
        np.multiply((vols[:, None] * np.sqrt(dts)[None, :])[:, None, :], z[None, :, :],
                    out=log_paths)
        log_paths += drift[:, None, :]
        np.cumsum(log_paths, axis=2, out=log_paths)
        np.exp(paths, out=paths)
        paths *= spots[:, None, None]
        return paths

    # -- serialization -------------------------------------------------------
    def to_params(self) -> dict[str, Any]:
        return {
            "spot": self.spot,
            "rate": self.rate,
            "volatility": self.volatility,
            "dividend": self.dividend,
        }

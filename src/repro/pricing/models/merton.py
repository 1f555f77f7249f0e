"""Merton jump-diffusion model (a simple Lévy model).

Premia's public release "contains ... models going from the standard
Black-Scholes model to more complex models such as local and stochastic
volatility models and even Lévy models".  The Merton (1976) lognormal
jump-diffusion is the canonical Lévy example and is included so the
non-regression workload (Table I) exercises a jump model too.

``dS/S = (r - q - lambda * kbar) dt + sigma dW + (e^J - 1) dN``

where ``N`` is a Poisson process of intensity ``lambda`` and jump sizes
``J ~ N(jump_mean, jump_std^2)``; ``kbar = E[e^J - 1]``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.models.base import Model, time_grid_steps
from repro.pricing.rng import RandomGenerator

__all__ = ["MertonJumpModel"]


class MertonJumpModel(Model):
    """Merton lognormal jump-diffusion."""

    model_name = "MertonJump1D"
    dimension = 1

    def __init__(
        self,
        spot: float,
        rate: float,
        volatility: float,
        jump_intensity: float,
        jump_mean: float,
        jump_std: float,
        dividend: float = 0.0,
    ):
        super().__init__(spot=float(spot), rate=rate, dividend=dividend)
        if volatility <= 0:
            raise PricingError("volatility must be strictly positive")
        if jump_intensity < 0:
            raise PricingError("jump intensity must be non-negative")
        if jump_std < 0:
            raise PricingError("jump size standard deviation must be non-negative")
        self.volatility = float(volatility)
        self.jump_intensity = float(jump_intensity)
        self.jump_mean = float(jump_mean)
        self.jump_std = float(jump_std)

    @property
    def mean_relative_jump(self) -> float:
        """``kbar = E[e^J - 1]`` -- the drift compensator."""
        return float(np.exp(self.jump_mean + 0.5 * self.jump_std**2) - 1.0)

    # -- characteristic function ---------------------------------------------
    def log_char_function(self, u: np.ndarray, maturity: float) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        sigma2 = self.volatility**2
        kbar = self.mean_relative_jump
        drift = self.rate - self.dividend - 0.5 * sigma2 - self.jump_intensity * kbar
        jump_cf = np.exp(1j * u * self.jump_mean - 0.5 * self.jump_std**2 * u**2)
        exponent = (
            1j * u * drift * maturity
            - 0.5 * sigma2 * u**2 * maturity
            + self.jump_intensity * maturity * (jump_cf - 1.0)
        )
        return np.exp(exponent)

    # -- sampling ----------------------------------------------------------------
    def sample_terminal(
        self, rng: RandomGenerator, n_paths: int, maturity: float
    ) -> np.ndarray:
        """Exact terminal sampling: Brownian part + compound Poisson jumps."""
        z = rng.normals((n_paths,))
        # Poisson counts via inverse transform on uniforms so that Sobol
        # generators remain usable.
        u = rng.uniforms((n_paths,))
        from scipy import stats

        counts = stats.poisson.ppf(u, self.jump_intensity * maturity).astype(int)
        jump_sum = np.zeros(n_paths)
        max_count = int(counts.max()) if n_paths else 0
        if max_count > 0:
            jump_normals = rng.normals((n_paths, max_count))
            mask = np.arange(max_count)[None, :] < counts[:, None]
            jumps = self.jump_mean + self.jump_std * jump_normals
            jump_sum = np.where(mask, jumps, 0.0).sum(axis=1)
        sigma = self.volatility
        drift = (
            self.rate
            - self.dividend
            - 0.5 * sigma**2
            - self.jump_intensity * self.mean_relative_jump
        ) * maturity
        return self.spot * np.exp(drift + sigma * np.sqrt(maturity) * z + jump_sum)

    def simulate_paths(
        self, rng: RandomGenerator, n_paths: int, times: np.ndarray
    ) -> np.ndarray:
        times, dts = time_grid_steps(times)
        n_steps = len(dts)
        paths = np.empty((n_paths, n_steps + 1))
        paths[:, 0] = self.spot
        sigma = self.volatility
        comp_drift = (
            self.rate
            - self.dividend
            - 0.5 * sigma**2
            - self.jump_intensity * self.mean_relative_jump
        )
        from scipy import stats

        for k, dt in enumerate(dts):
            z = rng.normals((n_paths,))
            u = rng.uniforms((n_paths,))
            counts = stats.poisson.ppf(u, self.jump_intensity * dt).astype(int)
            jump_sum = np.zeros(n_paths)
            max_count = int(counts.max()) if n_paths else 0
            if max_count > 0:
                jn = rng.normals((n_paths, max_count))
                mask = np.arange(max_count)[None, :] < counts[:, None]
                jump_sum = np.where(mask, self.jump_mean + self.jump_std * jn, 0.0).sum(axis=1)
            paths[:, k + 1] = paths[:, k] * np.exp(
                comp_drift * dt + sigma * np.sqrt(dt) * z + jump_sum
            )
        return paths

    # -- serialization -------------------------------------------------------------
    def to_params(self) -> dict[str, Any]:
        return {
            "spot": self.spot,
            "rate": self.rate,
            "volatility": self.volatility,
            "jump_intensity": self.jump_intensity,
            "jump_mean": self.jump_mean,
            "jump_std": self.jump_std,
            "dividend": self.dividend,
        }

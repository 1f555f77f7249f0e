"""The Heston stochastic volatility model.

The paper's example problem file (Section 3.3) prices an American option in
the one-dimensional Heston model with the Longstaff-Schwartz Monte-Carlo
algorithm (``MC_AM_Alfonsi_LongstaffSchwartz``).  This module provides the
model dynamics:

``dS_t = (r - q) S_t dt + sqrt(V_t) S_t dW^S_t``
``dV_t = kappa (theta - V_t) dt + sigma_v sqrt(V_t) dW^V_t``
``d<W^S, W^V>_t = rho dt``

Path simulation uses a full-truncation Euler scheme by default and an
Alfonsi-style implicit scheme for the variance when requested; the exact
characteristic function (Gatheral's "little trap" formulation, numerically
stable for long maturities) is also exposed for Fourier/COS pricing which the
tests use to validate the Monte-Carlo methods.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.models.base import Model, time_grid_steps
from repro.pricing.rng import RandomGenerator

__all__ = ["HestonModel"]


class HestonModel(Model):
    """Heston (1993) stochastic volatility model.

    Parameters
    ----------
    spot, rate, dividend:
        Usual market data.
    v0:
        Initial instantaneous variance ``V_0 > 0``.
    kappa:
        Mean-reversion speed of the variance.
    theta:
        Long-run variance level.
    sigma_v:
        Volatility of variance ("vol of vol").
    rho:
        Correlation between the asset and variance Brownian motions,
        ``-1 <= rho <= 1``.
    """

    model_name = "Heston1D"
    dimension = 1

    def __init__(
        self,
        spot: float,
        rate: float,
        v0: float,
        kappa: float,
        theta: float,
        sigma_v: float,
        rho: float,
        dividend: float = 0.0,
    ):
        super().__init__(spot=float(spot), rate=rate, dividend=dividend)
        if v0 <= 0 or theta <= 0:
            raise PricingError("initial and long-run variance must be positive")
        if kappa <= 0 or sigma_v <= 0:
            raise PricingError("kappa and sigma_v must be positive")
        if not -1.0 <= rho <= 1.0:
            raise PricingError("rho must lie in [-1, 1]")
        self.v0 = float(v0)
        self.kappa = float(kappa)
        self.theta = float(theta)
        self.sigma_v = float(sigma_v)
        self.rho = float(rho)

    @property
    def feller_satisfied(self) -> bool:
        """Whether the Feller condition ``2 kappa theta >= sigma_v^2`` holds
        (variance stays strictly positive in continuous time)."""
        return 2.0 * self.kappa * self.theta >= self.sigma_v**2

    # -- characteristic function ---------------------------------------------
    def log_char_function(self, u: np.ndarray, maturity: float) -> np.ndarray:
        """Characteristic function of ``log(S_T / S_0)``.

        Uses the formulation of Gatheral / Albrecher et al. that avoids the
        branch-cut discontinuity of the original Heston formula.
        """
        u = np.asarray(u, dtype=complex)
        kappa, theta, sigma, rho, v0 = (
            self.kappa,
            self.theta,
            self.sigma_v,
            self.rho,
            self.v0,
        )
        t = maturity
        mu = self.rate - self.dividend

        d = np.sqrt((rho * sigma * 1j * u - kappa) ** 2 + sigma**2 * (1j * u + u**2))
        g = (kappa - rho * sigma * 1j * u - d) / (kappa - rho * sigma * 1j * u + d)

        exp_dt = np.exp(-d * t)
        c = (
            kappa
            * theta
            / sigma**2
            * (
                (kappa - rho * sigma * 1j * u - d) * t
                - 2.0 * np.log((1.0 - g * exp_dt) / (1.0 - g))
            )
        )
        dfun = (
            (kappa - rho * sigma * 1j * u - d)
            / sigma**2
            * ((1.0 - exp_dt) / (1.0 - g * exp_dt))
        )
        return np.exp(1j * u * mu * t + c + dfun * v0)

    # -- path simulation --------------------------------------------------------
    def simulate_paths(
        self,
        rng: RandomGenerator,
        n_paths: int,
        times: np.ndarray,
        scheme: str = "full_truncation",
        return_variance: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Simulate asset paths (and optionally variance paths).

        Parameters
        ----------
        scheme:
            ``"full_truncation"`` (Lord et al. Euler scheme, default) or
            ``"alfonsi"`` (implicit drift scheme for the variance, the scheme
            named in the paper's example method).
        return_variance:
            When ``True`` return ``(asset_paths, variance_paths)``.
        """
        times, _ = time_grid_steps(times)
        if scheme not in ("full_truncation", "alfonsi"):
            raise PricingError(f"unknown Heston simulation scheme: {scheme!r}")
        n_steps = len(times) - 1
        s = np.full(n_paths, float(self.spot))
        v = np.full(n_paths, self.v0)
        s_paths = np.empty((n_paths, n_steps + 1))
        v_paths = np.empty((n_paths, n_steps + 1))
        s_paths[:, 0] = s
        v_paths[:, 0] = v
        drift = self.rate - self.dividend
        rho = self.rho
        rho_bar = np.sqrt(max(1.0 - rho**2, 0.0))
        for k in range(n_steps):
            dt = times[k + 1] - times[k]
            sqrt_dt = np.sqrt(dt)
            z = rng.normals((n_paths, 2))
            dw_v = z[:, 0] * sqrt_dt
            dw_s = (rho * z[:, 0] + rho_bar * z[:, 1]) * sqrt_dt

            v_plus = np.maximum(v, 0.0)
            if scheme == "full_truncation":
                v_next = (
                    v
                    + self.kappa * (self.theta - v_plus) * dt
                    + self.sigma_v * np.sqrt(v_plus) * dw_v
                )
            else:  # alfonsi: implicit in the mean-reversion drift
                sqrt_v = np.sqrt(v_plus)
                numerator = (
                    sqrt_v
                    + self.sigma_v * dw_v / 2.0
                )
                v_next = (
                    numerator**2
                    + self.kappa * (self.theta - v_plus) * dt
                    - self.sigma_v**2 * dt / 4.0
                ) / (1.0 + self.kappa * dt / 2.0) + v_plus * self.kappa * dt / 2.0 / (
                    1.0 + self.kappa * dt / 2.0
                )
            s = s * np.exp((drift - 0.5 * v_plus) * dt + np.sqrt(v_plus) * dw_s)
            v = v_next
            s_paths[:, k + 1] = s
            v_paths[:, k + 1] = np.maximum(v, 0.0)
        if return_variance:
            return s_paths, v_paths
        return s_paths

    def sample_terminal(
        self, rng: RandomGenerator, n_paths: int, maturity: float
    ) -> np.ndarray:
        n_steps = max(32, int(np.ceil(100 * maturity)))
        times = np.linspace(0.0, maturity, n_steps + 1)
        return self.simulate_paths(rng, n_paths, times)[:, -1]

    # -- serialization -----------------------------------------------------------
    def to_params(self) -> dict[str, Any]:
        return {
            "spot": self.spot,
            "rate": self.rate,
            "v0": self.v0,
            "kappa": self.kappa,
            "theta": self.theta,
            "sigma_v": self.sigma_v,
            "rho": self.rho,
            "dividend": self.dividend,
        }

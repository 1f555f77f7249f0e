"""The solo samplers the stackable models once carried, kept as ``==`` references.

Each model class used to have two samplers for the same arithmetic: a solo
``simulate_paths`` / ``sample_terminal`` and a ``stacked_*`` twin written to
reproduce the solo IEEE sequence.  Production now keeps only the stacked
one (a solo call is a stack of one); the solo bodies live on here,
unchanged -- ``self`` is the model -- except that the multi-asset bodies
call :func:`correlated_normals` instead of a generator method.  That
function is ``RandomGenerator.correlated_normals`` and its antithetic
override, merged, with the generator passed in.  :func:`solo_simulate_paths` / :func:`solo_sample_terminal` pick the
body the model's class used to run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PricingError
from repro.pricing.models.base import DiffusionModel1D
from repro.pricing.models.black_scholes import BlackScholesModel
from repro.pricing.models.multi_asset import MultiAssetBlackScholesModel
from repro.pricing.rng import AntitheticGenerator, RandomGenerator, cholesky_factor

__all__ = ["correlated_normals", "solo_sample_terminal", "solo_simulate_paths"]


def correlated_normals(
    rng: RandomGenerator, n_samples: int, correlation: np.ndarray
) -> np.ndarray:
    """``(n_samples, d)`` normals with the given correlation matrix."""
    if isinstance(rng, AntitheticGenerator):
        rng._check_even(n_samples)
        half = correlated_normals(rng.base, n_samples // 2, correlation)
        return np.concatenate([half, -half], axis=0)
    chol = cholesky_factor(correlation)
    z = rng.normals((n_samples, chol.shape[0]))
    return z @ chol.T


# -- DiffusionModel1D: log-Euler paths, streamed Euler terminal ---------------


def _diffusion_simulate_paths(
    self, rng: RandomGenerator, n_paths: int, times: np.ndarray
) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise PricingError("time grid must start at 0")
    n_steps = len(times) - 1
    paths = np.empty((n_paths, n_steps + 1), dtype=float)
    paths[:, 0] = self.spot
    if n_steps == 0:
        return paths
    normals = rng.normals((n_paths, n_steps))
    drift = self.rate - self.dividend
    dts = np.diff(times)
    sqrt_dts = np.sqrt(dts)  # hoisted: one vectorized sqrt for the grid
    for k in range(n_steps):
        s = paths[:, k]
        sigma = self.local_volatility(times[k], s)
        paths[:, k + 1] = s * np.exp(
            (drift - 0.5 * sigma**2) * dts[k] + sigma * sqrt_dts[k] * normals[:, k]
        )
    return paths


def _diffusion_sample_terminal(
    self, rng: RandomGenerator, n_paths: int, maturity: float
) -> np.ndarray:
    # generic fallback: Euler scheme with ~100 steps per year, streamed --
    # only the current spot slice is held in memory instead of the full
    # (n_paths, n_steps + 1) path matrix whose last column was all the
    # caller wanted
    n_steps = max(16, int(np.ceil(100 * maturity)))
    dt = maturity / n_steps
    sqrt_dt = float(np.sqrt(dt))
    drift = self.rate - self.dividend
    s = np.full(n_paths, float(self.spot))
    for k in range(n_steps):
        z = rng.normals((n_paths,))
        sigma = self.local_volatility(k * dt, s)
        s *= np.exp((drift - 0.5 * sigma**2) * dt + sigma * sqrt_dt * z)
    return s


# -- BlackScholesModel: exact sampling ----------------------------------------


def _bs_sample_terminal(
    self, rng: RandomGenerator, n_paths: int, maturity: float
) -> np.ndarray:
    """Exact lognormal sampling of ``S_T`` (no discretisation error)."""
    z = rng.normals((n_paths,))
    drift = (self.rate - self.dividend - 0.5 * self.volatility**2) * maturity
    return self.spot * np.exp(drift + self.volatility * np.sqrt(maturity) * z)


def _bs_simulate_paths(
    self, rng: RandomGenerator, n_paths: int, times: np.ndarray
) -> np.ndarray:
    """Exact simulation on an arbitrary time grid."""
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise PricingError("time grid must start at 0")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise PricingError("time grid must be strictly increasing")
    n_steps = len(dts)
    z = rng.normals((n_paths, n_steps))
    drift = (self.rate - self.dividend - 0.5 * self.volatility**2) * dts
    diffusion = self.volatility * np.sqrt(dts) * z
    log_increments = drift[None, :] + diffusion
    log_paths = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(log_increments, axis=1)], axis=1
    )
    return self.spot * np.exp(log_paths)


# -- MultiAssetBlackScholesModel: exact sampling ------------------------------


def _basket_sample_terminal(
    self, rng: RandomGenerator, n_paths: int, maturity: float
) -> np.ndarray:
    """Exact sampling of the terminal vector ``S_T`` -- shape ``(n, d)``."""
    z = correlated_normals(rng, n_paths, self.correlation)
    drift = (
        self.rate - self.dividend_vector - 0.5 * self.volatilities**2
    ) * maturity
    diffusion = self.volatilities * np.sqrt(maturity) * z
    return np.asarray(self.spot)[None, :] * np.exp(drift[None, :] + diffusion)


def _basket_simulate_paths(
    self, rng: RandomGenerator, n_paths: int, times: np.ndarray
) -> np.ndarray:
    """Exact simulation on a grid -- shape ``(n_paths, n_times, d)``."""
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise PricingError("time grid must start at 0")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise PricingError("time grid must be strictly increasing")
    n_steps = len(dts)
    d = self.dimension
    paths = np.empty((n_paths, n_steps + 1, d))
    paths[:, 0, :] = np.asarray(self.spot)[None, :]
    log_s = np.log(np.asarray(self.spot, dtype=float))[None, :].repeat(n_paths, axis=0)
    drift_rate = self.rate - self.dividend_vector - 0.5 * self.volatilities**2
    sqrt_dts = np.sqrt(dts)  # hoisted out of the step loop
    for k, dt in enumerate(dts):
        z = correlated_normals(rng, n_paths, self.correlation)
        log_s = log_s + (drift_rate * dt)[None, :] + self.volatilities * sqrt_dts[k] * z
        paths[:, k + 1, :] = np.exp(log_s)
    return paths


#: most derived first: BlackScholesModel is a DiffusionModel1D
_SOLO = (
    (MultiAssetBlackScholesModel, _basket_simulate_paths, _basket_sample_terminal),
    (BlackScholesModel, _bs_simulate_paths, _bs_sample_terminal),
    (DiffusionModel1D, _diffusion_simulate_paths, _diffusion_sample_terminal),
)


def _solo(model: object, index: int):
    for cls, *samplers in _SOLO:
        if isinstance(model, cls):
            return samplers[index]
    raise TypeError(f"{type(model).__name__} never had a stacked twin")


def solo_simulate_paths(model, rng: RandomGenerator, n_paths: int, times) -> np.ndarray:
    """What ``model.simulate_paths`` computed before solo became a stack of one."""
    return _solo(model, 0)(model, rng, n_paths, times)


def solo_sample_terminal(model, rng: RandomGenerator, n_paths: int, maturity: float) -> np.ndarray:
    """What ``model.sample_terminal`` computed before solo became a stack of one."""
    return _solo(model, 1)(model, rng, n_paths, maturity)

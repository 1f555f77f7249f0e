"""Base classes for the asset-dynamics models of the pricing library.

A *model* describes the risk-neutral dynamics of one or several underlying
assets.  Every model exposes:

* static market data: ``spot``, ``rate`` (continuously compounded risk-free
  rate), ``dividend`` (continuous dividend yield);
* Monte-Carlo sampling primitives (:meth:`Model.sample_terminal`,
  :meth:`Model.simulate_paths`) used by the Monte-Carlo and
  Longstaff-Schwartz pricers;
* optional analytic structure -- a local volatility function for PDE pricers
  (:class:`DiffusionModel1D.local_volatility`) and a characteristic function
  for Fourier pricers (:meth:`Model.log_char_function`).

Parameter dictionaries returned by :meth:`Model.to_params` are plain
``dict[str, float | list]`` so they can be serialized by :mod:`repro.serial`
without custom hooks.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.rng import RandomGenerator
from repro.pricing.validation import FiniteParams

__all__ = ["Model", "DiffusionModel1D", "MultiAssetModel"]


class Model(metaclass=FiniteParams):
    """Abstract base class of all models."""

    #: registry identifier, e.g. ``"BlackScholes1D"``
    model_name: str = "abstract"
    #: number of underlying assets
    dimension: int = 1

    def __init__(self, spot: float, rate: float, dividend: float = 0.0):
        if np.any(np.asarray(spot, dtype=float) <= 0):
            raise PricingError("spot price(s) must be strictly positive")
        self.spot = spot
        self.rate = float(rate)
        self.dividend = float(dividend)

    # -- market data -------------------------------------------------------
    def discount_factor(self, maturity: float) -> float:
        """Risk-free discount factor ``exp(-r * T)``."""
        return float(np.exp(-self.rate * maturity))

    def forward(self, maturity: float) -> float | np.ndarray:
        """Forward price(s) of the underlying(s) at ``maturity``."""
        return np.asarray(self.spot) * np.exp((self.rate - self.dividend) * maturity)

    # -- Monte-Carlo interface --------------------------------------------
    @abc.abstractmethod
    def sample_terminal(
        self, rng: RandomGenerator, n_paths: int, maturity: float
    ) -> np.ndarray:
        """Sample the asset value(s) at ``maturity``.

        Returns an array of shape ``(n_paths,)`` for one-dimensional models
        and ``(n_paths, dimension)`` for multi-asset models.  Models without
        an exact terminal law fall back to a fine Euler discretisation.
        """

    @abc.abstractmethod
    def simulate_paths(
        self, rng: RandomGenerator, n_paths: int, times: np.ndarray
    ) -> np.ndarray:
        """Simulate full paths on the grid ``times`` (which must include 0).

        Returns ``(n_paths, len(times))`` for 1-d models and
        ``(n_paths, len(times), dimension)`` for multi-asset models.
        ``paths[:, 0]`` equals the spot.
        """

    # -- analytic structure -------------------------------------------------
    def log_char_function(self, u: np.ndarray, maturity: float) -> np.ndarray:
        """Characteristic function of ``log(S_T / S_0)`` under the pricing
        measure, evaluated at ``u``.  Models without a known characteristic
        function raise :class:`PricingError`; Fourier pricers check
        compatibility through this call.
        """
        raise PricingError(
            f"model {self.model_name!r} has no known characteristic function"
        )

    # -- serialization helpers ----------------------------------------------
    @abc.abstractmethod
    def to_params(self) -> dict[str, Any]:
        """Return the constructor parameters as a plain dictionary."""

    @classmethod
    def from_params(cls, params: dict[str, Any]) -> "Model":
        """Rebuild a model from :meth:`to_params` output."""
        return cls(**params)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        if self.model_name != other.model_name:
            return False
        pa, pb = self.to_params(), other.to_params()
        if pa.keys() != pb.keys():
            return False
        for key in pa:
            if not np.allclose(np.asarray(pa[key], dtype=float),
                               np.asarray(pb[key], dtype=float)):
                return False
        return True

    def __hash__(self) -> int:  # models are used as dict keys in caches
        # memoized: serializing every parameter array via tobytes() on each
        # call is far too slow for the hot batch/cache lookups, and models
        # are treated as immutable once constructed
        cached = self.__dict__.get("_hash_cache")
        if cached is None:
            items = []
            for key, value in sorted(self.to_params().items()):
                arr = np.asarray(value, dtype=float)
                items.append((key, arr.tobytes()))
            cached = hash((self.model_name, tuple(items)))
            self.__dict__["_hash_cache"] = cached
        return cached

    def param_digest(self) -> str:
        """Memoized stable SHA-256 digest of (model name, parameters).

        Shared by the batch planner (grouping key) and the result cache
        (content address); see :mod:`repro.pricing.cache`.
        """
        cached = self.__dict__.get("_digest_cache")
        if cached is None:
            from repro.pricing.cache import model_digest

            cached = model_digest(self)
            self.__dict__["_digest_cache"] = cached
        return cached

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.to_params().items())
        return f"{type(self).__name__}({params})"


class DiffusionModel1D(Model):
    """One-dimensional diffusion ``dS = (r - q) S dt + sigma(t, S) S dW``.

    Subclasses provide :meth:`local_volatility`; path simulation defaults to a
    log-Euler scheme which is exact for constant volatility and first-order
    accurate otherwise.  PDE pricers only need :meth:`local_volatility` and
    the market data.
    """

    dimension = 1

    @abc.abstractmethod
    def local_volatility(self, t: float, s: np.ndarray) -> np.ndarray:
        """Return ``sigma(t, S)`` evaluated element-wise on ``s``."""

    # -- Monte-Carlo defaults ----------------------------------------------
    def simulate_paths(
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

    def sample_terminal(
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

    # -- stacked sampling (shared-draw kernel) ------------------------------
    @staticmethod
    def stacked_simulate_paths(
        models: "list[DiffusionModel1D]",
        rng: RandomGenerator,
        n_paths: int,
        times: np.ndarray,
    ) -> np.ndarray:
        """Log-Euler paths for several models from **one** shared normal draw.

        Returns a ``(len(models), n_paths, len(times))`` array whose row ``g``
        is bit-identical to ``models[g].simulate_paths(rng_g, n_paths, times)``
        with a fresh generator ``rng_g`` in the same state: the single
        ``(n_paths, n_steps)`` draw below is exactly what each solo call would
        draw, and every arithmetic step applies the same scalar/row operations
        in the same order (only broadcast over the leading group axis).
        """
        times = np.asarray(times, dtype=float)
        if times[0] != 0.0:
            raise PricingError("time grid must start at 0")
        n_steps = len(times) - 1
        n_groups = len(models)
        paths = np.empty((n_groups, n_paths, n_steps + 1), dtype=float)
        for g, model in enumerate(models):
            paths[g, :, 0] = model.spot
        if n_steps == 0:
            return paths
        normals = rng.normals((n_paths, n_steps))
        drifts = np.array([model.rate - model.dividend for model in models])
        dts = np.diff(times)
        sqrt_dts = np.sqrt(dts)
        for k in range(n_steps):
            s = paths[:, :, k]
            sigma = np.stack(
                [model.local_volatility(times[k], s[g]) for g, model in enumerate(models)]
            )
            paths[:, :, k + 1] = s * np.exp(
                (drifts[:, None] - 0.5 * sigma**2) * dts[k]
                + sigma * sqrt_dts[k] * normals[None, :, k]
            )
        return paths

    @staticmethod
    def stacked_sample_terminal(
        models: "list[DiffusionModel1D]",
        rng: RandomGenerator,
        n_paths: int,
        maturity: float,
    ) -> np.ndarray:
        """Streamed-Euler terminal values for several models, shared draws.

        Returns ``(len(models), n_paths)``; row ``g`` is bit-identical to the
        solo :meth:`sample_terminal` of ``models[g]`` (same per-step draw
        sequence, same update expression broadcast over the group axis).
        """
        n_steps = max(16, int(np.ceil(100 * maturity)))
        dt = maturity / n_steps
        sqrt_dt = float(np.sqrt(dt))
        drifts = np.array([model.rate - model.dividend for model in models])
        s = np.empty((len(models), n_paths), dtype=float)
        for g, model in enumerate(models):
            s[g, :] = float(model.spot)
        for k in range(n_steps):
            z = rng.normals((n_paths,))
            sigma = np.stack(
                [model.local_volatility(k * dt, s[g]) for g, model in enumerate(models)]
            )
            s *= np.exp((drifts[:, None] - 0.5 * sigma**2) * dt + sigma * sqrt_dt * z[None, :])
        return s


class MultiAssetModel(Model):
    """Base class for models driving several correlated assets."""

    def __init__(
        self,
        spot: np.ndarray,
        rate: float,
        dividend: np.ndarray | float = 0.0,
        correlation: np.ndarray | None = None,
    ):
        spot = np.atleast_1d(np.asarray(spot, dtype=float))
        super().__init__(spot=spot, rate=rate, dividend=0.0)
        self.dimension = len(spot)
        dividend = np.broadcast_to(
            np.asarray(dividend, dtype=float), (self.dimension,)
        ).copy()
        self.dividend_vector = dividend
        if correlation is None:
            correlation = np.eye(self.dimension)
        correlation = np.asarray(correlation, dtype=float)
        if correlation.shape != (self.dimension, self.dimension):
            raise PricingError(
                "correlation matrix shape does not match the number of assets"
            )
        if not np.allclose(correlation, correlation.T):
            raise PricingError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(correlation), 1.0):
            raise PricingError("correlation matrix must have unit diagonal")
        eigvals = np.linalg.eigvalsh(correlation)
        if eigvals.min() < -1e-10:
            raise PricingError("correlation matrix must be positive semi-definite")
        self.correlation = correlation

    def forward(self, maturity: float) -> np.ndarray:
        return np.asarray(self.spot) * np.exp(
            (self.rate - self.dividend_vector) * maturity
        )

"""Base classes for the asset-dynamics models of the pricing library.

A *model* describes the risk-neutral dynamics of one or several underlying
assets.  Every model exposes:

* static market data: ``spot``, ``rate`` (continuously compounded risk-free
  rate), ``dividend`` (continuous dividend yield);
* Monte-Carlo sampling primitives (:meth:`Model.sample_terminal`,
  :meth:`Model.simulate_paths`) used by the Monte-Carlo and
  Longstaff-Schwartz pricers; a :class:`StackedSampler` model has one
  sampler, its ``stacked_*`` staticmethod, and samples alone as its
  one-member stack;
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

__all__ = ["Model", "DiffusionModel1D", "MultiAssetModel", "StackedSampler", "time_grid_steps"]


def time_grid_steps(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A simulation grid as floats and its steps, refused unless it starts
    at 0 and increases strictly: a repeated time is a zero step, a
    decreasing one the square root of a negative step."""
    times = np.asarray(times, dtype=float)
    if times[0] != 0.0:
        raise PricingError("time grid must start at 0")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise PricingError("time grid must be strictly increasing")
    return times, dts


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


class StackedSampler:
    """Solo sampling is the stacked sampler at one member.

    A model class mixing this in has exactly one sampler per mode, the
    staticmethods ``stacked_simulate_paths(models, rng, n_paths, times)`` and
    ``stacked_sample_terminal(models, rng, n_paths, maturity)``, which draw
    once for a whole stack of models; the solo calls below are a stack of one.
    The stacked kernel (:mod:`repro.pricing.kernel`) recognises these two
    methods: a class overriding either samples opaquely in that mode.
    """

    def simulate_paths(
        self, rng: RandomGenerator, n_paths: int, times: np.ndarray
    ) -> np.ndarray:
        return type(self).stacked_simulate_paths([self], rng, n_paths, times)[0]

    def sample_terminal(
        self, rng: RandomGenerator, n_paths: int, maturity: float
    ) -> np.ndarray:
        return type(self).stacked_sample_terminal([self], rng, n_paths, maturity)[0]


class DiffusionModel1D(StackedSampler, Model):
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

    # -- sampling: one draw shared by a stack of models ----------------------
    @staticmethod
    def stacked_simulate_paths(
        models: "list[DiffusionModel1D]",
        rng: RandomGenerator,
        n_paths: int,
        times: np.ndarray,
    ) -> np.ndarray:
        """Log-Euler paths for several models from **one** shared normal draw.

        Returns a ``(len(models), n_paths, len(times))`` array.  The draw is
        one ``(n_paths, n_steps)`` block whatever the stack's size, and the
        update applies each model's drift and local volatility broadcast over
        the leading group axis, so row ``g`` does not depend on the other
        members: stacking changes no bit.
        """
        times, dts = time_grid_steps(times)
        n_steps = len(dts)
        n_groups = len(models)
        paths = np.empty((n_groups, n_paths, n_steps + 1), dtype=float)
        for g, model in enumerate(models):
            paths[g, :, 0] = model.spot
        if n_steps == 0:
            return paths
        normals = rng.normals((n_paths, n_steps))
        drifts = np.array([model.rate - model.dividend for model in models])
        sqrt_dts = np.sqrt(dts)
        log_step = np.empty((n_groups, n_paths))
        for k in range(n_steps):
            # the next column holds the volatility until it holds the spot
            s, s_next = paths[:, :, k], paths[:, :, k + 1]
            _log_euler_step(models, times[k], s, s_next, log_step, drifts, dts[k],
                            sqrt_dts[k], normals[None, :, k])
            np.multiply(s, np.exp(log_step, out=log_step), out=s_next)
        return paths

    @staticmethod
    def stacked_sample_terminal(
        models: "list[DiffusionModel1D]",
        rng: RandomGenerator,
        n_paths: int,
        maturity: float,
    ) -> np.ndarray:
        """Streamed-Euler terminal values for several models, shared draws.

        Returns ``(len(models), n_paths)``: an Euler scheme with ~100 steps a
        year (at least 16), one ``(n_paths,)`` draw per step, holding only
        the current spot slice instead of the path matrix whose last column
        is all the caller wants.
        """
        n_steps = max(16, int(np.ceil(100 * maturity)))
        dt = maturity / n_steps
        sqrt_dt = float(np.sqrt(dt))
        drifts = np.array([model.rate - model.dividend for model in models])
        s = np.empty((len(models), n_paths), dtype=float)
        for g, model in enumerate(models):
            s[g, :] = float(model.spot)
        sigma = np.empty_like(s)
        log_step = np.empty_like(s)
        for k in range(n_steps):
            z = rng.normals((n_paths,))
            _log_euler_step(models, k * dt, s, sigma, log_step, drifts, dt, sqrt_dt, z[None, :])
            s *= np.exp(log_step, out=log_step)
        return s


def _log_euler_step(
    models: "list[DiffusionModel1D]",
    t: float,
    s: np.ndarray,
    sigma: np.ndarray,
    out: np.ndarray,
    drifts: np.ndarray,
    dt: float,
    sqrt_dt: float,
    z: np.ndarray,
) -> None:
    """``out = (drifts - 0.5 sigma**2) dt + sigma sqrt_dt z`` for a stack,
    operation for operation: row ``g`` of ``sigma`` is model ``g``'s local
    volatility at ``(t, s[g])``, written there and then consumed."""
    for g, model in enumerate(models):
        sigma[g] = model.local_volatility(t, s[g])
    np.multiply(sigma, sigma, out=out)
    out *= 0.5
    np.subtract(drifts[:, None], out, out=out)
    out *= dt
    sigma *= sqrt_dt
    sigma *= z
    out += sigma


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

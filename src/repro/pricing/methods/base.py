"""Base classes shared by all numerical pricing methods.

A *method* is the third leg of Premia's (model, option, method) triple: a
numerical algorithm that can price certain (model, product) pairs.  Every
method implements

* :meth:`PricingMethod.supports` -- a cheap compatibility check used by the
  engine registry to refuse invalid combinations up front (mirroring Premia's
  compatibility tables);
* :meth:`PricingMethod.price` -- the actual computation, returning a
  :class:`PricingResult`;
* :meth:`PricingMethod.to_params` -- the method parameters (number of paths,
  grid sizes, ...) as a plain dictionary for serialization.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import IncompatibleMethodError
from repro.pricing.models.base import Model
from repro.pricing.products.base import Product

__all__ = ["PricingResult", "PricingMethod"]


@dataclass
class PricingResult:
    """Outcome of one pricing computation.

    Attributes
    ----------
    price:
        Present value of the product.
    delta:
        First derivative of the price with respect to the spot, when the
        method computes it (closed form, PDE, trees).  ``None`` otherwise.
    std_error:
        Monte-Carlo standard error of the price estimate (``None`` for
        deterministic methods).
    confidence_interval:
        95% confidence interval ``(low, high)`` for Monte-Carlo methods.
    method_name:
        Registry name of the method that produced the result.
    n_evaluations:
        Work indicator (number of paths, grid nodes, tree nodes...), used by
        the cluster cost model.
    elapsed:
        Wall-clock seconds spent inside :meth:`PricingMethod.price`.
    extra:
        Free-form dictionary of method-specific outputs (e.g. exercise
        boundary, per-step diagnostics).
    """

    price: float
    delta: float | None = None
    std_error: float | None = None
    confidence_interval: tuple[float, float] | None = None
    method_name: str = ""
    n_evaluations: int = 0
    elapsed: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view used by the serialization layer and reports."""
        return {
            "price": self.price,
            "delta": self.delta,
            "std_error": self.std_error,
            "confidence_interval": list(self.confidence_interval)
            if self.confidence_interval is not None
            else None,
            "method_name": self.method_name,
            "n_evaluations": self.n_evaluations,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PricingResult":
        ci = data.get("confidence_interval")
        return cls(
            price=float(data["price"]),
            delta=None if data.get("delta") is None else float(data["delta"]),
            std_error=None if data.get("std_error") is None else float(data["std_error"]),
            confidence_interval=None if ci is None else (float(ci[0]), float(ci[1])),
            method_name=str(data.get("method_name", "")),
            n_evaluations=int(data.get("n_evaluations", 0)),
            elapsed=float(data.get("elapsed", 0.0)),
        )


class PricingMethod(abc.ABC):
    """Abstract base class of every pricing algorithm."""

    #: registry identifier, e.g. ``"CF_Call"`` or ``"MC_European"``
    method_name: str = "abstract"

    # -- compatibility ---------------------------------------------------------
    @abc.abstractmethod
    def supports(self, model: Model, product: Product) -> bool:
        """Return whether this method can price ``product`` under ``model``."""

    def check_supports(self, model: Model, product: Product) -> None:
        """Raise :class:`IncompatibleMethodError` when unsupported."""
        if not self.supports(model, product):
            raise IncompatibleMethodError(
                f"method {self.method_name!r} cannot price "
                f"{product.option_name!r} under {model.model_name!r}"
            )

    # -- computation --------------------------------------------------------------
    @abc.abstractmethod
    def _price(self, model: Model, product: Product) -> PricingResult:
        """Method-specific pricing; called by :meth:`price` after the
        compatibility check."""

    def price(self, model: Model, product: Product) -> PricingResult:
        """Price ``product`` under ``model``.

        Performs the compatibility check, times the computation and stamps
        the result with the method name.
        """
        self.check_supports(model, product)
        start = time.perf_counter()
        result = self._price(model, product)
        result.elapsed = time.perf_counter() - start
        result.method_name = self.method_name
        if not np.isfinite(result.price):
            raise self.non_finite_price(model, product)
        return result

    def non_finite_price(self, model: Model, product: Product) -> IncompatibleMethodError:
        """The error every pricing path raises instead of returning inf/NaN."""
        return IncompatibleMethodError(
            f"method {self.method_name!r} produced a non-finite price for "
            f"{product.option_name!r} under {model.model_name!r}"
        )

    # -- serialization ----------------------------------------------------------------
    def to_params(self) -> dict[str, Any]:
        """Method parameters as a plain dictionary (default: no parameters)."""
        return {}

    @classmethod
    def from_params(cls, params: dict[str, Any]) -> "PricingMethod":
        return cls(**params)

    def param_digest(self) -> str:
        """Memoized stable SHA-256 digest of the method parameters.

        The method leg of the batch planner's grouping key; like models,
        methods are treated as immutable once constructed.
        """
        cached = self.__dict__.get("_digest_cache")
        if cached is None:
            from repro.pricing.cache import stable_digest

            cached = stable_digest(self.to_params())
            self.__dict__["_digest_cache"] = cached
        return cached

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PricingMethod):
            return NotImplemented
        return (
            self.method_name == other.method_name and self.to_params() == other.to_params()
        )

    def __hash__(self) -> int:
        return hash((self.method_name, tuple(sorted(self.to_params().items(), key=str))))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.to_params().items())
        return f"{type(self).__name__}({params})"

"""Base classes for financial products (the *option* layer).

A product encodes a payoff and an exercise style, independent of the model
that drives the underlying.  Products are intentionally light-weight, fully
described by a small parameter dictionary (:meth:`Product.to_params`) so they
can be serialized, saved to problem files and shipped to cluster workers.

The three payoff entry points used by the numerical methods are:

* :meth:`Product.terminal_payoff` -- payoff as a function of the terminal
  underlying value(s); sufficient for European non-path-dependent products;
* :meth:`Product.path_payoff` -- payoff as a function of a full discretely
  monitored path; required by barrier and Asian options;
* :meth:`Product.intrinsic_value` -- immediate exercise value, used by the
  American pricers (PDE, trees, Longstaff-Schwartz).
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.errors import PricingError
from repro.pricing.validation import FiniteParams

__all__ = ["Product", "ExerciseStyle", "VanillaLike"]


class ExerciseStyle:
    """String constants for exercise styles."""

    EUROPEAN = "european"
    AMERICAN = "american"


class Product(metaclass=FiniteParams):
    """Abstract base class of every product."""

    #: registry identifier, e.g. ``"CallEuro"``
    option_name: str = "abstract"
    #: exercise style -- one of :class:`ExerciseStyle`
    exercise: str = ExerciseStyle.EUROPEAN
    #: number of underlying assets the payoff depends on (1 or ``d``)
    dimension: int = 1
    #: whether the payoff depends on the whole path (barrier, Asian)
    path_dependent: bool = False

    def __init__(self, maturity: float):
        if maturity <= 0:
            raise PricingError("maturity must be strictly positive")
        self.maturity = float(maturity)

    # -- payoffs -------------------------------------------------------------
    @abc.abstractmethod
    def terminal_payoff(self, spot: np.ndarray) -> np.ndarray:
        """Payoff evaluated on terminal value(s).

        ``spot`` has shape ``(n,)`` for 1-d products and ``(n, d)`` for
        multi-asset products; the result has shape ``(n,)``.
        """

    def path_payoff(self, paths: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Payoff evaluated on discretely monitored paths.

        Default implementation ignores the path and applies
        :meth:`terminal_payoff` to the last time slice, which is correct for
        non-path-dependent products.
        """
        if paths.ndim == 2:
            terminal = paths[:, -1]
        else:
            terminal = paths[:, -1, :]
        return self.terminal_payoff(terminal)

    def intrinsic_value(self, spot: np.ndarray) -> np.ndarray:
        """Immediate exercise value at an arbitrary date.

        For most products this coincides with the terminal payoff function
        applied to the current spot.
        """
        return self.terminal_payoff(spot)

    # -- serialization ----------------------------------------------------------
    @abc.abstractmethod
    def to_params(self) -> dict[str, Any]:
        """Constructor parameters as a plain dictionary."""

    @classmethod
    def from_params(cls, params: dict[str, Any]) -> "Product":
        return cls(**params)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Product):
            return NotImplemented
        if self.option_name != other.option_name:
            return False
        pa, pb = self.to_params(), other.to_params()
        if pa.keys() != pb.keys():
            return False
        for key in pa:
            va, vb = pa[key], pb[key]
            if isinstance(va, str) or isinstance(vb, str):
                if va != vb:
                    return False
            elif not np.allclose(np.asarray(va, dtype=float), np.asarray(vb, dtype=float)):
                return False
        return True

    def __hash__(self) -> int:
        items = []
        for key, value in sorted(self.to_params().items()):
            if isinstance(value, str):
                items.append((key, value))
            else:
                items.append((key, np.asarray(value, dtype=float).tobytes()))
        return hash((self.option_name, tuple(items)))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.to_params().items())
        return f"{type(self).__name__}({params})"


class VanillaLike(Product):
    """Convenience base class for single-asset products with a strike."""

    def __init__(self, strike: float, maturity: float):
        super().__init__(maturity)
        if strike <= 0:
            raise PricingError("strike must be strictly positive")
        self.strike = float(strike)

    def to_params(self) -> dict[str, Any]:
        return {"strike": self.strike, "maturity": self.maturity}

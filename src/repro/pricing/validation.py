"""The number checks shared by models, products, methods and configuration.

Every leg of a (model, option, method) triple is described by its
``to_params()`` dictionary, and each constructor checks the *sign* of what it
is given -- but ``nan <= 0`` is false, so a NaN volatility or an infinite
spot walks through every sign check and only surfaces, much later, as a
non-finite price blamed on the method.  :class:`FiniteParams` closes that
door once, for every family: as an object leaves its constructor, every
number in its ``to_params()`` must be finite.

The columnar result record (:class:`~repro.pricing.methods.base.ResultColumns`)
leans on this: it writes NaN for *absent*, which is only sound if no leg can
be built that prices to NaN.

:func:`check_count` is the one integral check: for the legs' counts (paths,
steps, seeds, grid sizes, with their minimums) and, raising their own error
types, for the configuration objects' (worker counts, attempt counts, server
limits).  :func:`check_flag` is its twin for the legs' boolean switches.
"""

from __future__ import annotations

import abc
import math
import numbers
from typing import Any

import numpy as np

from repro.errors import PricingError

__all__ = ["FiniteParams", "check_count", "check_flag"]


def check_count(
    value: Any,
    field: str,
    minimum: int = 1,
    *,
    error: type[Exception] = PricingError,
    floats: bool = True,
) -> int:
    """``value`` as an ``int`` of at least ``minimum``, else ``error`` naming ``field``.

    ``True`` and ``2.5`` are refused, not truncated: a truncated
    ``"seed": 1.5`` would price -- and cache -- as seed 1.  An integral
    float such as ``1e5``, which is how a JSON client may send a count, is
    accepted unless ``floats`` is false (configuration built in Python takes
    ints only).
    """
    if floats and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{field} must be an int, got {value!r}")
    if value < minimum:
        raise error(f"{field} must be >= {minimum}, got {value!r}")
    return int(value)


def check_flag(value: Any, field: str) -> bool:
    """``value`` as a ``bool``, else a :class:`PricingError` naming ``field``.

    Only ``bool`` and ``numpy.bool_`` pass: ``bool("false")`` is ``True``,
    so a JSON ``"antithetic": "false"`` would price -- and cache -- as the
    opposite of what it says.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise PricingError(f"{field} must be a bool, got {value!r}")


def _is_finite(value: Any) -> bool:
    """Whether ``value`` -- anything but a plain float or int -- holds no NaN or infinity."""
    if isinstance(value, (float, int, list, tuple, np.ndarray, np.number)):
        try:
            return bool(np.isfinite(np.asarray(value, dtype=float)).all())
        except (TypeError, ValueError):
            return True  # not numbers (names, nested records): not this check's business
    return True


class FiniteParams(abc.ABCMeta):
    """Metaclass of the three leg bases: an object whose ``to_params()``
    holds NaN or an infinity is refused, as it leaves its constructor, with a
    :class:`~repro.errors.PricingError` naming the parameter."""

    def __call__(cls, *args: Any, **params: Any) -> Any:
        leg = super().__call__(*args, **params)
        for name, value in leg.to_params().items():
            # legs are built per job on the workers: plain numbers, nearly
            # all there is, skip the general check's array
            plain = type(value) is float or type(value) is int
            if not (math.isfinite(value) if plain else _is_finite(value)):
                raise PricingError(
                    f"{cls.__name__}: parameter {name!r} must be finite, got {value!r}"
                )
        return leg

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
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import IncompatibleMethodError, SerializationError
from repro.pricing.models.base import Model
from repro.pricing.products.base import Product
from repro.pricing.validation import FiniteParams

__all__ = ["PricingResult", "ResultColumns", "FLOAT_COLUMNS", "PricingMethod"]


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
        """Rebuild a result; a payload of the wrong shape raises
        :class:`~repro.errors.SerializationError`."""
        try:
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
        except (AttributeError, LookupError, TypeError, ValueError, OverflowError) as exc:
            raise SerializationError(
                f"PricingResult payload: {type(exc).__name__}: {exc}"
            ) from exc


_NAN = float("nan")
_UNSIGNED = np.dtype(np.uint64)
_max = np.maximum.reduce

#: the float64 columns of a :class:`ResultColumns`; all but ``price`` and
#: ``elapsed`` are optional fields, absent (``None``) where they hold NaN
FLOAT_COLUMNS = ("price", "delta", "std_error", "ci_low", "ci_high", "elapsed")
#: every column with its dtype, in wire order
_COLUMN_DTYPES: dict[str, np.dtype] = {
    "ids": np.dtype(np.int64),
    **{name: np.dtype(np.float64) for name in FLOAT_COLUMNS},
    "n_evaluations": np.dtype(np.int64),
    "method": np.dtype(np.int64),
}


def _malformed(name: str, column: Any, dtype: np.dtype, n_rows: int) -> SerializationError:
    """What is wrong with ``column``, which failed :class:`ResultColumns`'s check."""
    if not isinstance(column, np.ndarray) or column.dtype != dtype or column.ndim != 1:
        return SerializationError(
            f"ResultColumns record: '{name}' must be a 1-d {dtype.name} array"
        )
    return SerializationError(
        f"ResultColumns record: '{name}' has {len(column)} rows for {n_rows} ids"
    )


class ResultColumns(Mapping):
    """The results of many positions as one record of equal-length columns.

    What a payload with members (:class:`~repro.pricing.batch.ProblemBatch`,
    :class:`~repro.pricing.scenarios.ScenarioGrid`) answers, and what the
    master's per-position store is made of: row ``i`` is the
    :meth:`PricingResult.as_dict` of position ``ids[i]``, field by field --
    ``price`` / ``delta`` / ``std_error`` / ``ci_low`` / ``ci_high`` /
    ``elapsed`` (float64, carried bit for bit), ``n_evaluations`` (int64) and
    ``method`` (an index into ``method_names``).  A
    position that failed has no row: it sits in the sparse ``errors``
    ``{id: message}`` side-table.

    An optional field that is ``None`` in the result (``delta`` of a
    Monte-Carlo price, ``std_error`` of a PDE) is stored as NaN and reads
    back as ``None``.  That encoding is lossless for ``price`` because
    :meth:`PricingMethod.price` refuses to return a non-finite price, and a
    NaN ``delta`` or ``std_error`` says exactly what ``None`` says.

    The record is a read-only ``Mapping[int, dict]``: ``record[id]``
    materialises the row's result dictionary (``{"error": message}`` for a
    failed position) on access and stores nothing.
    """

    __slots__ = (*_COLUMN_DTYPES, "method_names", "errors", "_index")

    ids: np.ndarray
    price: np.ndarray
    delta: np.ndarray
    std_error: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    elapsed: np.ndarray
    n_evaluations: np.ndarray
    method: np.ndarray

    def __init__(
        self,
        columns: "Mapping[str, Any]",
        method_names: Sequence[str] = (),
        errors: "Mapping[int, str] | None" = None,
    ) -> None:
        """Check and adopt ``columns``; a record of the wrong shape raises
        :class:`~repro.errors.SerializationError` naming the field.

        Every reply a master receives comes through here, so each column is
        checked with one test, and the method indices with one reduction."""
        ids = columns.get("ids")
        n_rows = len(ids) if isinstance(ids, np.ndarray) and ids.ndim == 1 else -1
        for name, dtype in _COLUMN_DTYPES.items():
            column = columns.get(name)
            if not (isinstance(column, np.ndarray) and column.dtype == dtype
                    and column.ndim == 1 and len(column) == n_rows):
                raise _malformed(name, column, dtype, n_rows)
            setattr(self, name, column)
        if not isinstance(method_names, (list, tuple)) or not all(
            map(isinstance, method_names, repeat(str))
        ):
            raise SerializationError(
                "ResultColumns record: 'method_names' must be a list of strings"
            )
        self.method_names = list(method_names)
        # read as unsigned, a negative index is past every name
        if n_rows and not _max(self.method.view(_UNSIGNED)) < len(self.method_names):
            raise SerializationError(
                "ResultColumns record: 'method' must index 'method_names'"
            )
        self.errors: dict[int, str] = dict(errors or {})
        self._index: dict[int, int] | None = None

    @classmethod
    def from_results(
        cls,
        ids: Sequence[int],
        results: "Sequence[PricingResult]",
        errors: "Mapping[int, str] | None" = None,
    ) -> "ResultColumns":
        """One pass over ``results``: ``ids[i]`` was answered by ``results[i]``."""
        names: dict[str, int] = {}
        floats, counts, methods = [], [], []
        for result in results:
            ci = result.confidence_interval
            floats.append((
                result.price,
                _NAN if result.delta is None else result.delta,
                _NAN if result.std_error is None else result.std_error,
                _NAN if ci is None else ci[0],
                _NAN if ci is None else ci[1],
                result.elapsed,
            ))
            counts.append(result.n_evaluations)
            methods.append(names.setdefault(result.method_name, len(names)))
        block = np.array(floats, dtype=np.float64).reshape(len(floats), len(FLOAT_COLUMNS))
        columns: dict[str, np.ndarray] = {
            name: np.ascontiguousarray(block[:, number])
            for number, name in enumerate(FLOAT_COLUMNS)
        }
        columns["ids"] = np.array(ids, dtype=np.int64).reshape(-1)
        columns["n_evaluations"] = np.array(counts, dtype=np.int64)
        columns["method"] = np.array(methods, dtype=np.int64)
        return cls(columns, list(names), errors)

    # -- the mapping view ------------------------------------------------------
    def row(self, number: int) -> dict[str, Any]:
        """Row ``number`` as the result dictionary :meth:`PricingResult.as_dict` gives."""
        delta, std_error, low = self.delta[number], self.std_error[number], self.ci_low[number]
        return {
            "price": float(self.price[number]),
            "delta": None if delta != delta else float(delta),
            "std_error": None if std_error != std_error else float(std_error),
            "confidence_interval": None
            if low != low
            else [float(low), float(self.ci_high[number])],
            "method_name": self.method_names[self.method[number]],
            "n_evaluations": int(self.n_evaluations[number]),
            "elapsed": float(self.elapsed[number]),
        }

    def __getitem__(self, key: int) -> dict[str, Any]:
        if key in self.errors:
            return {"error": self.errors[key]}
        if self._index is None:
            self._index = {job_id: number for number, job_id in enumerate(self.ids.tolist())}
        return self.row(self._index[key])

    def __iter__(self) -> Iterator[int]:
        yield from self.ids.tolist()
        yield from self.errors

    def __len__(self) -> int:
        return len(self.ids) + len(self.errors)

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """The record as the codec writes it: the columns as they are, the
        error table under string keys."""
        view: dict[str, Any] = {name: getattr(self, name) for name in _COLUMN_DTYPES}
        view["method_names"] = self.method_names
        view["errors"] = {str(job_id): message for job_id, message in self.errors.items()}
        return view

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ResultColumns":
        """Rebuild a record; one of the wrong shape raises
        :class:`~repro.errors.SerializationError` naming the field."""
        errors = data.get("errors")
        if not isinstance(errors, dict) or not all(
            map(isinstance, errors.values(), repeat(str))
        ):
            raise SerializationError(
                "ResultColumns record: 'errors' must map ids to messages"
            )
        try:
            by_id = {int(job_id): message for job_id, message in errors.items()}
        except ValueError as exc:
            raise SerializationError(
                f"ResultColumns record: 'errors' key is not an id: {exc}"
            ) from exc
        return cls(data, data.get("method_names"), by_id)

    def __reduce__(self) -> tuple[Any, tuple[Any]]:
        # pickled through the same checked door as the codec uses
        return type(self).from_dict, (self.to_dict(),)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"ResultColumns({len(self.ids)} rows, {len(self.errors)} errors)"


class PricingMethod(metaclass=FiniteParams):
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

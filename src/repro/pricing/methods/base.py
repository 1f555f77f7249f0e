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
import struct
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

__all__ = ["PricingResult", "ResultColumns", "FLOAT_COLUMNS", "INT_COLUMNS", "PricingMethod"]


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

#: the rows of a :class:`ResultColumns`'s float64 block; all but ``price`` and
#: ``elapsed`` are optional fields, absent (``None``) where they hold NaN
FLOAT_COLUMNS = ("price", "delta", "std_error", "ci_low", "ci_high", "elapsed")
#: the rows of its int64 block
INT_COLUMNS = ("ids", "n_evaluations", "method")
#: every column with its dtype, in the order the constructor checks them
_COLUMN_DTYPES: dict[str, np.dtype] = {**dict.fromkeys(INT_COLUMNS, np.dtype(np.int64)),
                                       **dict.fromkeys(FLOAT_COLUMNS, np.dtype(np.float64))}
#: the byte layout, all little-endian: a header of four counts (rows, method
#: names, error entries, bytes of text), the float block, the int block, then
#: the text -- a u32 length in characters per string, then the UTF-8 of the
#: method names and of each error's id and message, one after the other
_HEAD = struct.Struct("<4Q")
_FLOATS, _INTS = np.dtype("<f8"), np.dtype("<i8")


def _malformed(name: str, column: Any, dtype: np.dtype, n_rows: int) -> SerializationError:
    """What is wrong with ``column``, which failed :class:`ResultColumns`'s check."""
    if not isinstance(column, np.ndarray) or column.dtype != dtype or column.ndim != 1:
        return _refused(f"'{name}' must be a 1-d {dtype.name} array")
    return _refused(f"'{name}' has {len(column)} rows for {n_rows} ids")


def _refused(problem: str) -> SerializationError:
    return SerializationError(f"ResultColumns record: {problem}")


def _check_methods(method: np.ndarray, n_names: int) -> None:
    # one unsigned max over a contiguous row, in C: -1 reads as 2**64 - 1
    if len(method) and not max(memoryview(method).cast("B").cast("Q")) < n_names:
        raise _refused("'method' must index 'method_names'")


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

    The columns are the rows of two blocks, ``floats`` (6 x n) and ``ints``
    (3 x n); the record travels as one byte string, :meth:`to_bytes`, read
    back as views of it by :meth:`from_bytes`, the one reader.

    An optional field that is ``None`` in the result (``delta`` of a
    Monte-Carlo price, ``std_error`` of a PDE) is stored as NaN and reads
    back as ``None``.  That encoding is lossless for ``price`` because
    :meth:`PricingMethod.price` refuses to return a non-finite price, and a
    NaN ``delta`` or ``std_error`` says exactly what ``None`` says.

    The record is a read-only ``Mapping[int, dict]``: ``record[id]``
    materialises the row's result dictionary (``{"error": message}`` for a
    failed position) on access and stores nothing.
    """

    __slots__ = ("floats", "ints", *_COLUMN_DTYPES, "method_names", "errors", "_index")

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
        """Check ``columns`` and copy them into the blocks; a record of the wrong
        shape raises :class:`~repro.errors.SerializationError` naming the field."""
        ids = columns.get("ids")
        n_rows = len(ids) if isinstance(ids, np.ndarray) and ids.ndim == 1 else -1
        for name, dtype in _COLUMN_DTYPES.items():
            column = columns.get(name)
            if not (isinstance(column, np.ndarray) and column.dtype == dtype
                    and column.ndim == 1 and len(column) == n_rows):
                raise _malformed(name, column, dtype, n_rows)
        if not (isinstance(method_names, (list, tuple))
                and all(map(isinstance, method_names, repeat(str)))):
            raise _refused("'method_names' must be a list of strings")
        ints = np.array([columns[name] for name in INT_COLUMNS])
        _check_methods(ints[2], len(method_names))
        self._hold(np.array([columns[name] for name in FLOAT_COLUMNS]), ints,
                   list(method_names), dict(errors or {}))

    def _hold(self, floats: np.ndarray, ints: np.ndarray, method_names: list[str],
              errors: dict[int, str]) -> "ResultColumns":
        """Adopt the two blocks and name their rows."""
        self.floats, self.ints = floats, ints
        self.price, self.delta, self.std_error = floats[0], floats[1], floats[2]
        self.ci_low, self.ci_high, self.elapsed = floats[3], floats[4], floats[5]
        self.ids, self.n_evaluations, self.method = ints[0], ints[1], ints[2]
        self.method_names, self.errors = method_names, errors
        self._index: dict[int, int] | None = None
        return self

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
        return cls.__new__(cls)._hold(
            np.array(floats, dtype=np.float64).reshape(-1, len(FLOAT_COLUMNS)).T.copy(),
            np.array([list(ids), counts, methods], dtype=np.int64), list(names),
            dict(errors or {}))

    # -- the byte layout ----------------------------------------------------------
    def to_bytes(self) -> bytes:
        """The record as it travels: the header, the two blocks and the text."""
        strings = [*self.method_names]
        for job_id, message in self.errors.items():
            strings += (str(job_id), message)
        # a lone surrogate (an exception text can hold one) travels escaped: UTF-8 has none
        strings = [string.encode(errors="backslashreplace").decode() for string in strings]
        text = struct.pack(f"<{len(strings)}I", *map(len, strings)) + "".join(strings).encode()
        return b"".join((
            _HEAD.pack(len(self.ids), len(self.method_names), len(self.errors), len(text)),
            self.floats.astype(_FLOATS, copy=False).tobytes(),
            self.ints.astype(_INTS, copy=False).tobytes(),
            text,
        ))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ResultColumns":
        """Read what :meth:`to_bytes` wrote, as views of ``data``; other bytes
        raise :class:`~repro.errors.SerializationError` naming the field."""
        if type(data) is not bytes:
            raise _refused(f"must be bytes, not {type(data).__name__}")
        if len(data) < _HEAD.size:
            raise _refused(f"truncated header ({len(data)} of {_HEAD.size} bytes)")
        n_rows, n_names, n_errors, n_text = _HEAD.unpack_from(data)
        pos = _HEAD.size + 72 * n_rows  # 8 bytes a column of a row
        if len(data) != pos + n_text:
            raise _refused(f"{len(data)} bytes, not the {pos + n_text} its header counts "
                           f"({n_rows} rows, {n_text} bytes of text)")
        count = n_names + 2 * n_errors
        if 4 * count > n_text:
            raise _refused(f"{n_names} 'method_names' and {n_errors} 'errors' overflow "
                           f"{n_text} bytes of text")
        lengths = struct.unpack_from(f"<{count}I", data, pos)
        try:
            text = data[pos + 4 * count:].decode()
        except UnicodeDecodeError as exc:
            raise _refused(f"'method_names' and 'errors' are not UTF-8: {exc}") from None
        at = 0  # each string a slice of the one text: no call a string
        strings = [text[at:(at := at + length)] for length in lengths]
        if at != len(text):
            raise _refused(f"'method_names' and 'errors' are {at} characters long, "
                           f"not the {len(text)} of the text")
        errors: dict[int, str] = {}
        if n_errors:
            keys = strings[n_names::2]
            try:
                errors = dict(zip(map(int, keys), strings[n_names + 1::2]))
            except ValueError as exc:
                raise _refused(f"'errors' key is not an id: {exc}") from exc
            if list(map(str, errors)) != keys:  # "08", "+8", an id twice: not as written
                raise _refused(f"'errors' keys {keys} are not distinct ids as written")
        floats = np.frombuffer(data, _FLOATS, len(FLOAT_COLUMNS) * n_rows,
                               _HEAD.size).reshape(len(FLOAT_COLUMNS), n_rows)
        ints = np.frombuffer(data, _INTS, len(INT_COLUMNS) * n_rows,
                             _HEAD.size + floats.nbytes).reshape(len(INT_COLUMNS), n_rows)
        if not _FLOATS.isnative:  # a big-endian host
            floats, ints = floats.astype(np.float64), ints.astype(np.int64)
        _check_methods(ints[2], n_names)
        return cls.__new__(cls)._hold(floats, ints, strings[:n_names], errors)

    def __reduce__(self) -> tuple[Any, tuple[Any]]:
        # pickled through the same checked door as the codec uses
        return type(self).from_bytes, (self.to_bytes(),)

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

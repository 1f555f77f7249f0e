"""The columnar book: many pricing problems as one wire record.

Every payload with members -- a :class:`~repro.pricing.batch.ProblemBatch`,
a :class:`~repro.pricing.scenarios.ScenarioGrid`'s base book, and so every
book slice of a plain run on worker processes -- carries its problems as a
*book*, written by :func:`write_book` and read by :func:`read_book`.  The
paper's master sends "a single large message" so that it does not rebuild
or re-serialise on each dispatch; a book is that message with its
positions turned into parameter columns, so the writer touches each value
once and the XDR encoder writes a column of floats as one array::

    {"labels": [label, ...],                # one per position, as the problem holds it
     "assets": int64[positions],            # each position's number in ASSET_CLASSES
     "model":  leg, "method": leg, "option": leg}

    leg = {"tables": [{"name": str,         # a registered class (or alias) name
                       "rows": int,
                       "params": {parameter: column}}, ...],
           "index":  int64[positions]}      # each position's row of the leg

A leg's rows are its tables' rows, in table order; a table holds the rows of
one class name and one parameter list.  A column is ``f8`` when every value
is a Python or NumPy float, ``i8`` when every value is an ``int``, and a
plain list otherwise (basket weights, correlation matrices).  Option rows
are one per position; model and method rows are the *distinct* headers,
merged only when their written bytes would be equal -- ``-0.0`` is not
``0.0``, ``1`` is not ``1.0``, and arrays are compared in full -- so a
position reads back exactly the parameters it was written with.  A
:class:`~repro.pricing.batch.ProblemBatch`, priced with its first member's
model and method, writes that leader's headers for every position.

The reader rebuilds one :class:`~repro.pricing.models.base.Model` and one
:class:`~repro.pricing.methods.base.PricingMethod` per header (their digests
and signatures are computed once per header on the worker), keeps every
constructor check, and turns a malformed column into a
:class:`~repro.errors.SerializationError` naming the field.
"""

from __future__ import annotations

import copy
import struct
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.errors import SerializationError
from repro.pricing.engine import ASSET_CLASSES, PricingProblem

__all__ = ["write_book", "read_book"]

LEGS = ("model", "method", "option")
#: an asset class as the book writes it: its number in ``ASSET_CLASSES``
_ASSET_NUMBER = {name: number for number, name in enumerate(ASSET_CLASSES)}
_FLOATS = frozenset({float, np.float64})
_pack_f64 = struct.Struct(">d").pack
#: ``struct.Struct(">{width}d").pack`` by width, made as a width is first met
_PACK_FLOATS: dict[int, Any] = {}


def _column(values: list[Any]) -> Any:
    """``values`` as the column the book writes: ``f8``, ``i8`` or a list."""
    kinds = set(map(type, values))
    if kinds <= _FLOATS:
        return np.array(values, dtype=np.float64)
    if kinds == {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:  # past 64 bits: the codec refuses it in the list
            pass
    return values


def _pack_floats(width: int) -> Any:
    """The packer of ``width`` big-endian doubles, made once per width."""
    pack = _PACK_FLOATS.get(width)
    if pack is None:
        pack = _PACK_FLOATS[width] = struct.Struct(f">{width}d").pack
    return pack


def _header_key(name: Any, params: dict[str, Any], encoded: dict[int, bytes]) -> Any:
    """Equal for two headers only if their written bytes would be equal: no
    parameters as the name alone, all floats as their packed bytes, else each
    value's encoding.  ``encoded`` holds the encoding of each value object but
    a float for the write (every value is held by its problem until the write
    ends, so an id is not reused): a correlation matrix shared by a whole book
    is encoded once."""
    if not params:
        return (name, ())
    if _FLOATS.issuperset(map(type, params.values())):
        return (name, tuple(params), _pack_floats(len(params))(*params.values()))
    key = []
    for value in params.values():
        if type(value) in _FLOATS:
            key.append(b"D" + _pack_f64(value))  # the codec's float
            continue
        held = encoded.get(id(value))
        if held is None:
            from repro.serial import xdr  # lazily: repro.serial imports the payloads

            held = encoded[id(value)] = xdr.encode(value)
        key.append(held)
    return (name, tuple(params), tuple(key))


def _write_leg(
    entries: Sequence[tuple[Any, dict[str, Any]]], encoded: dict[int, bytes] | None
) -> dict[str, Any]:
    """One leg of a book from each position's ``(name, params)``.

    With the write's value encodings (model, method) each distinct header is
    written once; the option leg (``None``) writes a row per position.
    """
    #: (name, *parameter names) -> (table number, its rows' parameters)
    tables: dict[tuple[Any, ...], tuple[int, list[dict[str, Any]]]] = {}
    #: the table of each row, rows numbered as they are met
    row_table: list[int] = []
    #: header key -> its row, and the same for a header's value objects:
    #: the same objects are the same bytes, so their key is made once
    header_rows: dict[Any, int] = {}
    held_rows: dict[tuple[Any, ...], int] = {}
    at_row: list[int] = []  # each position's row (header legs only)
    for name, params in entries:
        if encoded is not None:
            held = (name, *params, *map(id, params.values()))
            row = held_rows.get(held)
            if row is None:
                key = _header_key(name, params, encoded)
                row = held_rows[held] = header_rows.setdefault(key, len(row_table))
            at_row.append(row)
            if row < len(row_table):  # a header met before
                continue
        table = tables.get((name, *params))
        if table is None:
            table = tables[(name, *params)] = (len(tables), [])
        row_table.append(table[0])
        table[1].append(params)
    # a leg's rows are its tables' rows in table order, each table's rows in
    # the order they were met: the rank of a row in a stable sort by table
    index = np.arange(len(row_table), dtype=np.int64)
    if len(tables) > 1:
        index[np.argsort(row_table, kind="stable")] = index.copy()
    return {
        "tables": [
            {"name": name, "rows": len(rows),
             "params": {key: _column(list(map(itemgetter(key), rows))) for key in names}}
            for (name, *names), (_, rows) in tables.items()
        ],
        "index": index if encoded is None else index[at_row],
    }


def write_book(
    problems: Sequence[PricingProblem],
    headers: Sequence[tuple[Any, dict[str, Any]]] | None = None,
) -> dict[str, Any]:
    """``problems`` as the book the codec writes (see the module docstring).

    ``headers``, the ``(name, params)`` of a model and a method leg as
    :meth:`~repro.pricing.engine.PricingProblem.wire_legs` gives them, are
    written for every position in place of its own: a family priced with its
    leader's model and method (:class:`~repro.pricing.batch.ProblemBatch`)
    carries one row of each.
    """
    legs: list[Sequence[tuple[Any, dict[str, Any]]]] = list(
        zip(*(problem.wire_legs() for problem in problems)))
    if headers is not None:
        legs[:2] = ([header] * len(problems) for header in headers)
    encoded: dict[int, bytes] = {}
    return {
        "labels": [problem.label for problem in problems],
        "assets": np.array([_ASSET_NUMBER[problem.asset] for problem in problems],
                           dtype=np.int64),
        **{leg: _write_leg(entries, None if leg == "option" else encoded)
           for leg, entries in zip(LEGS, legs)},
    }


# -- reading -----------------------------------------------------------------------


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_column(column: Any, rows: int, field: str) -> list[Any]:
    """A parameter column as its ``rows`` values."""
    if isinstance(column, np.ndarray) and column.ndim == 1 and column.dtype.kind in "fi":
        column = column.tolist()
    elif not isinstance(column, list):
        raise SerializationError(f"{field} must be a 1-d f8 or i8 column or a list")
    if len(column) != rows:
        raise SerializationError(f"{field} has {len(column)} values for {rows} rows")
    return column


def _read_leg(
    entry: Any, field: str, n: int, payload: str
) -> tuple[list[tuple[str, dict[str, Any]]], list[int]]:
    """The ``(name, params)`` rows of the leg at ``field`` and each of the
    ``n`` positions' row numbers."""
    if not isinstance(entry, dict) or not isinstance(entry.get("tables"), list):
        raise SerializationError(f"{payload} payload: '{field}' must hold a 'tables' list")
    rows: list[tuple[str, dict[str, Any]]] = []
    for number, table in enumerate(entry["tables"]):
        at = f"{field}.tables[{number}]"
        if not isinstance(table, dict) or not isinstance(table.get("name"), str):
            raise SerializationError(f"{payload} payload: '{at}' must be a table with a name")
        size, params = table.get("rows"), table.get("params")
        if not _is_count(size) or len(rows) + size > n:
            raise SerializationError(
                f"{payload} payload: '{at}.rows' must be a count; a leg has at most "
                "one row per position")
        if not isinstance(params, dict):
            raise SerializationError(f"{payload} payload: '{at}.params' must map names to columns")
        columns = [_read_column(column, size, f"{payload} payload: '{at}.params.{key}'")
                   for key, column in params.items()]
        keys = list(params)
        values = zip(*columns) if keys else [()] * size
        rows.extend((table["name"], dict(zip(keys, row))) for row in values)
    index = entry.get("index")
    if not (isinstance(index, np.ndarray) and index.dtype == np.int64 and index.shape == (n,)):
        raise SerializationError(
            f"{payload} payload: '{field}.index' must be an int64 column, one row per position")
    if not (0 <= index.min() and index.max() < len(rows)):
        raise SerializationError(
            f"{payload} payload: '{field}.index' must name rows of '{field}.tables'")
    return rows, index.tolist()


def read_book(view: Any, payload: str) -> list[PricingProblem]:
    """Rebuild the problems of :func:`write_book` read off a ``payload`` body.

    Positions naming one model (method) row share one :class:`Model`
    (:class:`PricingMethod`) object; each builds its own product.
    """
    if not isinstance(view, dict):
        raise SerializationError(f"{payload} payload: 'book' must hold a dict")
    labels, assets = view.get("labels"), view.get("assets")
    if not isinstance(labels, list) or not labels:
        raise SerializationError(
            f"{payload} payload: 'book.labels' must list one label per position")
    n = len(labels)
    if not (isinstance(assets, np.ndarray) and assets.dtype == np.int64 and assets.shape == (n,)
            and 0 <= assets.min() and assets.max() < len(ASSET_CLASSES)):
        raise SerializationError(
            f"{payload} payload: 'book.assets' must number one of {ASSET_CLASSES} per position")
    (models, model_of), (methods, method_of), (options, option_of) = (
        _read_leg(view.get(leg), f"book.{leg}", n, payload) for leg in LEGS
    )
    headers: dict[tuple[str, int], PricingProblem] = {}

    def header(leg: str, rows: list[tuple[str, dict[str, Any]]], row: int) -> PricingProblem:
        if (leg, row) not in headers:
            name, params = rows[row]
            headers[(leg, row)] = holder = PricingProblem()
            holder.set_leg_from_wire(
                leg, {"name": name, "params": params}, f"{payload} payload: book.{leg}[{row}]: ")
        return headers[(leg, row)]

    shared: dict[tuple[int, int], PricingProblem] = {}
    problems = []
    asset_of = [ASSET_CLASSES[number] for number in assets.tolist()]
    for label, asset, pair, option in zip(labels, asset_of, zip(model_of, method_of), option_of):
        base = shared.get(pair)
        if base is None:
            base = shared[pair] = PricingProblem()
            base.share_leg("model", header("model", models, pair[0]))
            base.share_leg("method", header("method", methods, pair[1]))
        problem = copy.copy(base)
        problem.label, problem.asset = label, asset
        name, params = options[option]
        problem.set_leg_from_wire("option", {"name": name, "params": params},
                                  f"{payload} payload: book.option[{option}]: ")
        problems.append(problem)
    return problems

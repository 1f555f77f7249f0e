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
plain list otherwise (basket weights, correlation matrices), decided over
the rows a table writes.  Option rows are one per position; model and method
rows are the *distinct* headers, two rows of a table merged exactly when
their written bytes would be equal -- ``-0.0`` is not ``0.0``, ``1`` is not
``1.0``, and arrays are compared in full -- so a position reads back exactly
the parameters it was written with.  The writer works a column at a time
(:func:`_write_leg`): no Python call and no key is made per position.  A
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
from itertools import repeat
from operator import is_, itemgetter
from typing import Any, Sequence

import numpy as np

from repro.errors import SerializationError
from repro.pricing.engine import ASSET_CLASSES, PricingProblem

__all__ = ["write_book", "read_book"]

LEGS = ("model", "method", "option")
#: an asset class as the book writes it: its number in ``ASSET_CLASSES``
_ASSET_NUMBER = {name: number for number, name in enumerate(ASSET_CLASSES)}
_FLOATS = frozenset({float, np.float64})


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


def _encoding_numbers(values: list[Any], encoded: dict[int, bytes]) -> list[int]:
    """Each value's number among the distinct encodings of its column.
    ``encoded`` holds the encoding of each value object for the write (every
    value is held by its problem until the write ends, so an id is not
    reused): a correlation matrix shared by a whole book is encoded once."""
    from repro.serial import xdr  # lazily: repro.serial imports the payloads

    numbers: dict[bytes, int] = {}
    out = []
    for value in values:
        held = encoded.get(id(value))
        if held is None:
            held = encoded[id(value)] = xdr.encode(value)
        out.append(numbers.setdefault(held, len(numbers)))
    return out


#: the dtype that reads a row of ``width`` 64-bit codes as one byte string
_ROW_KEYS: dict[int, np.dtype] = {}


def _distinct(
    columns: list[list[Any]], n: int, encoded: dict[int, bytes]
) -> tuple[np.ndarray, list[int]]:
    """Number the ``n`` rows of a table's parameter ``columns`` by their
    written bytes: each row's number among the distinct rows, numbered as
    first met, and the first row of each distinct one.

    A row's key is one byte string of a 64-bit code per value, equal for two
    values only if their written bytes are: a float's bits (``-0.0`` is not
    ``0.0``), an ``int`` itself, anything else the number of its encoding
    (:func:`_encoding_numbers`).  A table of no parameters, of one row or of
    rows all equal to the first -- first checked by identity, as a book's
    builders share value objects -- is one row.
    """
    if n == 1 or not columns or all(
            all(map(is_, column, repeat(column[0]))) for column in columns):
        return np.zeros(n, dtype=np.int64), [0]
    codes = np.empty((n, len(columns)), dtype=np.int64)
    bits = codes.view(np.float64)
    for number, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds <= _FLOATS:
            bits[:, number] = column
            continue
        if kinds == {int}:
            try:
                codes[:, number] = column
                continue
            except OverflowError:  # past 64 bits: compared by encoding, refused by the codec
                pass
        codes[:, number] = _encoding_numbers(column, encoded)
    if (codes == codes[0]).all():
        return np.zeros(n, dtype=np.int64), [0]
    width = 8 * len(columns)
    row_key = _ROW_KEYS.get(width)
    if row_key is None:
        row_key = _ROW_KEYS[width] = np.dtype((np.void, width))
    keys = codes.view(row_key).ravel().tolist()
    # the last write of a key is its first row: the rows are walked backwards
    firsts = sorted(dict(zip(reversed(keys), range(n - 1, -1, -1))).values())
    number = dict(zip(map(keys.__getitem__, firsts), range(len(firsts))))
    return np.fromiter(map(number.__getitem__, keys), dtype=np.int64, count=n), firsts


def _tables(
    names: list[Any], params: list[dict[str, Any]]
) -> tuple[list[tuple[Any, tuple[str, ...]]], list[np.ndarray | None]]:
    """A leg's tables, ``(name, parameter names)`` in the order they are met,
    and the positions of each, in order (``None``: every position).

    Where the leg has one parameter list -- every header of a class written
    with the same names in the same order, as a book's builders write them --
    a table is a name: the list is checked a parameter at a time, with no key
    made per position.
    """
    n = len(names)
    keys = tuple(params[0])
    if len(set(map(len, params))) == 1 and all(
        at.count(key) == n for at, key in zip(zip(*params), keys)
    ):
        shapes: list[Any] = names
        tables = {name: (name, keys) for name in dict.fromkeys(names)}
    else:
        shapes = list(zip(names, map(tuple, params)))
        tables = {shape: shape for shape in dict.fromkeys(shapes)}
    if len(tables) == 1:
        return list(tables.values()), [None]
    number = dict(zip(tables, range(len(tables))))
    table_of = np.fromiter(map(number.__getitem__, shapes), dtype=np.int64, count=n)
    order = np.argsort(table_of, kind="stable")  # by table, each in position order
    groups: list[np.ndarray | None] = []
    start = 0
    for count in np.bincount(table_of).tolist():
        groups.append(order[start:start + count])
        start += count
    return list(tables.values()), groups


def _write_leg(
    names: list[Any], params: list[dict[str, Any]], encoded: dict[int, bytes] | None
) -> dict[str, Any]:
    """One leg of a book from each position's ``names`` and ``params``.

    A table holds the positions of one name and one parameter list
    (:func:`_tables`).  With the write's value encodings (model, method) a
    table writes each distinct header once; the option leg (``None``) writes
    a row per position.  The work is done column by column -- a column per
    parameter of a table, each checked and coded in one pass -- with no
    Python call and no key made per position.
    """
    n = len(names)
    index = np.empty(n, dtype=np.int64)
    if not n:
        return {"tables": [], "index": index}
    written: list[dict[str, Any]] = []
    offset = 0
    for (name, keys), positions in zip(*_tables(names, params)):
        count = n if positions is None else len(positions)
        at = slice(None) if positions is None else positions
        rows = params if positions is None or not keys else list(
            map(params.__getitem__, positions.tolist()))
        columns = [list(map(itemgetter(key), rows)) for key in keys]
        if encoded is None:  # a row per position, in position order
            index[at] = np.arange(offset, offset + count)
        else:
            local, firsts = _distinct(columns, count, encoded)
            index[at] = local + offset
            columns = [list(map(column.__getitem__, firsts)) for column in columns]
            count = len(firsts)
        written.append({"name": name, "rows": count,
                        "params": {key: _column(column) for key, column in zip(keys, columns)}})
        offset += count
    return {"tables": written, "index": index}


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
    labels, assets, *legs = PricingProblem.wire_columns(problems)
    if headers is not None:
        for number, (name, params) in enumerate(headers):
            legs[2 * number:2 * number + 2] = [name] * len(problems), [params] * len(problems)
    encoded: dict[int, bytes] = {}
    return {
        "labels": labels,
        "assets": np.array(list(map(_ASSET_NUMBER.__getitem__, assets)), dtype=np.int64),
        **{leg: _write_leg(legs[2 * number], legs[2 * number + 1],
                           None if leg == "option" else encoded)
           for number, leg in enumerate(LEGS)},
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

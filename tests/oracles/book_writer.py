"""The position-by-position book writer that :mod:`repro.pricing.book` replaced.

It walks the positions one at a time: a ``wire_legs()`` call per problem, a
key tuple per position and header, a header keyed by its packed floats or
its values' encodings.  It is kept, unchanged but for its imports, as the
reference the column-at-a-time writer is tested against: on any book of
problems built by name the two write the same bytes.  (Where one table's
column mixes a float with a NumPy float of another width, or an ``int`` with
a NumPy integer, whose encodings coincide, this writer keeps the two rows
apart and the production writer merges them; no builder writes such a
column, and the generated books here do not.)
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.pricing.engine import ASSET_CLASSES, PricingProblem

__all__ = ["write_book"]

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



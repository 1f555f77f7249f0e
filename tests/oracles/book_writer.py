"""The position-by-position book writer that :mod:`repro.pricing.book` replaced,
and the book's byte layout written and read a second way.

:func:`write_book` walks the positions one at a time: a ``wire_legs()`` call
per problem, a key tuple per position and header, a header keyed by its
packed floats or its values' encodings.  It writes the book as the
dictionary of columns that travelled before the byte layout (wire protocol
v12 and v13)::

    {"labels": [label, ...], "assets": int64[n],
     "model": leg, "method": leg, "option": leg}
    leg = {"tables": [{"name": str, "rows": int, "params": {name: column}}, ...],
           "index": int64[n]}

It is kept, unchanged but for its imports, as the reference the
column-at-a-time writer is tested against: on any book of problems built by
name, :func:`pack` of its dictionary is the bytes the production writer
writes.  (Where one table's column holds a NumPy float of another width
than ``float64`` or a NumPy integer, this writer lists the column and keeps
apart rows whose encodings coincide, while the production writer writes the
column as the ``f8`` or ``i8`` block the reader reads back and merges those
rows; the generated books here hold no such column, and
``tests/serial/test_hostile_bytes.py`` reads them back.)

:func:`pack` writes such a dictionary as the layout's bytes whatever it
holds -- a column shorter than its rows, an index naming no row -- so a test
can hand the one reader, :func:`repro.pricing.book.read_book`, a malformed
book; :func:`unpack` reads the bytes back as the dictionary, checking
nothing, so a test can look at what was written.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Any, Sequence

import numpy as np

from repro.pricing.engine import ASSET_CLASSES, PricingProblem

__all__ = ["write_book", "pack", "unpack"]

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


#: the layout's header (see :mod:`repro.pricing.book`): positions, the tables
#: of each leg, columns, f8 values, i8 values, bytes of text, bytes listed
_HEAD = struct.Struct("<9Q")


def pack(book: dict[str, Any]) -> bytes:
    """The bytes of the layout for the dictionary ``book``, as it is."""
    from repro.serial import xdr

    labels = list(book["labels"])
    directory, kinds, strings, floats, ints, listed = [], [], [], [], [], []
    tables = []
    for leg in LEGS:
        tables.append(len(book[leg]["tables"]))
        for table in book[leg]["tables"]:
            directory += [table["rows"], len(table["params"])]
            strings += [table["name"], *table["params"]]
            for column in table["params"].values():
                if isinstance(column, np.ndarray) and column.dtype == np.float64:
                    kinds.append(0)
                    floats += column.tolist()
                elif isinstance(column, np.ndarray) and column.dtype == np.int64:
                    kinds.append(1)
                    ints += column.tolist()
                else:
                    kinds.append(2)
                    listed.append(list(column))
    written = [label for label in labels if isinstance(label, str)]
    if len(written) < len(labels):
        listed.append([label for label in labels if not isinstance(label, str)])
    lengths = [len(label) if isinstance(label, str) else -1 for label in labels]
    text = "".join(written + strings).encode()
    other = xdr.encode(listed) if listed else b""
    block = [*np.asarray(book["assets"]).tolist()]
    for leg in LEGS:
        block += np.asarray(book[leg]["index"]).tolist()
    block += directory + kinds + lengths + [len(string) for string in strings] + ints
    return b"".join((
        _HEAD.pack(len(labels), *tables, len(kinds), len(floats), len(ints), len(text),
                   len(other)),
        struct.pack(f"<{len(block)}q", *block),
        struct.pack(f"<{len(floats)}d", *floats),
        text,
        other,
    ))


def unpack(data: bytes) -> dict[str, Any]:
    """The dictionary of the bytes ``data``, read as the layout says and
    checked for nothing."""
    from repro.serial import xdr

    n, *tables, n_columns, n_floats, n_ints, n_text, n_listed = _HEAD.unpack_from(data)
    n_tables = sum(tables)
    n_block = 5 * n + 3 * n_tables + 2 * n_columns + n_ints
    block = list(struct.unpack_from(f"<{n_block}q", data, _HEAD.size))
    at = _HEAD.size + 8 * n_block
    floats = list(struct.unpack_from(f"<{n_floats}d", data, at))
    at += 8 * n_floats
    text = data[at:at + n_text].decode()
    listed = xdr.decode(data[at + n_text:]) if n_listed else []
    assets, indexes = block[:n], [block[(1 + leg) * n:(2 + leg) * n] for leg in range(3)]
    directory = block[4 * n:4 * n + 2 * n_tables]
    kinds = block[4 * n + 2 * n_tables:4 * n + 2 * n_tables + n_columns]
    lengths = block[4 * n + 2 * n_tables + n_columns:5 * n + 3 * n_tables + 2 * n_columns]
    ints = block[5 * n + 3 * n_tables + 2 * n_columns:]
    strings, spot = [], 0
    for length in lengths:
        strings.append(None if length < 0 else text[spot:spot + length])
        spot += max(length, 0)
    others = iter(listed.pop() if None in strings[:n] else [])
    book: dict[str, Any] = {
        "labels": [next(others) if label is None else label for label in strings[:n]],
        "assets": np.array(assets, dtype=np.int64),
    }
    names, columns = iter(strings[n:]), iter(listed)
    kind_of, table = iter(kinds), 0
    for number, leg in enumerate(LEGS):
        written = []
        for _ in range(tables[number]):
            rows, width = directory[2 * table], directory[2 * table + 1]
            table += 1
            name, params = next(names), {}
            for key in [next(names) for _ in range(width)]:
                kind = next(kind_of)
                if kind == 0:
                    params[key], floats = np.array(floats[:rows]), floats[rows:]
                elif kind == 1:
                    params[key], ints = np.array(ints[:rows], dtype=np.int64), ints[rows:]
                else:
                    params[key] = next(columns)
            written.append({"name": name, "rows": rows, "params": params})
        book[leg] = {"tables": written, "index": np.array(indexes[number], dtype=np.int64)}
    return book

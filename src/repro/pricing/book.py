"""The book: many pricing problems as one byte layout.

Every payload with members -- a :class:`~repro.pricing.batch.ProblemBatch`,
a :class:`~repro.pricing.scenarios.ScenarioGrid`'s base book, and so every
book slice of a plain run on worker processes -- carries its problems as a
*book*: the bytes :func:`write_book` makes and :func:`read_book`, the one
reader, reads.  The paper's master sends "a single large message" so that it
does not rebuild or re-serialise on each dispatch; a book is that message
with its positions turned into parameter columns, so the writer touches each
value once and a column of floats is one run of bytes.  All of it is
little-endian, the job-side twin of a
:class:`~repro.pricing.methods.base.ResultColumns` reply::

    header     nine u64: positions n; tables of the model, the method and the
               option legs; columns p; f8 values; i8 values; bytes of text;
               bytes of listed columns
    i8 block   assets[n]              each position's number in ASSET_CLASSES
               index[3][n]            each position's row of the model, method
                                      and option leg
               (rows, columns)        of each table, model tables first
               kind[p]                of each column: 0 f8, 1 i8, 2 listed
               length[n + tables + p] in characters, of each string (-1: a
                                      label that is not a string)
               the i8 columns' values
    f8 block   the f8 columns' values
    text       UTF-8: each label, then each table's class name and parameter names
    listed     XDR of the list of listed columns, then of the labels that are
               not strings, if any (no bytes when there is none)

A leg's rows are its tables' rows, in table order; a table holds the rows of
one class name and one parameter list, and its columns are the values of one
parameter each, column after column.  A column is ``f8`` when every value is
a Python or NumPy float, ``i8`` when every value is an ``int`` or a NumPy
integer that fits 64 bits, and *listed* otherwise (a ``bool``, basket
weights, a correlation matrix) -- each value taken as the codec writes it,
so a column reads back as the kind it was written as.  Option rows are one
per position; model and method rows are the *distinct* headers, two rows of
a table merged exactly when their written bytes would be equal -- ``-0.0``
is not ``0.0``, ``1`` is not ``1.0``, and arrays are compared in full -- so
a position reads back exactly the parameters it was written with.  Tables come in the order the positions
first name them, and a table's rows too.  The writer works a column at a
time (:func:`_write_leg`): no Python call and no key is made per position.
A :class:`~repro.pricing.batch.ProblemBatch`, priced with its first
member's model and method, writes that leader's headers for every position.

The reader checks the length against the header first, reads the two blocks
with one ``np.frombuffer`` each and the text with one decode, rebuilds one
:class:`~repro.pricing.models.base.Model` and one
:class:`~repro.pricing.methods.base.PricingMethod` per header (their digests
and signatures are computed once per header on the worker), and keeps every
constructor check.  Bytes it accepts are bytes :func:`write_book` writes:
anything else -- a count that does not add up, an index naming no row or
numbering rows out of order, a header written twice, a listed column the
writer would write as a block -- is a :class:`~repro.errors.SerializationError`
naming the field.
"""

from __future__ import annotations

import copy
import struct
from itertools import repeat
from operator import is_, itemgetter
from typing import Any, Sequence

import numpy as np

from repro.errors import ReproError, SerializationError
from repro.pricing.engine import ASSET_CLASSES, PricingProblem

__all__ = ["write_book", "read_book"]

LEGS = ("model", "method", "option")
#: an asset class as the book writes it: its number in ``ASSET_CLASSES``
_ASSET_NUMBER = {name: number for number, name in enumerate(ASSET_CLASSES)}
_FLOATS = frozenset({float, np.float64})
#: types whose values XDR writes as that type, or as a float for ``np.float64``
_PLAIN = _FLOATS | {int, bool, str, bytes, list, tuple, dict, np.ndarray, type(None)}
#: the header: positions, the tables of each leg, columns, f8 values, i8
#: values, bytes of text, bytes of listed columns
_HEAD = struct.Struct("<9Q")
_I8, _F8 = np.dtype("<i8"), np.dtype("<f8")
#: a column's kind
F8, I8, LISTED = 0, 1, 2
_INT_MIN, _INT_MAX = -(2**63), 2**63 - 1


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
    columns: Sequence[Sequence[Any]], n: int, encoded: dict[int, bytes]
) -> tuple[np.ndarray | None, list[int]]:
    """Number the ``n`` rows of a table's parameter ``columns`` by their
    written bytes: each row's number among the distinct rows, numbered as
    first met (``None``: all rows are one), and the first row of each
    distinct one.

    A row's key is one byte string of a 64-bit code per value, equal for two
    values only if their written bytes are: a float's bits (``-0.0`` is not
    ``0.0``), an ``int`` itself, anything else the number of its encoding
    (:func:`_encoding_numbers`).  A table of no parameters, of one row or of
    rows all equal to the first -- first checked by identity, as a book's
    builders share value objects -- is one row.
    """
    if n == 1 or not columns or all(
            all(map(is_, column, repeat(column[0]))) for column in columns):
        return None, [0]
    codes = np.empty((n, len(columns)), dtype=np.int64)
    bits = codes.view(np.float64)
    for number, column in enumerate(columns):
        kinds = set(map(type, column))
        if not kinds <= _PLAIN:
            kinds = _as_written(kinds)
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
        return None, [0]
    width = 8 * len(columns)
    row_key = _ROW_KEYS.get(width)
    if row_key is None:
        row_key = _ROW_KEYS[width] = np.dtype((np.void, width))
    keys = codes.view(row_key).ravel().tolist()
    # the last write of a key is its first row: the rows are walked backwards
    firsts = sorted(dict(zip(reversed(keys), range(n - 1, -1, -1))).values())
    number = dict(zip(map(keys.__getitem__, firsts), range(len(firsts))))
    return np.fromiter(map(number.__getitem__, keys), dtype=np.int64, count=n), firsts


def _as_written(kinds: set[type]) -> set[type]:
    """The types of ``kinds`` as XDR writes their values: a NumPy number or a
    subclass of ``int`` or ``float`` as the Python number (a ``bool`` stays
    one), so that a column is written as the kind it is read back as."""
    return {int if issubclass(kind, (int, np.integer)) and kind is not bool
            else float if issubclass(kind, (float, np.floating)) else kind
            for kind in kinds}


def _kind(column: list[Any]) -> int:
    """The kind a column is written as: :data:`F8`, :data:`I8` or :data:`LISTED`."""
    kinds = set(map(type, column))
    if not kinds <= _PLAIN:
        kinds = _as_written(kinds)
    if kinds <= _FLOATS:
        return F8
    if kinds == {int} and _INT_MIN <= min(column) and max(column) <= _INT_MAX:
        return I8
    return LISTED


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
            map(n.__eq__, map(tuple.count, zip(*params), keys))):
        shapes: list[Any] = names
        named = dict.fromkeys(names)
        tables = dict(zip(named, zip(named, repeat(keys))))
    else:
        shapes = list(zip(names, map(tuple, params)))
        named = dict.fromkeys(shapes)
        tables = dict(zip(named, named))
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
    names: list[Any], params: list[dict[str, Any]], encoded: dict[int, bytes] | None,
    out: tuple[list[Any], ...], index: np.ndarray,
) -> int:
    """One leg of a book from each position's ``names`` and ``params``: each
    position's row into ``index``, the leg's tables into the write's lists
    ``out`` (the directory, the kinds, the strings and the f8, i8 and listed
    values).  The number of tables.

    A table holds the positions of one name and one parameter list
    (:func:`_tables`).  With the write's value encodings (model, method) a
    table writes each distinct header once; the option leg (``None``) writes
    a row per position.  The work is done column by column -- a column per
    parameter of a table, each checked and coded in one pass -- with no
    Python call and no key made per position.
    """
    directory, kinds, strings, floats, ints, listed = out
    n = len(names)
    if not n:
        return 0
    offset = 0
    tables, groups = _tables(names, params)
    for (name, keys), positions in zip(tables, groups):
        count = n if positions is None else len(positions)
        at = slice(None) if positions is None else positions
        rows = params if positions is None or not keys else list(
            map(params.__getitem__, positions.tolist()))
        columns: list[Sequence[Any]] = (  # a table of one row: its values are its columns
            list(zip(rows[0].values())) if count == 1 and keys
            else [list(map(itemgetter(key), rows)) for key in keys])
        if encoded is None:  # a row per position, in position order
            index[at] = np.arange(offset, offset + count)
        else:
            local, firsts = _distinct(columns, count, encoded)
            if local is not None:
                index[at] = local + offset
            elif offset:  # the index starts zeroed
                index[at] = offset
            if len(firsts) < count:
                columns = [list(map(column.__getitem__, firsts)) for column in columns]
                count = len(firsts)
        directory += (count, len(keys))
        strings += (name, *keys)
        offset += count
        for column in columns:
            kind = _kind(column)
            kinds.append(kind)
            if kind == F8:
                floats += column
            elif kind == I8:
                ints += map(int, column)
            else:
                listed.append(list(column))
    return len(tables)


def write_book(
    problems: Sequence[PricingProblem],
    headers: Sequence[tuple[Any, dict[str, Any]]] | None = None,
) -> bytes:
    """``problems`` as the bytes of a book (see the module docstring).

    ``headers``, the ``(name, params)`` of a model and a method leg as
    :meth:`~repro.pricing.engine.PricingProblem.wire_legs` gives them, are
    written for every position in place of its own: a family priced with its
    leader's model and method (:class:`~repro.pricing.batch.ProblemBatch`)
    carries one row of each.
    """
    labels, assets, *legs = PricingProblem.wire_columns(problems)
    n = len(labels)
    if headers is not None:
        for number, (name, params) in enumerate(headers):
            legs[2 * number:2 * number + 2] = [name] * n, [params] * n
    out: tuple[list[Any], ...] = ([], [], [], [], [], [])
    directory, kinds, strings, floats, ints, listed = out
    block = np.zeros((4, n), dtype=_I8)  # the assets, then each leg's index
    block[0] = list(map(_ASSET_NUMBER.__getitem__, assets))
    encoded: dict[int, bytes] = {}
    tables = [_write_leg(legs[2 * number], legs[2 * number + 1],
                         None if leg == "option" else encoded, out, block[1 + number])
              for number, leg in enumerate(LEGS)]
    try:
        text = "".join(labels + strings)
        lengths = list(map(len, labels))
    except TypeError:  # a label that is not a string: listed, its length -1
        listed.append([label for label in labels if not isinstance(label, str)])
        lengths = [len(label) if isinstance(label, str) else -1 for label in labels]
        text = "".join([label for label in labels if isinstance(label, str)] + strings)
    try:
        raw = text.encode()
    except UnicodeEncodeError as exc:
        raise SerializationError(f"book: a label or a name is not text UTF-8 writes: {exc}") from None
    if listed:
        from repro.serial import xdr  # lazily: repro.serial imports the payloads

        other = xdr.encode(listed)
    else:
        other = b""
    return b"".join((
        _HEAD.pack(n, *tables, len(kinds), len(floats), len(ints), len(raw), len(other)),
        block.tobytes(),
        np.array(directory + kinds + lengths + list(map(len, strings)) + ints, _I8).tobytes(),
        np.array(floats, _F8).tobytes(),
        raw,
        other,
    ))


# -- reading -----------------------------------------------------------------------


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_index(index: np.ndarray, sizes: list[int], book: str, leg: str) -> None:
    """``index`` names every row of the tables of ``sizes`` rows of ``leg``,
    each table's rows and the tables themselves numbered in the order the
    positions first name them -- as :func:`_write_leg` numbers them."""
    total = sum(sizes)
    if not (0 <= index.min() and index.max() < total):
        raise SerializationError(f"{book}.{leg}.index' must name rows of 'book.{leg}.tables'")
    rows, firsts = np.unique(index, return_index=True)
    if len(rows) != total:
        raise SerializationError(
            f"{book}.{leg}.index' must name every row of 'book.{leg}.tables'")
    starts = np.cumsum([0] + sizes[:-1])
    rising = np.diff(firsts) > 0
    rising[starts[1:] - 1] = True  # a table's first row follows any row of the last
    if not (rising.all() and (np.diff(firsts[starts]) > 0).all()):
        raise SerializationError(
            f"{book}.{leg}.index' must number the tables and their rows as the positions "
            "first name them")


def read_book(data: Any, payload: str) -> list[PricingProblem]:
    """Rebuild the problems of the book ``data``, the ``'book'`` of a
    ``payload`` body.

    Positions naming one model (method) row share one :class:`Model`
    (:class:`PricingMethod`) object; each builds its own product.
    """
    book = f"{payload} payload: 'book"
    if type(data) is not bytes:
        raise SerializationError(f"{book}' must be a byte block, not {type(data).__name__}")
    if len(data) < _HEAD.size:
        raise SerializationError(f"{book}' header is cut: {len(data)} of {_HEAD.size} bytes")
    n, *table_counts, n_columns, n_floats, n_ints, n_text, n_listed = _HEAD.unpack_from(data)
    n_tables = sum(table_counts)
    n_fixed = 5 * n + 3 * n_tables + 2 * n_columns
    at = _HEAD.size + 8 * (n_fixed + n_ints)
    size = at + 8 * n_floats + n_text + n_listed
    if not n:
        raise SerializationError(f"{book}.labels' must list one label per position")
    if len(data) != size:
        raise SerializationError(f"{book}' is {len(data)} bytes, not the {size} its header counts")
    ints = np.frombuffer(data, _I8, n_fixed + n_ints, _HEAD.size)
    floats = np.frombuffer(data, _F8, n_floats, at)
    if not _I8.isnative:  # a big-endian host
        ints, floats = ints.astype(np.int64), floats.astype(np.float64)
    assets = ints[:n]
    if not (0 <= assets.min() and assets.max() < len(ASSET_CLASSES)):
        raise SerializationError(
            f"{book}.assets' must number one of {ASSET_CLASSES} per position")
    cut = 4 * n + 2 * n_tables
    directory = ints[4 * n:cut].reshape(n_tables, 2)
    sizes, widths = directory[:, 0], directory[:, 1]
    if n_tables and not (sizes.min() >= 1 and widths.min() >= 0):
        bad = int(np.flatnonzero((sizes < 1) | (widths < 0))[0])
        leg = int(np.searchsorted(np.cumsum(table_counts), bad, side="right"))
        raise SerializationError(
            f"{book}.{LEGS[leg]}.tables[{bad - sum(table_counts[:leg])}]' must count one row "
            "or more and no negative number of columns")
    if widths.sum() != n_columns:
        raise SerializationError(
            f"{book}' tables hold {widths.sum()} columns, not the {n_columns} its header counts")
    kinds = ints[cut:cut + n_columns]
    if n_columns and not (kinds.min() >= F8 and kinds.max() <= LISTED):
        raise SerializationError(f"{book}' column kinds must be 0 (f8), 1 (i8) or 2 (listed)")
    column_rows = np.repeat(sizes, widths)
    for kind, count, name in ((F8, n_floats, "f8"), (I8, n_ints, "i8")):
        held = int(column_rows[kinds == kind].sum())
        if held != count:
            raise SerializationError(
                f"{book}' {name} columns hold {held} values, not the {count} its header counts")
    lengths = ints[cut + n_columns:n_fixed]
    if not (lengths[:n].min() >= -1 and lengths[n:].min(initial=0) >= 0):
        raise SerializationError(
            f"{book}' string lengths must be counts (-1: a label that is not a string)")
    try:
        text = data[at + 8 * n_floats:size - n_listed].decode()
    except UnicodeDecodeError as exc:
        raise SerializationError(f"{book}' text is not UTF-8: {exc}") from None
    spot = 0  # each string a slice of the one text: no call a string
    labels: list[Any] = [None if length < 0 else text[spot:(spot := spot + length)]
                         for length in lengths[:n].tolist()]
    strings = [text[spot:(spot := spot + length)] for length in lengths[n:].tolist()]
    if spot != len(text):
        raise SerializationError(
            f"{book}' strings are {spot} characters long, not the {len(text)} of its text")
    listed: Any = []
    if n_listed:
        from repro.serial import xdr  # lazily: repro.serial imports the payloads

        listed = xdr.decode(data[size - n_listed:])
    unwritten = lengths[:n] < 0  # the labels that are not strings
    if not (isinstance(listed, list) and len(listed) == (kinds == LISTED).sum()
            + bool(unwritten.any())):
        raise SerializationError(
            f"{book}' listed block must hold a list per listed column, then one of the "
            "labels that are not strings")
    if unwritten.any():
        others = listed.pop()
        if not (isinstance(others, list) and len(others) == unwritten.sum()
                and str not in set(map(type, others))):
            raise SerializationError(
                f"{book}.labels' must list each label that is not a string, none that is")
        for number, label in zip(np.flatnonzero(unwritten).tolist(), others):
            labels[number] = label
    values = ints[n_fixed:]
    legs: list[list[tuple[str, dict[str, Any]]]] = []
    table = column = at_float = at_int = at_string = 0
    kinds_of, listed_of = kinds.tolist(), iter(listed)
    for number, leg in enumerate(LEGS):
        field = f"{book}.{leg}"
        rows: list[tuple[str, dict[str, Any]]] = []
        shapes: set[tuple[str, ...]] = set()
        leg_sizes = sizes[table:table + table_counts[number]].tolist()
        for count, width in directory[table:table + table_counts[number]].tolist():
            at_table = f"{field}.tables[{len(shapes)}]"
            if len(rows) + count > n:
                raise SerializationError(
                    f"{at_table}.rows' must be a count; a leg has at most one row per position")
            name, *keys = strings[at_string:at_string + 1 + width]
            at_string += 1 + width
            if len(set(keys)) != width or (name, *keys) in shapes:
                raise SerializationError(
                    f"{at_table}' must not repeat a parameter name, nor another table's class "
                    "and parameter names")
            shapes.add((name, *keys))
            columns = []
            for key, kind in zip(keys, kinds_of[column:column + width]):
                if kind == F8:
                    columns.append(floats[at_float:(at_float := at_float + count)].tolist())
                elif kind == I8:
                    columns.append(values[at_int:(at_int := at_int + count)].tolist())
                else:
                    entry = next(listed_of)
                    if not isinstance(entry, list) or len(entry) != count:
                        held = len(entry) if isinstance(entry, list) else "no"
                        raise SerializationError(
                            f"{at_table}.params.{key}' has {held} listed values for {count} rows")
                    if _kind(entry) != LISTED:
                        raise SerializationError(
                            f"{at_table}.params.{key}' is listed where the writer writes a block")
                    columns.append(entry)
            column += width
            if leg != "option" and count > 1 and len(_distinct(columns, count, {})[1]) < count:
                raise SerializationError(f"{at_table}' holds a header twice")
            rows.extend((name, dict(zip(keys, row)))
                        for row in (zip(*columns) if keys else [()] * count))
        table += table_counts[number]
        if leg == "option" and len(rows) != n:
            raise SerializationError(f"{field}.tables' must hold one row per position")
        if not leg_sizes:
            raise SerializationError(f"{field}.tables' must hold a table")
        _check_index(ints[(1 + number) * n:(2 + number) * n], leg_sizes, book, leg)
        legs.append(rows)
    return _problems(labels, assets.tolist(), legs, ints[n:4 * n].reshape(3, n).tolist(), payload)


def _problems(
    labels: list[str | None], assets: list[int], legs: list[list[tuple[str, dict[str, Any]]]],
    indexes: list[list[int]], payload: str,
) -> list[PricingProblem]:
    """The problems of a read book: its labels, asset numbers, each leg's
    ``(name, params)`` rows and each position's row of each leg."""
    models, methods, options = legs
    headers: dict[tuple[str, int], PricingProblem] = {}

    def build(problem: PricingProblem, leg: str, entry: tuple[str, dict[str, Any]],
              row: int) -> None:
        where = f"{payload} payload: book.{leg}[{row}]: "
        name, params = entry
        try:
            problem.set_leg_from_wire(leg, {"name": name, "params": params}, where)
        except SerializationError:
            raise
        except ReproError as exc:  # a constructor's own check, said as the field's
            raise SerializationError(
                f"{where}'{leg}' does not build: {type(exc).__name__}: {exc}") from exc

    def header(leg: str, rows: list[tuple[str, dict[str, Any]]], row: int) -> PricingProblem:
        if (leg, row) not in headers:
            headers[(leg, row)] = holder = PricingProblem()
            build(holder, leg, rows[row], row)
        return headers[(leg, row)]

    shared: dict[tuple[int, int], PricingProblem] = {}
    problems = []
    asset_of = [ASSET_CLASSES[number] for number in assets]
    model_of, method_of, option_of = indexes
    for label, asset, pair, option in zip(labels, asset_of, zip(model_of, method_of), option_of):
        base = shared.get(pair)
        if base is None:
            base = shared[pair] = PricingProblem()
            base.share_leg("model", header("model", models, pair[0]))
            base.share_leg("method", header("method", methods, pair[1]))
        problem = copy.copy(base)
        problem.label, problem.asset = label, asset
        build(problem, "option", options[option], option)
        problems.append(problem)
    return problems

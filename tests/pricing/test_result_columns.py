"""The reply record of a payload with members: row dictionaries equal
``PricingResult.as_dict()`` bit for bit through pickle and XDR, ``None``
stays ``None``, and bytes that are not a record are a typed error naming the
field -- at the reader, at the codec and at the pickle door; a record of the
wrong shape cannot be built in process either."""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IncompatibleMethodError, SerializationError
from repro.pricing import BlackScholesModel, ClosedFormCall, EuropeanCall
from repro.pricing.methods.base import (
    FLOAT_COLUMNS,
    INT_COLUMNS,
    PricingResult,
    ResultColumns,
)
from repro.serial import xdr


def _bits(value):
    """A float as its 64 bits (``-0.0 != 0.0`` here, NaN equals itself)."""
    return struct.pack(">d", value) if isinstance(value, float) else value


def _same(row: dict, expected: dict) -> bool:
    if row.keys() != expected.keys():
        return False
    for key, value in expected.items():
        got = row[key]
        if isinstance(value, list):
            if [_bits(item) for item in got] != [_bits(item) for item in value]:
                return False
        elif _bits(got) != _bits(value) or type(got) is not type(value):
            return False
    return True


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
optional = st.none() | finite
results = st.builds(
    PricingResult,
    price=finite,
    delta=optional,
    std_error=optional,
    confidence_interval=st.none() | st.tuples(finite, finite),
    method_name=st.sampled_from(["CF_Call", "MC_European", "FD_American", ""]),
    n_evaluations=st.integers(min_value=0, max_value=2**62),
    elapsed=st.floats(min_value=0.0, max_value=1e6),
)
#: per member: a result or an error message
outcomes = st.lists(results | st.text(max_size=20), max_size=12)


@settings(max_examples=200, deadline=None)
@given(outcomes=outcomes, first_id=st.integers(min_value=0, max_value=2**40))
def test_rows_equal_as_dict_bit_for_bit_through_pickle_and_xdr(outcomes, first_id):
    ids = [first_id + 3 * number for number in range(len(outcomes))]
    expected, priced, errors = {}, [], {}
    for job_id, outcome in zip(ids, outcomes):
        if isinstance(outcome, str):
            errors[job_id] = outcome
            expected[job_id] = {"error": outcome}
        else:
            priced.append((job_id, outcome))
            expected[job_id] = outcome.as_dict()
    record = ResultColumns.from_results(
        [job_id for job_id, _ in priced], [result for _, result in priced], errors
    )
    # a worker never answers from a cache: the flag is the master's table's
    assert record.floats.shape[0] == len(FLOAT_COLUMNS) and record.ints.shape[0] == 3
    assert "cache_hit" not in (*FLOAT_COLUMNS, *INT_COLUMNS)
    for copy in (record, pickle.loads(pickle.dumps(record)), xdr.decode(xdr.encode(record))):
        assert isinstance(copy, ResultColumns) and len(copy) == len(expected)
        assert set(copy) == set(expected)
        for job_id, entry in expected.items():
            assert _same(copy[job_id], entry), (copy[job_id], entry)
        assert dict(copy.items()).keys() == expected.keys()


class TestNaNMeansAbsent:
    """The record writes NaN for ``None``.  That is lossless because no
    pricing path can return a NaN price, and a NaN delta says what None says."""

    def test_a_method_cannot_return_a_non_finite_price(self, monkeypatch):
        for bad in (float("nan"), float("inf")):
            monkeypatch.setattr(
                ClosedFormCall, "_price", lambda self, model, product, bad=bad: PricingResult(bad)
            )
            with pytest.raises(IncompatibleMethodError, match="non-finite price"):
                ClosedFormCall().price(BlackScholesModel(100.0, 0.05, 0.2),
                                       EuropeanCall(100.0, 1.0))

    def test_a_nan_optional_field_reads_back_as_none(self):
        record = ResultColumns.from_results(
            [4], [PricingResult(price=1.0, delta=float("nan"), std_error=None)]
        )
        assert record[4]["delta"] is None and record[4]["std_error"] is None
        assert record[4]["confidence_interval"] is None

    def test_the_empty_record(self):
        record = ResultColumns.from_results([], [])
        assert len(record) == 0 and list(record) == []
        assert len(xdr.decode(xdr.encode(record))) == 0


def _good() -> ResultColumns:
    return ResultColumns.from_results(
        [3, 5],
        [PricingResult(price=1.0, method_name="CF_Call"),
         PricingResult(price=2.0, std_error=0.1, method_name="MC_European")],
        errors={8: "boom"},
    )


def _spelled(rows=2, names=("CF_Call", "MC_European"), errors=(("8", "boom"),),
             counts=None, floats=None, ints=None, text_tail=b"") -> bytes:
    """The layout written by hand, field by field: a header of four little-endian
    u64 counts, the float block, the int block, then the text -- a little-endian
    u32 length in characters per string (in bytes for one given as bytes), then
    the strings' UTF-8.  ``counts`` overrides the header."""
    strings = [*names, *(part for pair in errors for part in pair)]
    raw = [text if isinstance(text, bytes) else text.encode() for text in strings]
    text = (b"".join(struct.pack("<I", len(item)) for item in strings) + b"".join(raw)
            + text_tail)
    if floats is None:
        floats = np.array([[1.0, 2.0], [nan, nan], [nan, 0.1], [nan, nan], [nan, nan],
                           [0.0, 0.0]])[:, :rows]
    if ints is None:
        ints = np.array([[3, 5], [0, 0], [0, 1]])[:, :rows]
    head = struct.pack("<4Q", *(counts or (rows, len(names), len(errors), len(text))))
    return head + np.asarray(floats, "<f8").tobytes() + np.asarray(ints, "<i8").tobytes() + text


nan = float("nan")
GOOD = _good().to_bytes()
#: where a field of :data:`GOOD` lies
_HEAD, _TEXT = 32, 32 + 72 * 2


def _patched(at: int, new: bytes, data: bytes = GOOD) -> bytes:
    return data[:at] + new + data[at + len(new):]


MALFORMED = [
    pytest.param(b"", "truncated header", id="empty"),
    pytest.param(GOOD[:20], "truncated header", id="header-cut"),
    pytest.param(GOOD[:-1], "not the 215 its header counts", id="truncated"),
    pytest.param(GOOD[:_TEXT], "not the 215 its header counts", id="text-cut"),
    pytest.param(GOOD + b"\x00", "216 bytes, not the 215", id="trailing-byte"),
    pytest.param(_patched(0, struct.pack("<Q", 2**60)), "its header counts", id="rows-overflow"),
    pytest.param(_patched(0, struct.pack("<Q", 3)), "its header counts", id="rows-off-by-one"),
    pytest.param(_patched(24, struct.pack("<Q", 40)), "its header counts", id="text-length-off"),
    pytest.param(_patched(8, struct.pack("<Q", 2**62)), "'method_names' and 1 'errors' overflow",
                 id="names-count-overflows"),
    pytest.param(_patched(16, struct.pack("<Q", 2**61)), "'errors' overflow",
                 id="errors-count-overflows"),
    pytest.param(_patched(_TEXT, struct.pack("<I", 1000)),
                 "'method_names' and 'errors' are 1016 characters long, not the 23 of the text",
                 id="name-overflows-the-text"),
    pytest.param(_patched(_TEXT, struct.pack("<I", 6)), "are 22 characters long, not the 23",
                 id="name-short-of-the-text"),
    pytest.param(_spelled(errors=(("8", b"bo\xffm"),)),
                 "'method_names' and 'errors' are not UTF-8: .* position 21",
                 id="message-not-utf8"),
    pytest.param(_spelled(names=(b"CF_\xc3", "MC_European")),
                 "'method_names' and 'errors' are not UTF-8: .* position 3",
                 id="name-not-utf8"),
    pytest.param(_spelled(errors=(("eight", "boom"),)), "'errors' key is not an id",
                 id="error-key-not-an-id"),
    pytest.param(_spelled(errors=(("08", "boom"),)), "are not distinct ids as written",
                 id="error-key-not-as-written"),
    pytest.param(_spelled(errors=(("8", "boom"), ("8", "bang"))),
                 "are not distinct ids as written",
                 id="error-id-twice"),
    pytest.param(_spelled(errors=(), text_tail=b"\x00" * 4), "are 18 characters long, not the 22",
                 id="text-after-the-last-entry"),
    pytest.param(_spelled(ints=[[3, 5], [0, 0], [0, 2]]), "'method' must index 'method_names'",
                 id="method-past-the-names"),
    pytest.param(_spelled(ints=[[3, 5], [0, 0], [-1, 0]]), "'method' must index",
                 id="negative-method"),
]


class _Spelled:
    """Pickles as the record's door applied to ``data``, whatever it holds."""

    def __init__(self, data) -> None:
        self.data = data

    def __reduce__(self):
        return ResultColumns.from_bytes, (self.data,)


def _as_wire_bytes(data) -> bytes:
    """``data`` as the block of an encoded ``ResultColumns`` object."""
    name = b"ResultColumns"
    return b"O" + struct.pack(">I", len(name)) + name + b"\x00" * 3 + xdr.encode({"record": data})


def _doors(data):
    """The reader itself, the XDR codec and the pickle door, each given ``data``."""
    return (lambda: ResultColumns.from_bytes(data),
            lambda: xdr.decode(_as_wire_bytes(data)),
            lambda: pickle.loads(pickle.dumps(_Spelled(data))))


class TestMalformedRecord:
    def test_the_hand_written_layout_is_the_record_s(self):
        assert _spelled() == GOOD
        assert _as_wire_bytes(GOOD) == xdr.encode(_good())
        for door in _doors(GOOD):
            assert door() == _good()

    def test_the_blocks_are_little_endian_views_of_the_bytes(self):
        record = ResultColumns.from_bytes(GOOD)
        assert GOOD[_HEAD:_HEAD + 8] == struct.pack("<d", 1.0)
        assert GOOD[_HEAD + 48 * 2:_HEAD + 48 * 2 + 8] == struct.pack("<q", 3)
        assert record.floats.shape == (6, 2) and record.ints.shape == (3, 2)
        assert not record.price.flags.owndata and not record.price.flags.writeable

    @pytest.mark.parametrize("data, field", MALFORMED)
    def test_decoder_raises_a_typed_error_naming_the_field(self, data, field):
        for door in _doors(data):
            with pytest.raises(SerializationError, match=field):
                door()

    def test_anything_but_bytes_is_refused(self):
        for data in (bytearray(GOOD), memoryview(GOOD), None):
            with pytest.raises(SerializationError, match="must be bytes"):
                ResultColumns.from_bytes(data)
        with pytest.raises(SerializationError, match="must be bytes, not bytearray"):
            pickle.loads(pickle.dumps(_Spelled(bytearray(GOOD))))
        for payload in ({}, {"record": 5}, {"record": "text"}):
            name = b"ResultColumns"
            wire = b"O" + struct.pack(">I", len(name)) + name + b"\x00" * 3 + xdr.encode(payload)
            with pytest.raises(SerializationError, match="must be bytes"):
                xdr.decode(wire)


def _columns() -> dict:
    record = _good()
    return {name: getattr(record, name).copy() for name in (*INT_COLUMNS, *FLOAT_COLUMNS)}


def _with(**changes) -> dict:
    return {**_columns(), **changes}


def _without(key: str) -> dict:
    columns = _columns()
    del columns[key]
    return columns


#: the in-process constructor's own checks: dtype, rank, length, method names
UNBUILDABLE = [
    pytest.param({}, "'ids'", id="empty"),
    pytest.param(_without("ids"), "'ids'", id="no-ids"),
    pytest.param(_without("price"), "'price'", id="column-missing"),
    pytest.param(_with(delta=[0.5, 0.5]), "'delta'", id="column-not-an-array"),
    pytest.param(_with(price=np.array([1, 2])), "'price' must be a 1-d float64", id="wrong-dtype"),
    pytest.param(_with(ids=np.array([3.0, 5.0])), "'ids' must be a 1-d int64", id="float-ids"),
    pytest.param(_with(elapsed=np.zeros((2, 1))), "'elapsed'", id="not-1-d"),
    pytest.param(_with(std_error=np.zeros(3)), "'std_error' has 3 rows for 2 ids",
                 id="unequal-length"),
    pytest.param(_with(n_evaluations=np.zeros(1, dtype=np.int64)), "'n_evaluations'",
                 id="short-int-column"),
    pytest.param(_with(method=np.array([0, 2])), "'method' must index 'method_names'",
                 id="method-past-the-names"),
    pytest.param(_with(method=np.array([-1, 0])), "'method' must index", id="negative-method"),
]


@pytest.mark.parametrize("columns, field", UNBUILDABLE)
def test_a_record_cannot_be_built_malformed_either(columns, field):
    with pytest.raises(SerializationError, match=field):
        ResultColumns(columns, ["CF_Call", "MC_European"])


@pytest.mark.parametrize("names", ["CF_Call", ["CF_Call", 7]])
def test_the_method_names_must_be_a_list_of_strings(names):
    with pytest.raises(SerializationError, match="'method_names'"):
        ResultColumns(_columns(), names)


def test_the_constructor_copies_the_columns_into_the_blocks():
    columns = _columns()
    record = ResultColumns(columns, ["CF_Call", "MC_European"], {8: "boom"})
    columns["price"][0] = 99.0
    assert record.price[0] == 1.0 and record.floats[0] is not columns["price"]
    assert record.to_bytes() == GOOD


@st.composite
def _mutated(draw) -> tuple[bytes, bytes]:
    """A record's bytes, and those bytes with a few bytes overwritten and/or cut."""
    outcomes = draw(st.lists(results | st.text(max_size=6), max_size=5))
    priced = [(number, outcome) for number, outcome in enumerate(outcomes)
              if not isinstance(outcome, str)]
    original = ResultColumns.from_results(
        [number for number, _ in priced], [outcome for _, outcome in priced],
        {number: outcome for number, outcome in enumerate(outcomes) if isinstance(outcome, str)},
    ).to_bytes()
    data = bytearray(original)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        patch = draw(st.binary(min_size=1, max_size=8))
        data[at:at + len(patch)] = patch
    if draw(st.booleans()):
        del data[draw(st.integers(min_value=0, max_value=len(data))):]
    return original, bytes(data)


@settings(max_examples=400, deadline=None)
@given(_mutated())
def test_mutated_bytes_read_as_a_typed_error_or_exactly_what_they_spell(pair):
    """A flipped price bit is a price; what the reader guarantees is that it
    refuses with a :class:`SerializationError`, or reads a record that writes
    back to exactly the bytes it read -- the original wherever nothing changed."""
    original, data = pair
    for door in _doors(data):
        try:
            record = door()
        except SerializationError:
            continue
        assert isinstance(record, ResultColumns) and record.to_bytes() == data
        if data == original:
            assert record == ResultColumns.from_bytes(original)
    if len(data) < len(original):
        with pytest.raises(SerializationError):
            ResultColumns.from_bytes(data)


def test_a_lone_surrogate_in_an_error_message_travels_escaped():
    """UTF-8 has no lone surrogate, and an exception's text can hold one."""
    record = ResultColumns.from_results([], [], {4: "OSError: bad name \udcff"})
    for door in _doors(record.to_bytes()):
        assert door()[4] == {"error": "OSError: bad name \\udcff"}

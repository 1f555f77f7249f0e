"""Hostile bytes at the decode boundary raise :class:`ReproError`, nothing else.

Every payload a worker or a master decodes -- a problem, a
:class:`ProblemBatch`, a :class:`ScenarioGrid` slice (a scenario slice and a
book slice naming its ``rows``), a :class:`ResultColumns` reply -- is encoded
once, then mutated (1-4 byte overwrites anywhere, truncation) and decoded
under the frame limit.  The decoder must answer every such stream, and any
byte string at all, by returning a value or raising a
:class:`~repro.errors.ReproError` subclass -- never a raw ``UnicodeDecodeError``
out of a string field or a ``TypeError`` out of a leg's constructor -- and
without allocating past the limit the frame layer enforces on the stream.
A book with one malformed column -- a column shorter or longer than its
rows, an index out of range or negative or numbering its rows out of order,
a ragged list, a keyword its class does not take, no position at all -- is a
:class:`~repro.errors.SerializationError` naming the field.
The frame layer itself lets through the header of one protocol version and
eight frame kinds, and refuses every other before a payload byte is read.
"""

from __future__ import annotations

import pickle
import re
import struct
import tracemalloc
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.backends import PAYLOAD_SERIAL
from repro.cluster.backends.execution import materialize_problem
from repro.core.portfolio import build_toy_portfolio
from repro.errors import ReproError, SerializationError
from repro.pricing import ASSET_CLASSES, PricingProblem
from repro.pricing.batch import ProblemBatch
from repro.pricing.book import read_book, write_book
from tests.oracles.book_writer import pack, unpack
from repro.pricing.methods.base import PricingResult, ResultColumns
from repro.pricing.scenarios import Scenario, ScenarioGrid, historical_scenarios
from repro.serial import serialize, xdr
from repro.serial.frames import (
    FRAME_JOB,
    PROTOCOL_VERSION,
    FrameAssembler,
    decode_header,
    encode_frame,
)

#: the limit the streams are decoded under (``max_bytes`` of the frame layer)
MAX_BYTES = 1 << 20


def _mc_call(strike: float) -> PricingProblem:
    problem = PricingProblem(label=f"call_K{strike:.0f}")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("MC_European", n_paths=1000, n_steps=1, seed=7)
    return problem


def _toy_problems() -> list[PricingProblem]:
    return [position.problem for position in build_toy_portfolio(5)]


def _priced() -> PricingProblem:
    problem = _toy_problems()[0]
    problem.compute()
    return problem


SEEDS = {
    "problem": _mc_call(100.0),
    "priced_problem": _priced(),
    "batch": ProblemBatch([_mc_call(90.0), _mc_call(110.0)], keys=[3, 4]),
    "grid_slice": ScenarioGrid(
        _toy_problems(), historical_scenarios([0.01, -0.02, 0.005]), on_missing="base"
    ).slice(1, 3, answered=[6]),
    "book_slice": ScenarioGrid(_toy_problems(), [Scenario(name="base")], rows=[4, 9, 2, 7, 30]),
    "result_columns": ResultColumns.from_results(
        [12, 7],
        [PricingResult(price=10.45, delta=0.63, method_name="CF_Call", n_evaluations=1),
         PricingResult(price=8.02, std_error=0.25, confidence_interval=(7.53, 8.51),
                       method_name="MC_European", n_evaluations=1000)],
        errors={19: "ArithmeticError: payoff exploded"},
    ),
}
ENCODED = {name: xdr.encode(value) for name, value in SEEDS.items()}


@st.composite
def mutated_streams(draw) -> bytes:
    data = bytearray(ENCODED[draw(st.sampled_from(sorted(ENCODED)))])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        patch = draw(st.binary(min_size=1, max_size=4))
        data[at:at + len(patch)] = patch
    if draw(st.booleans()):
        del data[draw(st.integers(min_value=0, max_value=len(data))):]
    return bytes(data)


def _decode_under_the_limit(data: bytes) -> None:
    assert len(data) <= MAX_BYTES
    tracemalloc.start()
    try:
        try:
            xdr.decode(data)
        except ReproError:
            pass
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MAX_BYTES


@pytest.mark.parametrize("name", sorted(ENCODED))
def test_the_seed_encodings_decode(name):
    assert isinstance(xdr.decode(ENCODED[name]), type(SEEDS[name]))
    assert len(ENCODED[name]) < 4096


@settings(max_examples=600, deadline=5000)
@given(mutated_streams())
def test_a_mutated_payload_raises_only_repro_errors(data):
    _decode_under_the_limit(data)


@settings(max_examples=300, deadline=5000)
@given(st.binary(max_size=2048))
def test_arbitrary_bytes_raise_only_repro_errors(data):
    _decode_under_the_limit(data)


def _patched(data: bytes, old: bytes, new: bytes) -> bytes:
    assert data.count(old) >= 1 and len(old) == len(new)
    return data.replace(old, new, 1)


class TestTheReproducedLeaks:
    """The two raw exceptions the 20,000-mutation sweep of a grid slice found."""

    def test_a_dictionary_key_that_is_not_utf8(self):
        data = _patched(ENCODED["grid_slice"], b"on_missing", b"o\xd8_missing")
        with pytest.raises(SerializationError, match="dictionary key.*not UTF-8"):
            xdr.decode(data)

    def test_a_string_and_a_type_name_that_are_not_utf8(self):
        with pytest.raises(SerializationError, match="string.*not UTF-8"):
            xdr.decode(b"S" + struct.pack(">I", 2) + b"\xff\xfe\x00\x00")
        with pytest.raises(SerializationError, match="object type name.*not UTF-8"):
            xdr.decode(b"O" + struct.pack(">I", 2) + b"\xff\xfe\x00\x00")

    @pytest.mark.parametrize("name", ["grid_slice", "book_slice"])
    def test_an_option_keyword_its_class_does_not_take(self, name):
        book = unpack(xdr.decode(ENCODED[name]).wire_view()["book"])
        params = book["option"]["tables"][0]["params"]
        params["stqike"] = params.pop("strike")
        view = {**SEEDS[name].wire_view(), "book": pack(book)}
        with pytest.raises(SerializationError, match=r"book\.option\[0\]: 'option'.*stqike"):
            ScenarioGrid.from_dict(view)

    def test_a_batch_member_and_a_problem_leg(self):
        view = SEEDS["batch"].to_dict()
        book = unpack(view["book"])
        book["option"]["tables"][0]["params"]["stqike"] = np.ones(2)
        view["book"] = pack(book)
        with pytest.raises(SerializationError, match=r"book\.option\[0\]: 'option'.*stqike"):
            ProblemBatch.from_dict(view)
        view = SEEDS["problem"].to_dict()
        view["method"]["params"]["n_paths"] = "many"
        with pytest.raises(ReproError):
            PricingProblem.from_dict(view)
        view["method"]["params"] = {"paths": 10}
        with pytest.raises(SerializationError, match="PricingProblem payload: 'method'"):
            PricingProblem.from_dict(view)

    def test_an_array_whose_shape_does_not_fit_its_bytes(self):
        good = xdr.encode(SEEDS["book_slice"].rows)
        with pytest.raises(SerializationError, match="does not fit"):
            xdr.decode(_patched(good, struct.pack(">I", 5), struct.pack(">I", 4)))

    def test_a_stream_nested_deeper_than_the_decoder_recurses(self):
        with pytest.raises(SerializationError, match="nests deeper"):
            xdr.decode((b"L" + struct.pack(">I", 1)) * 100_000 + b"N")


def _books() -> dict[str, dict]:
    """Fresh books, as the dictionaries of their columns: closed-form
    vanillas (``f8`` option columns) and a Monte-Carlo family (``i8`` and
    listed method columns)."""
    return {"vanillas": unpack(write_book(_toy_problems())),
            "family": unpack(write_book([_mc_call(90.0), _mc_call(100.0), _mc_call(110.0)]))}


@st.composite
def malformed_books(draw) -> tuple[dict, str]:
    """A book with one malformed column and the field its error must name."""
    book = _books()[draw(st.sampled_from(["vanillas", "family"]))]
    n = len(book["labels"])
    kind = draw(st.sampled_from([
        "short-or-long", "index-out-of-range", "index-negative", "index-out-of-order",
        "ragged-list", "unknown-key", "asset-out-of-range", "empty",
    ]))
    leg = draw(st.sampled_from(["model", "method", "option"]))
    table = book[leg]["tables"][0]
    if kind == "short-or-long":
        key = draw(st.sampled_from(sorted(table["params"]) or ["missing"]))
        rows = table["rows"]
        size = draw(st.integers(0, rows + 3).filter(lambda size: size != rows))
        column = table["params"].get(key, np.zeros(1))
        table["params"][key] = (np.resize(column, size) if isinstance(column, np.ndarray)
                                else (column * (size + 1))[:size])
        if isinstance(column, np.ndarray):  # a block's values: its count is off
            return book, rf"book' [fi]8 columns hold \d+ values, not the \d+ its header counts"
        return book, rf"book\.{leg}\.tables\[0\]\.params\.{key}' has {size} listed values"
    if kind in ("index-out-of-range", "index-negative"):
        rows = sum(entry["rows"] for entry in book[leg]["tables"])
        bad = draw(st.integers(rows, 2**62) if kind == "index-out-of-range"
                   else st.integers(-(2**62), -1))
        book[leg]["index"][draw(st.integers(0, n - 1))] = bad
        return book, rf"book\.{leg}\.index' must name rows"
    if kind == "index-out-of-order":
        # a second row named before the first: two tables swapped, or the rows
        # of one; a leg of one row has none to swap, and is told it names none
        rows = sum(entry["rows"] for entry in book[leg]["tables"])
        book[leg]["index"] = (rows - 1 - book[leg]["index"]) if rows > 1 else book[leg]["index"] + 1
        return book, rf"book\.{leg}\.index' must (number|name)"
    if kind == "ragged-list":
        key = draw(st.sampled_from(sorted(table["params"]) or ["missing"]))
        column = list(np.asarray(table["params"].get(key, [0.0])).tolist())
        extra = draw(st.lists(st.booleans(), min_size=1, max_size=3))
        table["params"][key] = draw(st.sampled_from([column + extra, column[1:]]))
        size = len(table["params"][key])
        return book, rf"book\.{leg}\.tables\[0\]\.params\.{key}' has {size} listed values"
    if kind == "unknown-key":
        # no leg takes a ``zz_`` keyword
        key = "zz_" + draw(st.text("abcdefghijklmnopqrstuvwxyz_", max_size=12))
        table["params"][key] = np.zeros(table["rows"])
        return book, rf"book\.{leg}\[\d+\]: '{leg}' does not build.*{key}"
    if kind == "asset-out-of-range":
        book["assets"][draw(st.integers(0, n - 1))] = draw(
            st.integers(-(2**62), -1) | st.integers(len(ASSET_CLASSES), 2**62))
        return book, r"book\.assets' must number one of"
    return {**book, "labels": [], "assets": []}, r"book\.labels' must list one label"


@settings(max_examples=300, deadline=None)
@given(malformed_books())
def test_a_malformed_book_column_is_a_serialization_error_naming_it(case):
    book, field = case
    with pytest.raises(SerializationError, match=field):
        read_book(pack(book), "ScenarioGrid")
    grid = {**SEEDS["book_slice"].wire_view(), "book": pack(book)}
    with pytest.raises(SerializationError, match=field):
        xdr.decode(b"O" + struct.pack(">I", 12) + b"ScenarioGrid" + xdr.encode(grid))


#: hello, job, result, stop, ping, pong, challenge, auth (5 and 10, the chunk
#: frames of protocol v9, are unknown kinds like any other)
FRAME_KINDS = {1, 2, 3, 4, 6, 7, 8, 9}


@settings(max_examples=300, deadline=None)
@given(
    version=st.one_of(st.integers(0, 14), st.integers(0, 0xFFFF)),
    kind=st.one_of(st.integers(0, 12), st.integers(0, 0xFFFF)),
    length=st.integers(0, 0xFFFFFFFF),
)
def test_a_header_of_another_version_or_kind_is_refused(version, kind, length):
    header = struct.pack(">4sHHI", b"RWF\x01", version, kind, length)
    if version == PROTOCOL_VERSION == 14 and kind in FRAME_KINDS and length <= MAX_BYTES:
        assert decode_header(header, max_bytes=MAX_BYTES) == (kind, length)
        return
    with pytest.raises(SerializationError) as refused:
        decode_header(header, max_bytes=MAX_BYTES)
    if version != PROTOCOL_VERSION:
        assert f"v{version}" in str(refused.value) and "v14" in str(refused.value)
    with pytest.raises(SerializationError):
        FrameAssembler(max_bytes=MAX_BYTES).feed(header)


#: the bytes a book slice travels as, the job's serialized payload: a book of
#: calls and puts under its positions' ids, one of them already answered
SLICE = ScenarioGrid(_toy_problems(), [Scenario(name="base")], rows=[4, 9, 2, 7, 30],
                     answered=[9])
SLICE_BYTES = serialize(SLICE).to_bytes()
#: how a refusal names what it refused: a field of the grid or of its book
#: (``'book.option.index'``, ``'answered'``, ``book.model[0]: 'model'``), or
#: the layer below them -- the serial magic or its compression, an XDR value
_NAMES_THE_FIELD = re.compile(
    r"(ScenarioGrid payload: .*('\w[\w.\[\]]*'|scenarios\[\d+\]|book\.\w+\[\d+\]))"
    r"|serial (magic|buffer)|compressed serial|XDR stream|XDR tag|trailing bytes"
    r"|dictionary|string|object type|array|integer")


def _through_remote(payload: bytes) -> Any:
    """What a ``repro-worker`` makes of a job frame carrying ``payload``."""
    frame = encode_frame(FRAME_JOB, xdr.encode(
        {"job_id": 3, "kind": PAYLOAD_SERIAL, "payload": payload}))
    assembler = FrameAssembler()
    assembler.feed(frame)
    ((kind, body),) = list(assembler)
    assert kind == FRAME_JOB
    entry = xdr.decode(body)
    return materialize_problem(entry["kind"], entry["payload"])


def _through_pickle(payload: bytes) -> Any:
    """What a worker process makes of a job frame carrying ``payload``."""
    _job_id, kind, data = pickle.loads(
        pickle.dumps((3, PAYLOAD_SERIAL, payload), pickle.HIGHEST_PROTOCOL))
    return materialize_problem(kind, data)


@st.composite
def mutated_slices(draw) -> bytes:
    data = bytearray(SLICE_BYTES)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        patch = draw(st.binary(min_size=1, max_size=4))
        data[at:at + len(patch)] = patch
    if draw(st.booleans()):
        del data[draw(st.integers(min_value=0, max_value=len(data))):]
    return bytes(data)


@pytest.mark.parametrize("door", [_through_remote, _through_pickle],
                         ids=["remote-xdr-frame", "multiprocessing-pickle-frame"])
@settings(max_examples=400, deadline=None)
@given(data=mutated_slices())
def test_a_mutated_book_slice_is_refused_by_field_or_read_as_it_writes(door, data):
    """Either a :class:`SerializationError` naming the field, or a slice
    whose book writes exactly the bytes it was read from: no two byte
    strings read as one book, so nothing the book reader accepts was changed
    on the way."""
    try:
        grid = door(data)
    except SerializationError as refused:
        assert _NAMES_THE_FIELD.search(str(refused)), str(refused)
        return
    assert isinstance(grid, ScenarioGrid)
    assert write_book(grid.problems) == grid.wire_view()["book"]
    if data == SLICE_BYTES:
        assert grid.problems == SLICE.problems and grid.rows.tolist() == SLICE.rows.tolist()


def test_the_unmutated_slice_reads_through_both_doors():
    for door in (_through_remote, _through_pickle):
        grid = door(SLICE_BYTES)
        assert grid.problems == SLICE.problems and grid.answered == {9}
        assert serialize(grid).to_bytes() == SLICE_BYTES


def _spot_call(spot: Any, index: int) -> PricingProblem:
    problem = PricingProblem(label=f"call_{index}")
    problem.set_model("BlackScholes1D", spot=spot, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=100.0, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


@pytest.mark.parametrize("spots", [
    [np.int64(100)], [np.float32(99.1)], [np.int64(100), 100, np.int32(90)],
    [np.float32(99.5), 100.0, np.float64(98.0), np.float16(2.5)],
], ids=["int64", "float32", "int64-among-ints", "float32-among-floats"])
def test_a_numpy_number_is_written_as_the_kind_it_is_read_back_as(spots):
    """A parameter held as a NumPy number travels as the ``int`` or
    ``float`` the codec writes it as: read by the one reader and through
    both doors, a book of such spots reads back and writes its own bytes."""
    problems = [_spot_call(spot, index) for index, spot in enumerate(spots)]
    book = write_book(problems)
    read = read_book(book, "ProblemBatch")
    assert write_book(read) == book
    assert [problem.model.spot for problem in read] == [float(spot) for spot in spots]
    data = serialize(ScenarioGrid(problems, [Scenario(name="base")],
                                  rows=list(range(len(problems))))).to_bytes()
    for door in (_through_remote, _through_pickle):
        grid = door(data)
        assert grid.wire_view()["book"] == book
        assert [problem.model.spot for problem in grid.problems] == [float(spot) for spot in spots]

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
The frame layer itself lets through the header of one protocol version and
eight frame kinds, and refuses every other before a payload byte is read.
"""

from __future__ import annotations

import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.portfolio import build_toy_portfolio
from repro.errors import ReproError, SerializationError
from repro.pricing import PricingProblem
from repro.pricing.batch import ProblemBatch
from repro.pricing.methods.base import PricingResult, ResultColumns
from repro.pricing.scenarios import Scenario, ScenarioGrid, historical_scenarios
from repro.serial import xdr
from repro.serial.frames import PROTOCOL_VERSION, FrameAssembler, decode_header

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
        book = xdr.decode(xdr.decode(ENCODED[name][len(b"O") + 4 + len(b"ScenarioGrid"):])["book"])
        book["problems"][2]["option"]["params"]["stqike"] = (
            book["problems"][2]["option"]["params"].pop("strike"))
        view = {**SEEDS[name].wire_view(), "book": xdr.encode(book)}
        with pytest.raises(SerializationError, match=r"book\.problems\[2\]\.'option'.*stqike"):
            ScenarioGrid.from_dict(view)

    def test_a_batch_member_and_a_problem_leg(self):
        view = SEEDS["batch"].to_dict()
        view["book"]["problems"][1]["option"]["params"]["stqike"] = 1.0
        with pytest.raises(SerializationError, match=r"book\.problems\[1\]\.'option'.*stqike"):
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


#: hello, job, result, stop, ping, pong, challenge, auth (5 and 10, the chunk
#: frames of protocol v9, are unknown kinds like any other)
FRAME_KINDS = {1, 2, 3, 4, 6, 7, 8, 9}


@settings(max_examples=300, deadline=None)
@given(
    version=st.one_of(st.integers(0, 12), st.integers(0, 0xFFFF)),
    kind=st.one_of(st.integers(0, 12), st.integers(0, 0xFFFF)),
    length=st.integers(0, 0xFFFFFFFF),
)
def test_a_header_of_another_version_or_kind_is_refused(version, kind, length):
    header = struct.pack(">4sHHI", b"RWF\x01", version, kind, length)
    if version == PROTOCOL_VERSION == 11 and kind in FRAME_KINDS and length <= MAX_BYTES:
        assert decode_header(header, max_bytes=MAX_BYTES) == (kind, length)
        return
    with pytest.raises(SerializationError) as refused:
        decode_header(header, max_bytes=MAX_BYTES)
    if version != PROTOCOL_VERSION:
        assert f"v{version}" in str(refused.value) and "v11" in str(refused.value)
    with pytest.raises(SerializationError):
        FrameAssembler(max_bytes=MAX_BYTES).feed(header)

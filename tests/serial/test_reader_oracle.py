"""The offset reader of :mod:`repro.serial.xdr` against the reader it replaced.

:mod:`tests.oracles.xdr_reader` keeps the byte-at-a-time reader (a cursor
object handing out slices, a function call per field).  On the golden
streams -- one value of every supported type, every payload with members,
a reply -- and on seeded mutations of them (truncations, flipped bytes and
length fields inflated past the data), the production reader must return a
value equal to the oracle's, arrays equal by dtype, shape and bytes (so a
signed zero or a NaN payload that moved would show), or raise
:class:`~repro.errors.SerializationError` where the oracle raises.  The
decoders face hostile bytes from the socket; ``test_hostile_bytes.py``
holds them to raising only :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.portfolio import build_toy_portfolio
from repro.errors import SerializationError
from repro.pricing.methods.base import PricingResult, ResultColumns
from repro.pricing.scenarios import Scenario, ScenarioGrid
from repro.serial import xdr
from tests.oracles import xdr_reader
from tests.serial.test_xdr_golden import golden_values


def _reply(rows: int) -> dict[str, Any]:
    """A result frame's record: ``rows`` closed-form rows, one failed id."""
    results = [PricingResult(price=1.0 + row, delta=-0.0 if row % 3 else 0.5,
                             method_name="CF_Put" if row % 2 else "CF_Call", n_evaluations=1)
               for row in range(rows)]
    record = ResultColumns.from_results(list(range(rows)), results, errors={rows: "failed"})
    return {"job_id": 0, "result": record, "elapsed": 0.25, "error": None}


def _streams() -> dict[str, bytes]:
    values: dict[str, Any] = dict(golden_values())
    toy = [position.problem for position in build_toy_portfolio(40)]
    # a slice of 40 positions under two model headers and two option classes
    values["toy_book_slice_40"] = ScenarioGrid(toy, [Scenario(name="base")], rows=range(40))
    values["reply_1"] = _reply(1)
    values["reply_750"] = _reply(750)
    bits = np.array([float("nan"), -0.0, 5e-324]).view(np.int64)
    bits[0] |= 1  # a NaN with a payload
    values["nan_payloads"] = bits.view(np.float64)
    return {name: xdr.encode(value) for name, value in values.items()}


STREAMS = _streams()


def _length_fields(data: bytes) -> list[int]:
    """Where the oracle reads a 32-bit length, rank, dimension or byte count."""
    offsets: list[int] = []

    class Recording(xdr_reader._Reader):
        def u32(self) -> int:
            offsets.append(self.pos)
            return super().u32()

    xdr_reader._decode_from(Recording(data))
    return offsets


LENGTH_FIELDS = {name: _length_fields(data) for name, data in STREAMS.items()}


def _same(new: Any, old: Any) -> bool:
    """Equal values of equal types; arrays by dtype, shape and bytes, floats
    by their bits, registered objects by what their codec writes."""
    if type(new) is not type(old):
        return False
    if isinstance(old, np.ndarray):
        return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()
    if isinstance(old, float):
        return struct.pack(">d", new) == struct.pack(">d", old)
    if isinstance(old, dict):
        return list(new) == list(old) and all(_same(new[key], old[key]) for key in old)
    if isinstance(old, list):
        return len(new) == len(old) and all(map(_same, new, old))
    type_name = xdr._CLASS_TO_NAME.get(type(old))
    if type_name is not None:
        to_dict = xdr._CODECS[type_name][1]
        return _same(to_dict(new), to_dict(old))
    return bool(new == old)


def _outcome(decode, data: bytes) -> tuple[Any, Exception | None]:
    try:
        return decode(data), None
    except Exception as exc:  # noqa: BLE001 - compared below
        return None, exc


def _check(data: bytes) -> None:
    old, old_error = _outcome(xdr_reader.decode, data)
    new, new_error = _outcome(xdr.decode, data)
    if old_error is None:
        assert new_error is None, f"the oracle read {old!r:.200} where this raised {new_error!r}"
        assert _same(new, old)
    else:
        assert new_error is not None, f"this read {new!r:.200} where the oracle raised {old_error!r}"
        assert isinstance(new_error, SerializationError) or type(new_error) is type(old_error)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_the_golden_streams_read_the_same(name):
    _check(STREAMS[name])


@st.composite
def mutated_streams(draw) -> bytes:
    name = draw(st.sampled_from(sorted(STREAMS)))
    data = bytearray(STREAMS[name])
    kind = draw(st.sampled_from(["truncate", "flip", "inflate"]))
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
    elif LENGTH_FIELDS[name]:
        at = draw(st.sampled_from(LENGTH_FIELDS[name]))
        (length,) = struct.unpack_from(">I", data, at)
        inflated = draw(st.one_of(st.integers(length + 1, min(length + 64, 2**32 - 1)),
                                  st.integers(length + 1, 2**32 - 1), st.just(2**32 - 1))
                        if length < 2**32 - 1 else st.just(length))
        data[at:at + 4] = struct.pack(">I", inflated)
    return bytes(data)


@settings(max_examples=500, deadline=None)
@given(mutated_streams())
def test_a_mutated_stream_reads_as_the_oracle_reads_it(data):
    _check(data)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=256))
def test_arbitrary_bytes_read_as_the_oracle_reads_them(data):
    _check(data)

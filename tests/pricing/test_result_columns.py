"""The reply record of a payload with members: row dictionaries equal
``PricingResult.as_dict()`` bit for bit through pickle and XDR, ``None``
stays ``None``, and a record of the wrong shape is a typed error naming the
field -- at the codec, at the pickle door and on the worker."""

from __future__ import annotations

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IncompatibleMethodError, SerializationError
from repro.pricing import BlackScholesModel, ClosedFormCall, EuropeanCall
from repro.pricing.methods.base import PricingResult, ResultColumns
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
    assert "cache_hit" not in record.to_dict()
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


def _good() -> dict:
    return ResultColumns.from_results(
        [3, 5],
        [PricingResult(price=1.0, method_name="CF_Call"),
         PricingResult(price=2.0, std_error=0.1, method_name="MC_European")],
        errors={8: "boom"},
    ).to_dict()


def _with(**changes) -> dict:
    return {**_good(), **changes}


def _without(key: str) -> dict:
    payload = _good()
    del payload[key]
    return payload


MALFORMED = [
    pytest.param({}, "'errors'", id="empty"),
    pytest.param(_without("ids"), "'ids'", id="no-ids"),
    pytest.param(_without("price"), "'price'", id="column-missing"),
    pytest.param(_with(delta=[0.5, 0.5]), "'delta'", id="column-not-an-array"),
    pytest.param(_with(price=np.array([1, 2])), "'price' must be a 1-d float64", id="wrong-dtype"),
    pytest.param(_with(ids=np.array([3.0, 5.0])), "'ids' must be a 1-d int64", id="float-ids"),
    pytest.param(_with(elapsed=np.zeros((2, 1))), "'elapsed'", id="not-1-d"),
    pytest.param(_with(std_error=np.zeros(3)), "'std_error' has 3 rows for 2 ids",
                 id="unequal-length"),
    pytest.param(_with(method=np.array([0, 2])), "'method' must index 'method_names'",
                 id="method-past-the-names"),
    pytest.param(_with(method=np.array([-1, 0])), "'method' must index", id="negative-method"),
    pytest.param(_with(method_names="CF_Call"), "'method_names'", id="names-not-a-list"),
    pytest.param(_with(method_names=["CF_Call", 7]), "'method_names'", id="name-not-a-string"),
    pytest.param(_with(errors=["boom"]), "'errors'", id="errors-not-a-dict"),
    pytest.param(_with(errors={"8": 13}), "'errors'", id="message-not-a-string"),
    pytest.param(_with(errors={"eight": "boom"}), "'errors' key", id="error-key-not-an-id"),
]


def _as_wire_bytes(payload: dict) -> bytes:
    """``payload`` tagged as an encoded ``ResultColumns`` object."""
    name = b"ResultColumns"
    return b"O" + struct.pack(">I", len(name)) + name + b"\x00" * 3 + xdr.encode(payload)


class TestMalformedRecord:
    def test_the_tagging_helper_matches_the_codec(self):
        record = ResultColumns.from_dict(_good())
        assert _as_wire_bytes(_good()) == xdr.encode(record)
        assert xdr.decode(_as_wire_bytes(_good())) == record

    @pytest.mark.parametrize("payload, field", MALFORMED)
    def test_decoder_raises_a_typed_error_naming_the_field(self, payload, field):
        with pytest.raises(SerializationError, match=field):
            ResultColumns.from_dict(payload)
        with pytest.raises(SerializationError, match=field):
            xdr.decode(_as_wire_bytes(payload))

    def test_a_record_cannot_be_built_malformed_either(self):
        good = _good()
        with pytest.raises(SerializationError, match="'n_evaluations'"):
            ResultColumns({**good, "n_evaluations": good["n_evaluations"][:1]},
                          good["method_names"])

"""The :class:`ProblemBatch` wire form: the one book format (one model/method
header), typed decode errors."""

from __future__ import annotations

import struct

import pytest

from repro.cluster.backends import PAYLOAD_SERIAL, execute_payload
from repro.errors import SerializationError
from repro.pricing import PricingProblem, ProblemBatch
from repro.pricing.batch import book_view
from repro.serial import serialize, unserialize, xdr

#: the encoding of the 50-member batch below when every member carried its own
#: model and method (483 B per member)
_PARENT_BATCH_BYTES = 24_131


def _var_ladder(n_strikes: int = 50) -> list[PricingProblem]:
    """One scenario of ``benchmarks/e2e`` ``build_var_campaign``: a
    single-model Sobol call ladder, every member its own method instance."""
    problems = []
    for index in range(n_strikes):
        strike = 80.0 + 40.0 * index / (n_strikes - 1)
        problem = PricingProblem(label=f"call_K{strike:.2f}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=101.3, rate=0.045, volatility=0.2317)
        problem.set_option("CallEuro", strike=strike, maturity=1.0)
        problem.set_method(
            "MC_European", n_paths=20_000, n_steps=1, antithetic=False,
            control_variate=False, seed=424_242, rng_kind="sobol",
        )
        problems.append(problem)
    return problems


class TestWireForm:
    def test_round_trip_keeps_members_and_shares_the_header(self):
        problems = _var_ladder(6)
        problems[2].set_asset("commodity")
        batch = ProblemBatch(problems, keys=[40, 41, 42, 43, 44, 45], kernel="loop")
        rebuilt = unserialize(serialize(batch))
        assert isinstance(rebuilt, ProblemBatch)
        assert rebuilt.keys == batch.keys and rebuilt.kernel == "loop"
        assert rebuilt.signature == batch.signature
        for before, after in zip(batch.problems, rebuilt.problems):
            assert (after.label, after.asset) == (before.label, before.asset)
            assert after.option_name == before.option_name
            assert after.product.to_params() == before.product.to_params()
            assert after == before and not after.has_result
        assert len({id(problem.model) for problem in rebuilt.problems}) == 1
        assert len({id(problem.method) for problem in rebuilt.problems}) == 1
        assert {key: entry["price"] for key, entry in rebuilt.compute().items()} == {
            key: entry["price"] for key, entry in batch.compute().items()
        }

    def test_the_members_are_written_as_a_book_with_one_header(self):
        problems = _var_ladder()
        batch = ProblemBatch(problems)
        wire = batch.to_dict()
        assert set(wire) == {"book", "keys", "kernel"}
        assert wire["book"] == book_view(problems)  # the format a grid's base book has
        assert len(wire["book"]["models"]) == len(wire["book"]["methods"]) == 1
        assert all(
            set(entry) == {"label", "asset", "model", "method", "option"}
            for entry in wire["book"]["problems"]
        )
        # the header indices cost 42 B a member over v10's header-less entries
        nbytes = len(serialize(batch).to_bytes())
        assert nbytes <= 0.45 * _PARENT_BATCH_BYTES
        assert nbytes / len(batch) <= 0.45 * 483

    def test_to_dict_is_a_copy_of_the_read_only_view(self):
        batch = ProblemBatch(_var_ladder(2))
        wire = batch.to_dict()
        wire["book"]["models"][0]["params"]["spot"] = -1.0
        wire["book"]["problems"][0]["option"]["params"]["strike"] = -1.0
        assert batch.to_dict()["book"]["models"][0]["params"]["spot"] == 101.3
        assert batch.problems[0].product.strike == 80.0
        assert batch.problems[0].to_dict()["option"]["params"]["strike"] == 80.0


def _good() -> dict:
    return ProblemBatch(_var_ladder(2)).to_dict()


def _without(field: str) -> dict:
    wire = _good()
    del wire[field]
    return wire


def _with(**changes) -> dict:
    return {**_good(), **changes}


def _book_with(**changes) -> dict:
    wire = _good()
    wire["book"] = {**wire["book"], **changes}
    return wire


def _entry_with(**changes) -> dict:
    wire = _good()
    wire["book"]["problems"][1] = {**wire["book"]["problems"][1], **changes}
    return wire


def _two_models() -> dict:
    """Members that name different models: no shared simulation signature."""
    wire = _good()
    other = {**wire["book"]["models"][0]}
    other["params"] = {**other["params"], "spot": 99.0}
    wire["book"]["models"].append(other)
    wire["book"]["problems"][1]["model"] = 1
    return wire


MALFORMED = [
    pytest.param({}, "'book'", id="empty"),
    pytest.param(_with(book=[1, 2]), "'book'", id="book-not-a-dict"),
    pytest.param(_book_with(problems=[]), r"book\.problems", id="no-members"),
    pytest.param(_with(keys=[0]), "keys", id="keys-disagree"),
    pytest.param(_book_with(problems=[_good()["book"]["problems"][0], 7]),
                 r"book\.problems\[1\]", id="member-not-a-dict"),
    pytest.param(_book_with(models=None), r"book\.models", id="no-model"),
    pytest.param(_book_with(methods=[{"name": "MC_European"}]), r"book\.methods\[0\]\.method",
                 id="method-without-params"),
    pytest.param(_entry_with(method=3), r"book\.problems\[1\]\.method", id="method-out-of-range"),
    pytest.param(_entry_with(option=None), r"book\.problems\[1\]\.option",
                 id="member-without-option"),
    pytest.param(_two_models(), "simulation signature", id="members-not-one-family"),
    pytest.param(_with(kernel="nope"), "kernel", id="unknown-kernel"),
]


def _as_wire_bytes(payload: dict) -> bytes:
    """``payload`` tagged as a serialized ``ProblemBatch`` object."""
    name = b"ProblemBatch"
    tagged = b"O" + struct.pack(">I", len(name)) + name + xdr.encode(payload)
    return b"NSR0" + tagged


class TestMalformedPayload:
    def test_the_tagging_helper_matches_the_codec(self):
        batch = ProblemBatch(_var_ladder(2))
        assert _as_wire_bytes(batch.to_dict()) == serialize(batch).to_bytes()

    @pytest.mark.parametrize("payload, field", MALFORMED)
    def test_decoder_raises_a_typed_error_naming_the_field(self, payload, field):
        with pytest.raises(SerializationError, match=field):
            ProblemBatch.from_dict(payload)
        with pytest.raises(SerializationError, match=field):
            unserialize(_as_wire_bytes(payload))

    @pytest.mark.parametrize("payload, field", MALFORMED)
    def test_worker_answers_with_an_error_and_survives(self, payload, field):
        result, _elapsed, error = execute_payload(PAYLOAD_SERIAL, _as_wire_bytes(payload))
        assert result is None
        assert error is not None and error.startswith("SerializationError")

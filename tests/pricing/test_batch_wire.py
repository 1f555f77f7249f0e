"""The :class:`ProblemBatch` wire form: one model/method header, typed decode errors."""

from __future__ import annotations

import struct

import pytest

from repro.cluster.backends import PAYLOAD_SERIAL, execute_payload
from repro.errors import SerializationError
from repro.pricing import PricingProblem, ProblemBatch
from repro.serial import serialize, unserialize, xdr

#: the parent commit's encoding of the 50-member batch below (483 B per member)
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

    def test_header_is_written_once(self):
        batch = ProblemBatch(_var_ladder())
        wire = batch.to_dict()
        assert set(wire) == {"model", "method", "members", "keys", "kernel"}
        assert all(set(member) == {"label", "asset", "option"} for member in wire["members"])
        nbytes = len(serialize(batch).to_bytes())
        assert nbytes <= 0.4 * _PARENT_BATCH_BYTES
        assert nbytes / len(batch) <= 0.4 * 483

    def test_to_dict_is_a_copy_of_the_read_only_view(self):
        batch = ProblemBatch(_var_ladder(2))
        wire = batch.to_dict()
        wire["model"]["params"]["spot"] = -1.0
        wire["members"][0]["option"]["params"]["strike"] = -1.0
        assert batch.to_dict()["model"]["params"]["spot"] == 101.3
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


def _member_with(**changes) -> dict:
    wire = _good()
    wire["members"][1] = {**wire["members"][1], **changes}
    return wire


MALFORMED = [
    pytest.param({}, "members", id="empty"),
    pytest.param(_with(members=[]), "members", id="no-members"),
    pytest.param(_with(keys=[0]), "keys", id="keys-disagree"),
    pytest.param(_with(members=[_good()["members"][0], 7]), r"members\[1\]", id="member-not-a-dict"),
    pytest.param(_without("model"), "'model'", id="no-model"),
    pytest.param(_with(method={"name": "MC_European"}), "'method'", id="method-without-params"),
    pytest.param(_member_with(option=None), r"members\[1\]\.option", id="member-without-option"),
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

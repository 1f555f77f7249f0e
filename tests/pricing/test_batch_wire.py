"""The :class:`ProblemBatch` wire form and the columnar book it writes: one
model/method header, exact header dedup, typed decode errors."""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np
import pytest

from repro.cluster.backends import PAYLOAD_SERIAL, execute_payload
from repro.errors import SerializationError
from repro.pricing import PricingProblem, ProblemBatch, flat_correlation
from repro.pricing.book import read_book, write_book
from repro.serial import serialize, unserialize, xdr
from tests.oracles.book_writer import pack, unpack
from tests.oracles.books import basket_family

#: the encoding of the 50-member batch below when every member carried its own
#: model and method (483 B per member); the row-per-member book of protocol
#: v11 wrote it in 215 B a member
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

    def test_the_members_are_written_as_a_columnar_book_with_one_header(self):
        problems = _var_ladder()
        batch = ProblemBatch(problems)
        wire = batch.to_dict()
        assert set(wire) == {"book", "keys", "kernel"}
        book = unpack(wire["book"])
        assert set(book) == {"labels", "assets", "model", "method", "option"}
        assert book["labels"] == [problem.label for problem in problems]
        model, method, option = book["model"], book["method"], book["option"]
        assert [table["rows"] for table in model["tables"]] == [1]
        assert [table["rows"] for table in method["tables"]] == [1]
        assert model["index"].tolist() == method["index"].tolist() == [0] * 50
        assert option["index"].dtype == np.int64 and option["index"].tolist() == list(range(50))
        (calls,) = option["tables"]
        assert calls["name"] == "CallEuro" and calls["rows"] == 50
        assert calls["params"]["strike"].dtype == np.float64  # a column, not 50 floats
        assert method["tables"][0]["params"]["n_paths"].dtype == np.int64
        assert method["tables"][0]["params"]["antithetic"] == [False]  # a bool is no i8
        nbytes = len(serialize(batch).to_bytes())
        assert nbytes <= 0.2 * _PARENT_BATCH_BYTES
        assert nbytes / len(batch) <= 100

    def test_to_dict_is_a_copy_of_the_read_only_view(self):
        batch = ProblemBatch(_var_ladder(2))
        wire = batch.to_dict()
        wire["keys"][0] = -1
        assert batch.to_dict()["keys"] == [0, 1] and batch.keys == [0, 1]
        assert isinstance(wire["book"], bytes)  # the book is bytes: nothing to edit in place
        assert unpack(wire["book"])["model"]["tables"][0]["params"]["spot"][0] == 101.3
        assert batch.problems[0].product.strike == 80.0
        assert batch.problems[0].to_dict()["option"]["params"]["strike"] == 80.0


class TestAFamilyBookCarriesItsLeadersHeaders:
    """A batch is priced with its first member's model and method, so its book
    writes those headers once and an option row per member."""

    #: sha256 of the seven-member basket family below, pinned at protocol v12
    #: when every member's headers were keyed, re-pinned at v14 when the book
    #: became one block of bytes of its own layout
    BASKET_FAMILY_SHA256 = "974136cd8ed6ac3d7e528ee38ed7f1ab0c1dfe946e389974c7b7b3058d790e18"

    @pytest.mark.parametrize("family", ["ladder", "basket"])
    def test_bytes_equal_headers_write_the_bytes_of_their_own_book(self, family):
        problems = _var_ladder() if family == "ladder" else basket_family(
            [[100.0] * 10 for _ in range(7)])
        batch = ProblemBatch(problems, keys=range(7, 7 + len(problems)))
        own = {"book": write_book(problems), "keys": batch.keys, "kernel": batch.kernel}
        assert xdr.encode(batch.wire_view()) == xdr.encode(own)
        if family == "basket":
            digest = hashlib.sha256(serialize(batch).to_bytes()).hexdigest()
            assert digest == self.BASKET_FAMILY_SHA256

    def test_a_family_apart_only_by_list_and_array_prices_as_its_members_alone(self):
        problems = basket_family([[100.0] * 10, np.full(10, 100.0), [100.0] * 10,
                                   np.full(10, 100.0)])
        assert len(unpack(write_book(problems))["model"]["tables"][0]["params"]["spot"]) == 2
        batch = ProblemBatch(problems)
        book = unpack(batch.wire_view()["book"])
        assert [table["rows"] for table in book["model"]["tables"]] == [1]
        assert book["model"]["index"].tolist() == [0] * 4
        reply = unserialize(serialize(batch)).compute()
        assert reply.price.tolist() == [problem.compute().price for problem in problems]


def _call(label: str = "call", strike: float = 100.0, **model) -> PricingProblem:
    problem = PricingProblem(label=label)
    problem.set_model("BlackScholes1D", **{"spot": 100.0, "rate": 0.05, "volatility": 0.2,
                                           **model})
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    return problem.set_method("CF_Call")


def _round_trip(problems: list[PricingProblem]) -> tuple[dict, list[PricingProblem]]:
    book = write_book(problems)
    return unpack(book), read_book(book, "test")


class TestExactHeaders:
    """Two headers are one only if their written bytes would be equal."""

    def test_signed_zeros_stay_apart(self):
        book, rebuilt = _round_trip([_call(dividend=0.0), _call(dividend=-0.0)])
        assert book["model"]["index"].tolist() == [0, 1]
        assert [math.copysign(1.0, p.wire_view()["model"]["params"]["dividend"])
                for p in rebuilt] == [1.0, -1.0]

    def test_an_int_is_not_its_float(self):
        book, rebuilt = _round_trip([_call(spot=100), _call(spot=100.0), _call(spot=100)])
        assert book["model"]["index"].tolist() == [0, 1, 0]
        assert [type(p.wire_view()["model"]["params"]["spot"]) for p in rebuilt] == [
            int, float, int]
        assert rebuilt[0].model is rebuilt[2].model and rebuilt[0].model is not rebuilt[1].model

    def test_a_numpy_float_is_the_float_it_holds(self):
        book, rebuilt = _round_trip([_call(spot=np.float64(100.0)), _call(spot=100.0)])
        assert book["model"]["index"].tolist() == [0, 0]
        assert rebuilt[0].model is rebuilt[1].model

    def test_equal_looking_arrays_are_compared_in_full(self):
        spot = np.full(1001, 100.0)
        other = spot.copy()
        other[500] = 100.5
        assert str(spot) == str(other)  # numpy summarises past 1,000 elements

        def basket(spot: np.ndarray) -> PricingProblem:
            problem = PricingProblem(label="basket")
            problem.set_model("BlackScholesND", spot=spot, rate=0.05, volatilities=0.2)
            problem.set_option("BasketPutEuro", strike=100.0, maturity=1.0,
                               weights=np.full(1001, 1 / 1001))
            return problem.set_method("MC_European", n_paths=100, n_steps=1)

        book, rebuilt = _round_trip([basket(spot), basket(other), basket(spot.copy())])
        assert book["model"]["index"].tolist() == [0, 1, 0]
        assert [p.model.spot[500] for p in rebuilt] == [100.0, 100.5, 100.0]

    def test_a_value_the_book_shares_is_encoded_once_a_write(self, monkeypatch):
        correlation = flat_correlation(10, 0.3).tolist()

        def basket(volatility: float) -> PricingProblem:
            problem = PricingProblem(label="basket")
            problem.set_model("BlackScholesND", spot=[100.0] * 10, rate=0.05,
                              volatilities=[volatility] * 10, correlation=correlation)
            problem.set_option("BasketPutEuro", strike=100.0, maturity=1.0, weights=[0.1] * 10)
            return problem.set_method("MC_European", n_paths=100, n_steps=1)

        problems = [basket(0.2), basket(0.2), basket(0.3), basket(0.2)]
        encoded = []
        encode = xdr.encode
        monkeypatch.setattr(xdr, "encode", lambda value: encoded.append(value) or encode(value))
        book = write_book(problems)
        assert unpack(book)["model"]["index"].tolist() == [0, 0, 1, 0]
        assert sum(value is correlation for value in encoded) == 1
        monkeypatch.undo()
        assert read_book(book, "test") == problems

    def test_a_column_mixing_ints_and_floats_is_a_list_and_keeps_each_type(self):
        book, rebuilt = _round_trip([_call(strike=100), _call(strike=100.5)])
        assert book["option"]["tables"][0]["params"]["strike"] == [100, 100.5]
        assert [type(p.wire_view()["option"]["params"]["strike"]) for p in rebuilt] == [
            int, float]

    def test_members_of_one_header_share_one_model_and_one_method(self):
        problems = [_call(f"c{k}", 90.0 + k) for k in range(6)]
        problems[3].set_method("CF_Call")  # its own method dict, the same header
        _book, rebuilt = _round_trip(problems)
        assert len({id(p.model) for p in rebuilt}) == len({id(p.method) for p in rebuilt}) == 1
        assert rebuilt == problems
        assert [p.compute().price for p in rebuilt] == [p.compute().price for p in problems]

    def test_an_alias_keeps_its_name(self):
        problem = _call()
        problem.set_method("CF_CallEuro_BlackScholes")
        _book, (rebuilt,) = _round_trip([problem])
        assert rebuilt.method_name == "CF_CallEuro_BlackScholes" and rebuilt == problem


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
    wire["book"] = pack({**unpack(wire["book"]), **changes})
    return wire


def _leg_with(leg: str, **changes) -> dict:
    wire = _good()
    book = unpack(wire["book"])
    book[leg] = {**book[leg], **changes}
    wire["book"] = pack(book)
    return wire


def _two_models() -> dict:
    """Members that name different models: no shared simulation signature."""
    wire = _good()
    book = unpack(wire["book"])
    table = book["model"]["tables"][0]
    table["rows"] = 2
    table["params"] = {key: np.repeat(column, 2) for key, column in table["params"].items()}
    table["params"]["spot"][1] = 99.0
    book["model"]["index"] = np.array([0, 1])
    wire["book"] = pack(book)
    return wire


def _method_table_of_no_rows() -> dict:
    wire = _good()
    book = unpack(wire["book"])
    book["method"]["tables"][0]["rows"] = 0
    wire["book"] = pack(book)
    return wire


MALFORMED = [
    pytest.param({}, "'book'", id="empty"),
    pytest.param(_with(book=[1, 2]), "'book'", id="book-not-bytes"),
    pytest.param(_book_with(labels=[], assets=[]), r"book\.labels", id="no-members"),
    pytest.param(_with(keys=[0]), "keys", id="keys-disagree"),
    pytest.param(_book_with(assets=np.array([0, 99])), r"book\.assets", id="asset-out-of-range"),
    pytest.param(_leg_with("model", tables=[]), r"book\.model", id="no-model"),
    pytest.param(_method_table_of_no_rows(), r"book\.method\.tables\[0\]",
                 id="method-table-of-no-rows"),
    pytest.param(_leg_with("method", index=np.array([0, 3])), r"book\.method\.index",
                 id="method-out-of-range"),
    pytest.param(_leg_with("option", index=np.array([0, 0])), r"book\.option\.index",
                 id="option-row-named-twice"),
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


class TestPricesSurviveTheBook:
    """A book slice and a batch price, after the wire, what their problems
    price at home: ``==``, member for member."""

    def test_a_book_slice_of_a_mixed_book(self):
        from repro.pricing.scenarios import Scenario, ScenarioGrid
        from tests.oracles.books import mixed_book

        problems = [position.problem for position in mixed_book()]
        rows = list(range(100, 100 + 3 * len(problems), 3))
        part = ScenarioGrid(problems, [Scenario(name="base")], rows=rows)
        reply = unserialize(serialize(part)).compute()
        assert reply.ids.tolist() == rows and not reply.errors
        assert reply.price.tolist() == [problem.compute().price for problem in problems]

    def test_a_batch(self):
        problems = _var_ladder(8)
        reply = unserialize(serialize(ProblemBatch(problems))).compute()
        assert reply.price.tolist() == [problem.compute().price for problem in problems]

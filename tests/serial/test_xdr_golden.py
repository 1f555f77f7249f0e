"""The encoded bytes of one value of every supported type, pinned.

The digests below were produced by the ``isinstance``-chain encoder that the
exact-type dispatch table replaced (``python tests/serial/test_xdr_golden.py``
prints them afresh): the table is a faster route to the same bytes, whichever
arm -- table or fallback ladder -- a value takes.
"""

from __future__ import annotations

import enum
import hashlib

import numpy as np
import pytest

from repro.pricing import PricingProblem
from repro.pricing.batch import ProblemBatch
from repro.pricing.methods.base import PricingResult, ResultColumns
from repro.pricing.scenarios import Scenario, ScenarioGrid, historical_scenarios
from repro.serial import xdr


class Colour(enum.IntEnum):
    RED = 3


class Tagged(str):
    """A ``str`` subclass: misses the exact-type table, takes the ladder."""


def _mc_call(strike: float) -> PricingProblem:
    problem = PricingProblem(label=f"call_K{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("MC_European", n_paths=1000, n_steps=1, seed=7)
    return problem


def _reply() -> ResultColumns:
    """One reply with every kind of row: a full closed-form row, a Monte-Carlo
    row without ``delta``, a cache hit and a failed member."""
    return ResultColumns.from_results(
        [12, 7, 30],
        [
            PricingResult(price=10.450583572185565, delta=0.6368306511756191,
                          method_name="CF_Call", n_evaluations=1, elapsed=2.5e-05),
            PricingResult(price=8.02, std_error=0.25, confidence_interval=(7.53, 8.51),
                          method_name="MC_European", n_evaluations=1000, elapsed=0.0015),
            PricingResult(price=-0.0, delta=5e-324, method_name="CF_Call"),
        ],
        cache_hits=[False, False, True],
        errors={19: "ArithmeticError: payoff exploded"},
    )


def golden_values() -> dict[str, object]:
    return {
        "none": None,
        "true": True,
        "false": False,
        "int": 42,
        "int_negative": -(2**40),
        "int_min": -(2**63),
        "float": 3.141592653589793,
        "float_inf": float("inf"),
        "str_empty": "",
        "str_pad1": "abc",
        "str_pad0": "abcd",
        "str_utf8": "accented é and ✓",
        "bytes_pad3": b"\x00",
        "bytes_pad2": b"\x00\x01",
        "bytes_aligned": b"\x00\x01\x02\xff",
        "bytearray": bytearray(b"block"),
        "list": [1, 2.5, "x", None, True, [b"in", (1, 2)]],
        "tuple": (1, "two", 3.0),
        "dict": {"a": 1, "bb": {"ccc": [False, None]}, "dddd": 2.0},
        "np_int64": np.int64(-5),
        "np_int32": np.int32(7),
        "np_float64": np.float64(0.1),
        "np_float32": np.float32(0.5),
        "int_enum": Colour.RED,
        "str_subclass": Tagged("tagged"),
        "array_f8": np.arange(6, dtype=float).reshape(2, 3),
        "array_i4": np.arange(5, dtype=np.int32),
        "array_bool": np.array([True, False, True]),
        "array_empty": np.array([], dtype=float),
        "problem": _mc_call(100.0),
        "nested_batch": {
            "job_id": 3,
            "payload": [ProblemBatch([_mc_call(90.0), _mc_call(110.0)], keys=[3, 4])],
        },
        "grid_slice": ScenarioGrid(
            [_mc_call(90.0), _mc_call(110.0)], historical_scenarios([0.01, -0.02, 0.005]),
            on_missing="base",
        ).slice(1, 3, kernel="loop", answered=[6]),
        "book_slice": ScenarioGrid(
            [_mc_call(90.0), _mc_call(110.0), _mc_call(100.0)], [Scenario(name="base")],
            kernel="loop", answered=[12], rows=[1004, 12, 7],
        ),
        "result_columns": {"job_id": 7, "result": _reply(), "elapsed": 0.25, "error": None},
    }


GOLDEN = {
    "none": "8ce86a6ae65d3692e7305e2c58ac62eebd97d3d943e093f577da25c36988246b",
    "true": "e632b7095b0bf32c260fa4c539e9fd7b852d0de454e9be26f24d0d6f91d069d3",
    "false": "f67ab10ad4e4c53121b6a5fe4da9c10ddee905b978d3788d2723d7bfacbe28a9",
    "int": "87a104a75ac11576649ff5cc64c8702875fb56443060613d42423e52dcd3a3fc",
    "int_negative": "c6529667130fe228e971b35b3e522d181a9333d1eaf16655759fb524ddec19d8",
    "int_min": "0ed58a4b9f63d03684a2c4cfe0f1b714ab85e2ee472371a3e7629160e8d04021",
    "float": "4f5bb9762ec60436ca338bd25ba42a5520a7e25b58e50fa8c1623f51215e9794",
    "float_inf": "0b9254eaabd379873c96f75deec6ff51e99cceaffeb46a53aff8b959193147c1",
    "str_empty": "2e2818527e4a6cab6f3ade4fa04e2e972a3d16e6b7ab4ba5068dcc9e2ede5471",
    "str_pad1": "2dc518b3ff4b59bd30c4be55f49bc1a3daa69db4b5666af5c04f4dac4cf9deef",
    "str_pad0": "e98a3221d0a024dd9eb7905d3c5bfc899ec0c1c669ea1e92413f62e231cf02e4",
    "str_utf8": "30926e7996277d140982255e964655dded1b269b8d6e5c379ba2977a3423c6dc",
    "bytes_pad3": "625eef0c14a43cb6c13962c49c93612ef52c140c131f4833cb14fa8ad8602c7a",
    "bytes_pad2": "d26803ed40b3955137ab348b139f16562e98d77744973db6b253d781315e96c2",
    "bytes_aligned": "f9095484a159b8856a8c6ecae30e366573caf8b81a8e241ced93682a1a686983",
    "bytearray": "01332ef6f95a018648e29b143027a87c3df5d1c67d4834d152d8c9b38e8cf81b",
    "list": "195224567a6927c11e964d48c510ae27db3a71e1da267a3c5ecf6bc6fa0fbf1f",
    "tuple": "574b0d9d79cc104bd0af69e06f489b6d07986b22e9eae39bffc2c1bb4caada84",
    "dict": "f28c21b93546cec77914ec281fa6b4981aa0af7d276c3a2e42c3f177e8cc78a5",
    "np_int64": "f434cda92bd2b3765904211243ea6b8f075d40154e83a86fa9ec5e81285b2b4c",
    "np_int32": "de9a197415d01804d342f47574dfadb63d5a2162e4f47cef5696d1b165a8f19b",
    "np_float64": "5418ea74080a880376394a3d4e3252d2b0971e1f0460dc40ebbcb70b30c3c97b",
    "np_float32": "07a1399f04f87efcbbd24106cd880c502fed5940718efc05f6d80ccabf73c287",
    "int_enum": "903caffd3e0963ec148ee55dd8cc5ad77fbab5af124b638e25447cee71dd9e20",
    "str_subclass": "974e81255a5715827b40b04aafb433a3b1f7b6708d86a0968e0bc563330ecae5",
    "array_f8": "328e1d19765c317ebb3793499b88847c0af96d727e1da7358b0ae16d0bc87bb1",
    "array_i4": "7ff2daab602c5c76ab44ded1b52b137f4673ed406c4a8ec32c980e20fd6ae046",
    "array_bool": "38bcaa0ceeb6fd8718740eab0a2cc5c5721eaa949557b4af2bffda45afe830ef",
    "array_empty": "cee297e7dcc01773e78ec25df779ee8b4dfe7e80dd3fcfd4605e84e20875aee7",
    "problem": "55655ab2fdf2f352065ebb49082be86536c8bb9c78d035ec24fbde1b8e197ede",
    # re-pinned at wire protocol v11, when a batch's members became a book
    # (the format of a grid's base book); the encoder did not change
    "nested_batch": "2ba7f908177e5c5e4af85a7029c07f012fb78a0d4941c65b42be2ead3176637f",
    # pinned when the payload was introduced (wire protocol v7); a grid that
    # names no rows is still written so
    "grid_slice": "999301cfbe1c8cc6381f16f23d7e3bb7f7ccf46a66af63c37fef1f56ed705908",
    # a book slice: the same payload with its ``rows`` column (wire protocol v9)
    "book_slice": "b63ed20e440a65cc0a591e4aa7cbc90b6f1ee96b80c334f25c2a7229676d23d1",
    # the reply of a payload with members, in its result frame (wire protocol v8)
    "result_columns": "492ff3402fd2654a1e4c8155b6bf19554b34db44692f0304776897938b14b526",
}


def _digest(value: object) -> str:
    return hashlib.sha256(xdr.encode(value)).hexdigest()


@pytest.mark.parametrize("name", sorted(golden_values()))
def test_encoded_bytes_match_the_isinstance_chain_encoder(name):
    assert _digest(golden_values()[name]) == GOLDEN[name]


def test_the_pinned_reply_reads_back_row_for_row():
    reply = xdr.decode(xdr.encode(golden_values()["result_columns"]))["result"]
    assert isinstance(reply, ResultColumns) and list(reply) == [12, 7, 30, 19]
    assert reply[12]["delta"] == 0.6368306511756191 and reply[12]["std_error"] is None
    assert reply[7]["delta"] is None and reply[7]["confidence_interval"] == [7.53, 8.51]
    assert reply[30]["cache_hit"] is True and "cache_hit" not in reply[7]
    assert str(reply[30]["price"]) == "-0.0" and reply[30]["delta"] == 5e-324
    assert reply[19] == {"error": "ArithmeticError: payoff exploded"}


if __name__ == "__main__":
    for key, item in golden_values().items():
        print(f'    "{key}": "{_digest(item)}",')

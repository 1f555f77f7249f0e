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
from repro.pricing.methods.base import ResultColumns
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


def _cf_vanilla(strike: float, call: bool, dividend: float, spot: float = 100.0) -> PricingProblem:
    """A position of the toy book: a closed-form call or put, whose method
    header has no parameters."""
    problem = PricingProblem(label=f"{'call' if call else 'put'}_K{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=spot, rate=0.045, volatility=0.22, dividend=dividend)
    problem.set_option("CallEuro" if call else "PutEuro", strike=strike, maturity=0.75)
    problem.set_method("CF_Call" if call else "CF_Put")
    return problem


def _reply() -> ResultColumns:
    """One reply with every kind of row: a full closed-form row, a Monte-Carlo
    row without ``delta`` (NaN), a row of signed zero and a subnormal, and a
    failed member."""
    nan = float("nan")
    return ResultColumns(
        {
            "ids": np.array([12, 7, 30], dtype=np.int64),
            "price": np.array([10.450583572185565, 8.02, -0.0]),
            "delta": np.array([0.6368306511756191, nan, 5e-324]),
            "std_error": np.array([nan, 0.25, nan]),
            "ci_low": np.array([nan, 7.53, nan]),
            "ci_high": np.array([nan, 8.51, nan]),
            "elapsed": np.array([2.5e-05, 0.0015, 0.0]),
            "n_evaluations": np.array([1, 1000, 0], dtype=np.int64),
            "method": np.array([0, 1, 0], dtype=np.int64),
        },
        ["CF_Call", "MC_European"],
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
        # closed-form positions under three model headers, two of them apart
        # only by the sign of a zero dividend (the last position's zero is
        # another float object of the same bytes), and two parameter-less methods
        "toy_book_slice": ScenarioGrid(
            [_cf_vanilla(90.0, True, 0.0), _cf_vanilla(95.0, False, -0.0),
             _cf_vanilla(100.0, True, -0.0), _cf_vanilla(105.0, False, 0.0),
             _cf_vanilla(110.0, True, 0.0, spot=104.0), _cf_vanilla(80.0, False, float("0"))],
            [Scenario(name="base")], rows=[0, 1, 2, 3, 4, 5],
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
    # re-pinned at wire protocol v12, when a book became parameter columns
    # (a batch's members are a book since v11), and at v14, when the book
    # became one block of bytes of its own layout
    "nested_batch": "3bbe84202b80850a4f4d6b145ec335b1f42e0467f3d14ba50143ef7d985f0ec5",
    # pinned when the payload was introduced (wire protocol v7), re-pinned at
    # v12 for its columnar base book and at v14 for the book's byte layout; a
    # grid that names no rows writes no rows
    "grid_slice": "9ffe05000bc8a3667b1a61a80f682687ba9e695c9fa04e5d58ca70da542efda7",
    # a book slice: the same payload with its ``rows`` column (wire protocol
    # v9), re-pinned at v12 for its columnar book and at v14 for its layout
    "book_slice": "d2483b03f9b321662aabcd1147da7502adc05049ec7d2e01f6c2edc517b0586a",
    # a closed-form book slice, pinned at wire protocol v12 before the book
    # writer keyed parameter-less and all-float headers by faster paths,
    # re-pinned at v14 for the book's byte layout
    "toy_book_slice": "7f3321ce2e82bf00f6fe0da1641bd96445022aab1dee9a7559f2a7a93a1140e4",
    # the reply of a payload with members, in its result frame (wire protocol
    # v8), re-pinned at v12 when the always-false cache_hit column left it and
    # at v13 when the record became one block of bytes: a header, the float
    # block, the int block and the text
    "result_columns": "ccf756640abc848c9d3f509e777310547970f21ffaeba6e4326162fab2c1d6dc",
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
    assert all("cache_hit" not in reply[row] for row in (12, 7, 30))
    assert str(reply[30]["price"]) == "-0.0" and reply[30]["delta"] == 5e-324
    assert reply[19] == {"error": "ArithmeticError: payoff exploded"}


if __name__ == "__main__":
    for key, item in golden_values().items():
        print(f'    "{key}": "{_digest(item)}",')

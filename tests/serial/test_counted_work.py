"""Work counted on the book-slice route: Python calls per book and per reply.

The master's cost on a book of cheap positions is the number of Python
calls it makes per value, so the count is pinned where a timing could not
be.  A call is a Python function of :mod:`repro` entered (a generator
resumed counts again); list, dict and set comprehensions are left out,
since Python 3.12 runs them inside their caller.  NumPy's own functions are
not counted: calls into NumPy are C work here.

* writing and encoding the toy book (:func:`~repro.pricing.book.write_book`
  then :func:`~repro.serial.xdr.encode`) makes a fixed number of calls at
  width 1, a few more at width 2 (a put beside a call: one more table in the
  method and option legs) and no more at width 750 -- none per position;
* decoding a :class:`~repro.pricing.methods.base.ResultColumns` reply makes
  as many calls for 750 rows as for one (a second method name aside).

Any loop that makes a call per position or per row moves these pins by
hundreds; two seeds of the book's spot and volatility give the same counts.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

import repro
from repro.core.portfolio import build_toy_portfolio
from repro.pricing.book import write_book
from repro.pricing.methods.base import PricingResult, ResultColumns
from repro.serial import xdr

_PACKAGE = str(Path(repro.__file__).parent)
#: the code objects Python 3.12 inlines into their caller
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: Python calls of ``xdr.encode(write_book(book[:width]))``, by width
BOOK_CALLS = {1: 62, 2: 80, 750: 80}
#: Python calls of ``xdr.decode`` of a reply's result frame record, by rows
REPLY_CALLS = {1: 47, 750: 49}
SEEDS = (1, 2)


def python_calls(work: Callable[[], Any]) -> int:
    """The Python functions of :mod:`repro` ``work`` enters (or resumes)."""
    count = 0

    def profile(frame, event, _arg) -> None:
        nonlocal count
        if event == "call":
            code = frame.f_code
            count += code.co_filename.startswith(_PACKAGE) and code.co_name not in _INLINED

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return count


def _toy_book(seed: int) -> list:
    rng = np.random.default_rng(seed)
    book = build_toy_portfolio(750, spot=100.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)),
                               volatility=0.22 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0)))
    return [position.problem for position in book]


def _reply(seed: int, rows: int) -> bytes:
    rng = np.random.default_rng(seed)
    results = [PricingResult(price=float(rng.uniform(1.0, 20.0)), delta=0.5,
                             method_name="CF_Put" if row % 2 else "CF_Call")
               for row in range(rows)]
    record = ResultColumns.from_results(list(range(rows)), results)
    return xdr.encode({"job_id": 0, "result": record, "elapsed": 0.01, "error": None})


@pytest.mark.parametrize("seed", SEEDS)
def test_a_book_is_written_and_encoded_with_no_call_per_position(seed):
    problems = _toy_book(seed)
    counted = {width: python_calls(lambda: xdr.encode(write_book(problems[:width])))
               for width in BOOK_CALLS}
    assert counted == BOOK_CALLS


@pytest.mark.parametrize("seed", SEEDS)
def test_a_reply_is_decoded_with_no_call_per_row(seed):
    replies = {rows: _reply(seed, rows) for rows in REPLY_CALLS}
    counted = {rows: python_calls(lambda: xdr.decode(data)) for rows, data in replies.items()}
    assert counted == REPLY_CALLS

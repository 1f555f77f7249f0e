"""The column-at-a-time book writer against the writer it replaced.

:mod:`tests.oracles.book_writer` keeps the position-by-position writer and
packs its dictionary of columns as the book's byte layout.  On
generated books -- headers apart only by a signed zero, by ``1`` against
``1.0`` or by a parameter left out, parameters in another order, equal values
held as one shared object or as separate ones, calls beside puts, closed
forms beside Monte-Carlo methods -- the two must write the same bytes, on
their own and under a family leader's headers (a
:class:`~repro.pricing.batch.ProblemBatch`).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pricing import PricingProblem
from repro.pricing.book import write_book
from tests.oracles import book_writer

#: values whose written bytes differ though some of them compare equal
SPOTS = (100.0, 100, 99.5, np.float64(100.0))
RATES = (0.05, 0.0, -0.0)
VOLATILITIES = (0.2, 0.25)
#: ``None`` leaves the parameter out: another parameter list
DIVIDENDS = (None, 0.0, -0.0, 0)
STRIKES = (90.0, 100, 110.5, np.float64(95.0))
METHODS = (("CF_Call", {}), ("CF_Put", {}), ("MC_European", {"n_paths": 1000, "seed": 3}),
           ("MC_European", {"n_paths": 2000, "seed": 3}))


def _afresh(value):
    """An equal value as a separate object (ints below 257 are shared anyway)."""
    return type(value)(float(str(value))) if isinstance(value, float) else value


@st.composite
def books(draw) -> list[PricingProblem]:
    problems = []
    for index in range(draw(st.integers(1, 16))):
        model = {"spot": draw(st.sampled_from(SPOTS)), "rate": draw(st.sampled_from(RATES)),
                 "volatility": draw(st.sampled_from(VOLATILITIES))}
        dividend = draw(st.sampled_from(DIVIDENDS))
        if dividend is not None:
            model["dividend"] = dividend
        if draw(st.booleans()):
            model = dict(reversed(list(model.items())))
        if draw(st.booleans()):
            model = {key: _afresh(value) for key, value in model.items()}
        method, method_params = draw(st.sampled_from(METHODS))
        problem = PricingProblem(label=f"position_{index}")
        problem.set_model("BlackScholes1D", **model)
        problem.set_option(draw(st.sampled_from(["CallEuro", "PutEuro"])),
                           strike=draw(st.sampled_from(STRIKES)),
                           maturity=draw(st.sampled_from([1.0, 0.5])))
        problem.set_method(method, **dict(method_params))
        problems.append(problem)
    return problems


@settings(max_examples=80, deadline=None)
@given(books())
def test_a_book_is_written_as_the_old_writer_wrote_it(problems):
    assert write_book(problems) == book_writer.pack(book_writer.write_book(problems))


@settings(max_examples=20, deadline=None)
@given(books())
def test_a_family_book_under_its_leaders_headers_is_written_as_before(problems):
    headers = problems[0].wire_legs()[:2]
    assert (write_book(problems, headers)
            == book_writer.pack(book_writer.write_book(problems, headers)))

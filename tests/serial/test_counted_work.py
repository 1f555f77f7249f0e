"""Work counted on the book-slice route: Python calls per book and per reply.

The master's cost on a book of cheap positions is the number of Python
calls it makes per value, so the count is pinned where a timing could not
be.  A call is a Python function of :mod:`repro` entered (a generator
resumed counts again); list, dict and set comprehensions are left out,
since Python 3.12 runs them inside their caller.  NumPy's own functions are
not counted: calls into NumPy are C work here.

* writing the toy book's bytes (:func:`~repro.pricing.book.write_book`)
  makes a fixed number of calls at width 1, a few more at width 2 (a put
  beside a call: one more table in the method and option legs) and no more
  at width 750 -- none per position;
* a book slice of one position (a :class:`ScenarioGrid` built, serialized
  and made bytes) makes less than twice the calls of that position sent
  alone;
* decoding a :class:`~repro.pricing.methods.base.ResultColumns` reply makes
  as many calls for 750 rows as for one, through either door: the XDR of a
  remote worker's result frame, and the unpickling of a worker process's
  reply, where the C functions called (``c_call`` events) are counted too;
* one ``dispatch`` + ``collect`` of a job on worker processes makes one
  ``select`` and a handful of other Python calls on the master's main
  thread, and no other thread of the master makes any call at all; over a
  loopback ``repro-worker`` it makes one ``select`` too, and a fixed number
  of other calls (the XDR of the job and of its reply among them).

Any loop that makes a call per position or per row moves these pins by
hundreds; two seeds of the book's spot and volatility give the same counts.
"""

from __future__ import annotations

import pickle
import selectors
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

import repro
from repro.cluster.backends import PAYLOAD_SERIAL, Job, MultiprocessingBackend, PreparedMessage
from repro.cluster.backends.remote import RemoteBackend
from repro.cluster.worker import spawn_local_workers
from repro.core.portfolio import build_toy_portfolio
from repro.pricing.book import write_book
from repro.pricing.methods.base import PricingResult, ResultColumns
from repro.pricing.scenarios import Scenario, ScenarioGrid
from repro.serial import serialize, xdr

_PACKAGE = str(Path(repro.__file__).parent)
#: the code objects Python 3.12 inlines into their caller
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: Python calls of ``write_book(book[:width])``, by width
BOOK_CALLS = {1: 21, 2: 29, 750: 29}
#: Python calls and C calls of ``serialize(...).to_bytes()`` of a book slice
#: of one toy position and of the lone position, warm
SLICE_CALLS = {"slice": (52, 176), "position": (30, 143)}
#: Python calls of ``xdr.decode`` of a reply's result frame record, by rows
REPLY_CALLS = {1: 18, 750: 18}
#: Python calls and C calls of ``pickle.loads`` of a worker process's reply
#: tuple, by rows
PICKLED_REPLY_CALLS = {1: (3, 21), 750: (3, 21)}
#: Python calls on the master's main thread of one ``dispatch`` + ``collect``
#: on worker processes: the selector's ``select``, and every call outside the
#: selector module (whose own helpers Python 3.12 inlined into ``select``)
#: but a comprehension's
LINK_CALLS = {"select": 1, "other": 7}
#: the same over one loopback TCP connection to a ``repro-worker``
REMOTE_CALLS = {"select": 1, "other": 51}
SEEDS = (1, 2)


def counted_calls(work: Callable[[], Any]) -> tuple[int, int]:
    """The Python functions of :mod:`repro` ``work`` enters (or resumes), and
    the C functions any Python code in it calls (``c_call`` events)."""
    python = c = 0

    def profile(frame, event, _arg) -> None:
        nonlocal python, c
        if event == "call":
            code = frame.f_code
            python += code.co_filename.startswith(_PACKAGE) and code.co_name not in _INLINED
        elif event == "c_call":
            c += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return python, c


def python_calls(work: Callable[[], Any]) -> int:
    """The Python functions of :mod:`repro` ``work`` enters (or resumes)."""
    return counted_calls(work)[0]


def _toy_book(seed: int) -> list:
    rng = np.random.default_rng(seed)
    book = build_toy_portfolio(750, spot=100.0 * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)),
                               volatility=0.22 * (1.0 + 0.2 * rng.uniform(-1.0, 1.0)))
    return [position.problem for position in book]


def _record(seed: int, rows: int) -> ResultColumns:
    rng = np.random.default_rng(seed)
    results = [PricingResult(price=float(rng.uniform(1.0, 20.0)), delta=0.5,
                             method_name="CF_Put" if row % 2 else "CF_Call")
               for row in range(rows)]
    return ResultColumns.from_results(list(range(rows)), results)


def _reply(seed: int, rows: int) -> bytes:
    record = _record(seed, rows)
    return xdr.encode({"job_id": 0, "result": record, "elapsed": 0.01, "error": None})


@pytest.mark.parametrize("seed", SEEDS)
def test_a_book_is_written_with_no_call_per_position(seed):
    problems = _toy_book(seed)
    counted = {width: python_calls(lambda: write_book(problems[:width]))
               for width in BOOK_CALLS}
    assert counted == BOOK_CALLS


def test_a_width_one_slice_costs_what_its_lone_position_costs():
    """A slice's fixed part: the book, the grid's envelope and the codec's wrapper."""
    problem = _toy_book(1)[0]
    work = {
        "slice": lambda: serialize(
            ScenarioGrid([problem], (Scenario(name="base"),), rows=(0,))).to_bytes(),
        "position": lambda: serialize(problem).to_bytes(),
    }
    for run in work.values():
        run()  # the codec's first write of a shape fills its caches
    assert {name: counted_calls(run) for name, run in work.items()} == SLICE_CALLS
    assert SLICE_CALLS["slice"][0] <= 2 * SLICE_CALLS["position"][0]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_reply_is_decoded_with_no_call_per_row(seed):
    replies = {rows: _reply(seed, rows) for rows in REPLY_CALLS}
    counted = {rows: python_calls(lambda: xdr.decode(data)) for rows, data in replies.items()}
    assert counted == REPLY_CALLS


@pytest.mark.parametrize("seed", SEEDS)
def test_a_pickled_reply_is_read_with_no_call_per_row(seed):
    """What a worker process writes: ``(job_id, worker_id, record, elapsed, error)``."""
    replies = {rows: pickle.dumps((0, 0, _record(seed, rows), 0.01, None),
                                  pickle.HIGHEST_PROTOCOL)
               for rows in PICKLED_REPLY_CALLS}
    counted = {rows: counted_calls(lambda: pickle.loads(data)) for rows, data in replies.items()}
    assert counted == PICKLED_REPLY_CALLS


def _calls_per_job(backend) -> tuple[list[dict[str, int]], list[str]]:
    """Python calls of each ``dispatch`` + ``collect`` on the main thread
    after a first one that warms up, and the calls made on any other thread,
    counted from ``on_run_start``: a thread the pool starts there is seen."""
    main, counting = threading.get_ident(), False
    counted: Counter = Counter()
    elsewhere: list[str] = []

    def on_main(frame, event, _arg) -> None:
        if event == "call" and counting:
            code = frame.f_code
            if code.co_filename != selectors.__file__:
                counted["other"] += code.co_name not in _INLINED
            elif code.co_name == "select":
                counted["select"] += 1

    def off_main(frame, event, _arg) -> None:
        if event == "call" and threading.get_ident() != main:
            elsewhere.append(frame.f_code.co_name)

    data = serialize(_toy_book(1)[0]).to_bytes()
    units = [(Job(job_id=job_id, path="", file_size=len(data)),
              PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data)))
             for job_id in range(4)]
    previous = sys.getprofile()
    threading.setprofile(off_main)
    sys.setprofile(on_main)
    per_unit = []
    try:
        backend.on_run_start(len(units))
        for index, (job, message) in enumerate(units):
            counting = index > 0  # the first unit warms up
            backend.dispatch(0, job, message)
            backend.collect(timeout=30.0)
            counting = False
            if index:
                per_unit.append(dict(counted))
                counted.clear()
    finally:
        sys.setprofile(previous)
        threading.setprofile(None)  # type: ignore[arg-type]
        backend.finalize()
    return per_unit, elsewhere


def test_a_job_on_worker_processes_costs_the_master_a_handful_of_calls():
    per_unit, elsewhere = _calls_per_job(MultiprocessingBackend(n_workers=1))
    assert per_unit == [LINK_CALLS] * 3
    assert elsewhere == []


def test_a_job_on_a_remote_worker_costs_the_master_a_fixed_count_of_calls():
    with spawn_local_workers(1) as pool:
        per_unit, elsewhere = _calls_per_job(RemoteBackend(pool.hosts))
    assert per_unit == [REMOTE_CALLS] * 3
    assert elsewhere == []

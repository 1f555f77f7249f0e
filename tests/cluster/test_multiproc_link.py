"""The multiprocessing backend's link: one socket pair per worker.

The master writes a job frame without ever blocking on it (what a worker's
end does not take waits in that worker's outbox), and one selector over
every master end and every process sentinel flushes the outboxes, reads the
replies and sees a death at once.  So:

* jobs and replies far larger than a socket's buffer cross both ways at
  the same time without either side waiting on the other for ever;
* a worker killed while it holds jobs is buried as it dies, not after a
  polling slice: its jobs go to the worker left, which answers them under
  the logical worker they were dispatched to;
* a job sent to a worker that is already dead goes to the survivor, and
  the dispatch raises nothing;
* the master runs no thread of its own: a whole session run keeps
  :func:`threading.active_count` where it was.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import threading
import time

import pytest

from repro.api import ValuationSession
from repro.cluster.backends import PAYLOAD_SERIAL, Job, PreparedMessage
from repro.cluster.backends import multiproc
from repro.cluster.backends.multiproc import MultiprocessingBackend
from repro.core.portfolio import build_toy_portfolio
from repro.pricing import PricingProblem
from repro.serial import serialize

#: bytes of each large job and of its echoed reply: many socket buffers
LARGE = 4 << 20


def _send(backend: MultiprocessingBackend, worker_id: int, job_id: int, payload: bytes) -> None:
    backend.dispatch(
        worker_id,
        Job(job_id=job_id, path="", file_size=len(payload)),
        PreparedMessage(kind=PAYLOAD_SERIAL, payload=payload, nbytes=len(payload)),
    )


def _call(strike: float) -> bytes:
    problem = PricingProblem(label=f"link_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return serialize(problem).to_bytes()


def _started_since(before) -> list:
    """Worker processes started after ``before`` was taken, in start order."""
    return sorted(set(mp.active_children()) - before, key=lambda process: process.pid)


@contextlib.contextmanager
def _deadline(seconds: int):
    """Fail, rather than hang, if the body is still running after ``seconds``
    (a send blocked in the kernel is interrupted too)."""
    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_large_jobs_and_large_replies_cross_without_a_deadlock(monkeypatch):
    # set before the fork: each worker echoes its payload back as its result
    monkeypatch.setattr(multiproc, "execute_payload",
                        lambda kind, payload: ({"echo": payload}, 0.0, None))
    payloads = {job_id: bytes([job_id + 1]) * (LARGE + job_id) for job_id in range(4)}
    backend = MultiprocessingBackend(n_workers=2)
    backend.on_run_start(len(payloads))
    try:
        with _deadline(60):
            start = time.monotonic()
            for job_id, payload in payloads.items():
                _send(backend, job_id % 2, job_id, payload)  # two to each worker
            assert all(backend._outboxes)  # the sends returned with bytes left to write
            echoed = {}
            for _ in payloads:
                done = backend.collect(timeout=30.0)
                echoed[done.job_id] = done.result["echo"]
            assert time.monotonic() - start < 30.0
        assert echoed == payloads
    finally:
        backend.finalize()


def test_a_killed_worker_s_jobs_move_to_its_neighbour_as_it_dies():
    before = set(mp.active_children())
    backend = MultiprocessingBackend(n_workers=2)
    backend.on_run_start(3)
    killed: list[float] = []
    victim = _started_since(before)[0]
    try:
        os.kill(victim.pid, signal.SIGSTOP)  # it holds what it is sent
        for job_id, worker_id in ((0, 0), (1, 0), (2, 1)):
            _send(backend, worker_id, job_id, _call(100.0 + job_id))
        assert backend.collect(timeout=30.0).job_id == 2

        def kill() -> None:
            killed.append(time.monotonic())
            os.kill(victim.pid, signal.SIGKILL)

        # the collect is already waiting when the worker dies, 0.1 s into what
        # a 0.5 s polling slice would have been
        timer = threading.Timer(0.1, kill)
        timer.start()
        first = backend.collect(timeout=60.0)
        answered = time.monotonic()
        timer.join()
        second = backend.collect(timeout=30.0)
        assert [(done.job_id, done.worker_id) for done in (first, second)] == [(0, 0), (1, 0)]
        assert answered - killed[0] < 0.25
        assert backend.finalize().extra["redispatches"] == 2
    finally:
        if victim.is_alive():
            os.kill(victim.pid, signal.SIGKILL)
        backend.finalize()


def test_a_dispatch_to_a_dead_worker_goes_to_the_survivor():
    before = set(mp.active_children())
    backend = MultiprocessingBackend(n_workers=2)
    backend.on_run_start(3)
    try:
        victim = _started_since(before)[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
        assert not victim.is_alive()
        _send(backend, 0, 7, _call(100.0))  # its end is closed: no OSError here
        _send(backend, 1, 8, _call(101.0))
        collected = [backend.collect(timeout=30.0) for _ in range(2)]
        assert [(done.job_id, done.worker_id) for done in collected] == [(7, 0), (8, 1)]
        _send(backend, 0, 9, _call(102.0))  # the dead end is no longer watched
        assert backend.collect(timeout=30.0).job_id == 9
        stats = backend.finalize()
        assert stats.extra["redispatches"] == 1  # job 7, re-sent once
        assert stats.worker_busy[0] == 0.0  # the survivor answered all three
    finally:
        backend.finalize()
    assert not any(process.is_alive() for process in backend._processes)


@pytest.mark.parametrize("scheduler", [None, "priority"])
def test_a_session_run_starts_no_thread_in_the_master(scheduler):
    """Book slices and the per-position route alike."""
    baseline = threading.active_count()
    seen: list[int] = []
    session = ValuationSession(backend="multiprocessing", n_workers=2)
    result = session.run(build_toy_portfolio(60), scheduler=scheduler,
                         progress=lambda event: seen.append(threading.active_count()))
    assert result.ok and len(result.prices()) == 60
    assert seen and set(seen) == {baseline}
    assert threading.active_count() == baseline

"""Every way of reading a campaign survives a lost pool of real workers.

``Campaign.pump`` is the one call through which ``run``, stream iteration,
``future.result()``, ``as_completed``, ``gather``, ``greeks`` and ``risk``
collect, and it is where a lost pool is recovered.  Each reader is driven
through a pool lost mid-read -- every worker of a multiprocessing pool
killed, and the only worker of a loopback pool restarted on its port -- and
must return exactly what an undisturbed ``local`` run returns, from a pool
the campaign built once more.  A pool that keeps a worker is not lost: the
survivor takes the dead worker's jobs, and nothing is rebuilt.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from typing import Any, Callable

import pytest

from repro.api import ValuationSession
from repro.cluster.backends.multiproc import MultiprocessingBackend
from repro.cluster.worker import spawn_local_workers
from repro.core.portfolio import Portfolio, Position
from repro.pricing import PricingProblem

RETURNS = [0.002 * (k % 11 - 5) for k in range(30)]


def _book(n: int) -> Portfolio:
    problems = []
    for k in range(n):
        problem = PricingProblem(label=f"recover_{k}")
        problem.set_asset("equity")
        problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
        problem.set_option("CallEuro", strike=80.0 + 3 * k, maturity=1.0)
        problem.set_method("MC_European", n_paths=20_000, seed=7)
        problems.append(problem)
    return Portfolio(positions=[Position(p, label=p.label) for p in problems])


def _on_futures(session: ValuationSession, book: Portfolio, kill: Callable) -> Any:
    futures = session.submit_many([position.problem for position in book.positions])
    for future in futures:
        future.add_done_callback(kill)
    return futures


def _stream(session, book, kill):
    return {result.job_id: result.price for result in session.stream(book, progress=kill)}


def _future_result(session, book, kill):
    return [future.price() for future in _on_futures(session, book, kill)]


def _as_completed(session, book, kill):
    landed = _on_futures(session, book, kill).as_completed()
    return {future.job_id: future.price() for future in landed}


def _gather(session, book, kill):
    _on_futures(session, book, kill)
    return session.gather().prices()


#: reader -> (the book it reads, how it reads it under a kill callback)
READERS: dict[str, tuple[int, Callable[[ValuationSession, Portfolio, Callable], Any]]] = {
    "run": (16, lambda session, book, kill: session.run(book, progress=kill).prices()),
    "stream": (16, _stream),
    "future_result": (16, _future_result),
    "as_completed": (16, _as_completed),
    "gather": (16, _gather),
    "greeks": (6, lambda session, book, kill: session.greeks(book, progress=kill)),
    "risk": (6, lambda session, book, kill: session.risk(
        book, spot_returns=RETURNS, progress=kill)),
}


def _once(action: Callable[[], None]) -> Callable[[Any], None]:
    """A callback that runs ``action`` the first time it is called."""
    fired = threading.Event()

    def callback(_event: Any) -> None:
        if not fired.is_set():
            fired.set()
            action()

    return callback


def _read(reader: str, session: ValuationSession, kill: Callable) -> Any:
    n_positions, read = READERS[reader]
    return read(session, _book(n_positions), kill)


def _count_builds(session: ValuationSession, monkeypatch) -> list:
    """The backends ``session`` builds, the pools a campaign rebuilds included."""
    builds: list = []
    acquire = session._acquire_backend
    monkeypatch.setattr(
        session, "_acquire_backend", lambda name: builds.append(acquire(name)) or builds[-1])
    return builds


@pytest.mark.parametrize("reader", list(READERS))
def test_recover_a_killed_multiprocessing_worker(reader, monkeypatch):
    """Every worker of the pool is killed: the pool is lost and rebuilt."""
    reference = _read(reader, ValuationSession(backend="local"), lambda _event: None)
    session = ValuationSession(backend="multiprocessing", n_workers=2)
    builds = _count_builds(session, monkeypatch)
    before = set(mp.active_children())

    def kill_every_worker() -> None:
        for process in set(mp.active_children()) - before:
            os.kill(process.pid, signal.SIGKILL)

    assert _read(reader, session, _once(kill_every_worker)) == reference
    assert len(builds) == 2  # the campaign rebuilt the pool once


def test_a_multiprocessing_pool_that_keeps_a_worker_is_not_rebuilt(monkeypatch):
    """The first worker is frozen as the pool starts, so it still holds its
    jobs when it is killed at the first answer: the survivor answers them."""
    reference = ValuationSession(backend="local").run(_book(16)).prices()
    start = MultiprocessingBackend.on_run_start
    frozen: list = []

    def start_and_freeze(backend: MultiprocessingBackend, n_jobs: int) -> None:
        start(backend, n_jobs)
        frozen.append(backend._processes[0])
        os.kill(frozen[0].pid, signal.SIGSTOP)

    monkeypatch.setattr(MultiprocessingBackend, "on_run_start", start_and_freeze)
    session = ValuationSession(backend="multiprocessing", n_workers=2)
    builds = _count_builds(session, monkeypatch)
    report = session.run(
        _book(16), progress=_once(lambda: os.kill(frozen[0].pid, signal.SIGKILL))).report
    assert report.prices() == reference
    assert len(builds) == 1
    assert "retries" not in report.extra and report.extra["redispatches"] >= 1


@pytest.mark.parametrize("reader", list(READERS))
def test_recover_a_restarted_remote_worker(reader, monkeypatch):
    reference = _read(reader, ValuationSession(backend="local"), lambda _event: None)
    with spawn_local_workers(1) as pool:
        session = ValuationSession(backend="remote", backend_options={"hosts": pool.hosts})
        builds = _count_builds(session, monkeypatch)

        def kill_and_restart() -> None:
            pool.kill(0)
            threading.Thread(
                target=lambda: (time.sleep(0.8), pool.restart(0)), daemon=True
            ).start()

        assert _read(reader, session, _once(kill_and_restart)) == reference
    assert len(builds) == 2  # the tries before the restart were refused

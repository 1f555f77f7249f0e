"""A worker that dies holding a whole in-flight window.

With more than one job per worker in flight, a death strands several jobs at
once.  Both the remote and the multiprocessing backend must re-send each of
them exactly once to a survivor; with no survivor, the multiprocessing
backend must notice the dead process at all (it used to sit out the full
collect timeout) and name every stranded job in a retryable
:class:`~repro.errors.WorkerLostError`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import socket
import threading
import time

import pytest

from repro.api import ValuationSession
from repro.cluster.backends import PAYLOAD_SERIAL, Job, PreparedMessage
from repro.cluster.backends.multiproc import MultiprocessingBackend
from repro.cluster.backends.remote import RemoteBackend
from repro.cluster.worker import spawn_local_workers
from repro.core.portfolio import Portfolio, Position
from repro.errors import ClusterError, WorkerLostError
from repro.pricing import PricingProblem
from repro.serial import serialize, xdr
from repro.serial.frames import (
    FRAME_HELLO,
    FRAME_JOB,
    FRAME_RESULT,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
)


def _problem(strike: float, method: str = "CF_Call", **params) -> PricingProblem:
    problem = PricingProblem(label=f"window_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method(method, **params)
    return problem


def _dispatch(backend, worker_id: int, job_id: int, problem: PricingProblem) -> None:
    data = serialize(problem).to_bytes()
    backend.dispatch(
        worker_id,
        Job(job_id=job_id, path="", file_size=len(data), compute_cost=1e-3),
        PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data)),
    )


def _kill(process) -> None:
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10.0)
    assert not process.is_alive()


def _started_since(before) -> list:
    """Worker processes started after ``before`` was taken, in start order."""
    return sorted(set(mp.active_children()) - before, key=lambda process: process.pid)


class TestRemoteWindow:
    def test_a_dead_connection_resends_each_job_of_its_window_once(self):
        """Three solo dispatches to one connection, then the connection dies."""
        server = socket.create_server(("127.0.0.1", 0))
        release = threading.Event()

        def mute_worker() -> None:
            # greets like a repro-worker, then holds every job unanswered
            conn, _ = server.accept()
            with conn:
                conn.sendall(encode_frame(FRAME_HELLO, xdr.encode(
                    {"role": "repro-worker", "pid": 0, "version": PROTOCOL_VERSION})))
                release.wait(60.0)

        thread = threading.Thread(target=mute_worker, daemon=True)
        thread.start()
        problems = [_problem(90.0 + 10 * k) for k in range(3)]
        try:
            with spawn_local_workers(1) as pool:
                address = f"127.0.0.1:{server.getsockname()[1]}"
                backend = RemoteBackend([address, pool.hosts[0]])
                for job_id, problem in enumerate(problems):
                    _dispatch(backend, 0, job_id, problem)  # all into the mute worker
                release.set()  # the connection drops with its window unanswered

                collected = [backend.collect(timeout=30.0) for _ in problems]
                with pytest.raises(ClusterError, match="no job in flight"):
                    backend.collect(timeout=0.2)  # none is answered twice
                stats = backend.finalize()
        finally:
            release.set()
            server.close()
            thread.join(timeout=5.0)
        assert sorted(done.job_id for done in collected) == [0, 1, 2]
        assert [done.error for done in collected] == [None] * 3
        prices = {done.job_id: done.result["price"] for done in collected}
        assert prices == {k: problem.compute().price for k, problem in enumerate(problems)}
        assert stats.extra["redispatches"] == 3  # each re-sent exactly once
        assert stats.n_jobs == 3


class TestMultiprocessingDeath:
    def test_a_killed_worker_surfaces_within_two_seconds(self):
        before = set(mp.active_children())
        backend = MultiprocessingBackend(n_workers=1)
        backend.on_run_start(3)  # the pool starts with the run
        try:
            (process,) = _started_since(before)
            _kill(process)
            for job_id in range(3):
                _dispatch(backend, 0, job_id, _problem(100.0 + job_id))
            start = time.monotonic()
            with pytest.raises(WorkerLostError) as excinfo:
                backend.collect(timeout=60.0)
            assert time.monotonic() - start < 2.0
            assert excinfo.value.job_ids == (0, 1, 2)
        finally:
            backend.finalize()

    def test_a_death_beside_a_live_worker_moves_its_jobs_to_it(self):
        before = set(mp.active_children())
        backend = MultiprocessingBackend(n_workers=2)
        backend.on_run_start(3)  # the pool starts with the run
        try:
            _kill(_started_since(before)[1])
            problems = [_problem(100.0 + job_id) for job_id in range(3)]
            for job_id, worker_id in ((0, 0), (1, 1), (2, 1)):
                _dispatch(backend, worker_id, job_id, problems[job_id])
            collected = [backend.collect(timeout=30.0) for _ in problems]
            assert sorted((done.job_id, done.worker_id) for done in collected) == [
                (0, 0), (1, 1), (2, 1)]  # the logical workers they were dispatched to
            assert {done.job_id: done.result["price"] for done in collected} == {
                job_id: problem.compute().price for job_id, problem in enumerate(problems)}
        finally:
            backend.finalize()

    def test_the_session_survives_a_death_to_a_bit_identical_report(self):
        problems = [
            _problem(80.0 + 3 * k, method="MC_European", n_paths=20_000, seed=7)
            for k in range(12)
        ]
        portfolio = Portfolio(
            positions=[Position(p, label=f"p{k}") for k, p in enumerate(problems)]
        )
        reference = ValuationSession(backend="local").run(portfolio).prices()
        before = set(mp.active_children())
        killed = threading.Event()

        def on_progress(event) -> None:
            if not killed.is_set():
                killed.set()
                os.kill(_started_since(before)[0].pid, signal.SIGKILL)

        session = ValuationSession(backend="multiprocessing", n_workers=2)
        report = session.run(portfolio, progress=on_progress).report
        assert not report.errors
        assert "retries" not in report.extra  # the survivor took the dead worker's jobs
        assert report.prices() == reference


class TestGridSlicesSurviveADeath:
    """A slice is the re-dispatch unit of a risk campaign: a worker killed
    while it holds slices costs no cell and answers none twice."""

    RETURNS = [0.002 * (k % 11 - 5) for k in range(60)]

    @staticmethod
    def _book() -> Portfolio:
        problems = [
            _problem(85.0 + 5 * k, method="MC_European", n_paths=20_000, seed=7)
            for k in range(6)
        ]
        return Portfolio(positions=[Position(p, label=f"p{k}") for k, p in enumerate(problems)])

    def _check(self, session: ValuationSession, kill, monkeypatch) -> None:
        from repro.core.runner import ResultTable

        reference = ValuationSession(backend="local").risk(
            self._book(), spot_returns=self.RETURNS)
        answered: list[int] = []
        scattered: list[int] = []
        scatter = ResultTable.scatter

        def recording(table, reply, members):
            # the rows a slice writes are all still pending: no status is set twice
            assert not table.status[table.rows_of(members)].any()
            scattered.extend(members)
            return scatter(table, reply, members)

        monkeypatch.setattr(ResultTable, "scatter", recording)

        def on_progress(event) -> None:
            if not answered:
                kill()
            answered.append(event.job_id)

        summary = session.risk(
            self._book(), spot_returns=self.RETURNS, progress=on_progress)
        assert summary == reference
        n_cells = 6 * (len(self.RETURNS) + 1)
        assert sorted(answered) == list(range(n_cells))  # every cell, exactly once
        assert sorted(scattered) == list(range(n_cells))  # and written once

    def test_a_killed_multiprocessing_worker(self, monkeypatch):
        before = set(mp.active_children())
        self._check(
            ValuationSession(backend="multiprocessing", n_workers=2),
            lambda: os.kill(_started_since(before)[0].pid, signal.SIGKILL),
            monkeypatch,
        )

    def test_a_killed_remote_worker(self, monkeypatch):
        with spawn_local_workers(2) as pool:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": pool.hosts})
            self._check(session, lambda: pool.kill(0), monkeypatch)


class TestBookSlicesSurviveADeath:
    """A book slice is the re-dispatch unit of a default run: a worker killed
    while it holds slices costs no position and answers none twice."""

    N_POSITIONS = 240

    @classmethod
    def _book(cls) -> Portfolio:
        problems = [_problem(70.0 + 0.25 * k) for k in range(cls.N_POSITIONS - 6)] + [
            _problem(85.0 + 5 * k, method="MC_European", n_paths=20_000, seed=7)
            for k in range(6)
        ]
        return Portfolio(positions=[Position(p, label=f"p{k}") for k, p in enumerate(problems)])

    def _check(self, session: ValuationSession, kill, monkeypatch) -> None:
        from repro.core.runner import ResultTable

        reference = ValuationSession(backend="local").run(self._book())
        answered: list[int] = []
        scattered: list[int] = []
        scatter = ResultTable.scatter

        def recording(table, reply, members):
            # the rows a slice writes are all still pending: no status is set twice
            assert not table.status[table.rows_of(members)].any()
            scattered.extend(members)
            return scatter(table, reply, members)

        monkeypatch.setattr(ResultTable, "scatter", recording)

        def on_progress(event) -> None:
            if not answered:
                kill()
            answered.append(event.job_id)

        campaign = session._open_campaign(self._book(), progress=on_progress)
        assert len(campaign.plan.jobs) > 8 and campaign.plan.members_stand_alone
        result = campaign.finish()
        assert result.ok and result.prices() == reference.prices()
        extra = result.report.extra  # the dead worker did hold slices
        assert extra.get("retries", 0) + extra.get("redispatches", 0) >= 1
        assert sorted(answered) == list(range(self.N_POSITIONS))  # every position, once
        assert sorted(scattered) == list(range(self.N_POSITIONS))  # and written once

    def test_a_killed_multiprocessing_worker(self, monkeypatch):
        before = set(mp.active_children())
        self._check(
            ValuationSession(backend="multiprocessing", n_workers=2),
            lambda: os.kill(_started_since(before)[0].pid, signal.SIGKILL),
            monkeypatch,
        )

    def test_a_killed_remote_worker(self, monkeypatch):
        with spawn_local_workers(2) as pool:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": pool.hosts})
            self._check(session, lambda: pool.kill(0), monkeypatch)


class TestAMalformedReplyRecord:
    """A worker answering a ``ResultColumns`` record of the wrong shape is a
    confused peer: the record is refused where the result frame is decoded,
    the connection is buried and its slices go to a survivor -- or, with no
    survivor, come back as a retryable :class:`WorkerLostError`.  The master
    loop never sees the record."""

    RETURNS = [0.001 * (k + 1) for k in range(30)]

    @staticmethod
    def _confused_worker(server: socket.socket, stop: threading.Event) -> None:
        """Greets like a repro-worker; answers every job with a record cut short."""
        from repro.pricing.methods.base import PricingResult, ResultColumns

        record = ResultColumns.from_results(
            [0, 1], [PricingResult(price=1.0), PricingResult(price=2.0)]).to_bytes()
        name = b"ResultColumns"
        malformed = (b"O" + len(name).to_bytes(4, "big") + name + b"\x00" * 3
                     + xdr.encode({"record": record[:-8]}))
        server.settimeout(0.1)  # wakes to see ``stop``
        while not stop.is_set():  # every dial, the re-dials and rebuilds too
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(None)
            with conn:
                conn.sendall(encode_frame(FRAME_HELLO, xdr.encode(
                    {"role": "repro-worker", "pid": 0, "version": PROTOCOL_VERSION})))
                while not stop.is_set():
                    try:
                        frame = read_frame(conn.recv)
                    except OSError:
                        frame = None
                    if frame is None:
                        break
                    kind, payload = frame
                    if kind != FRAME_JOB:
                        continue
                    job_id = xdr.decode(payload)["job_id"]
                    # {"job_id": ..., "result": <the malformed object>, ...} by
                    # hand: xdr.encode would refuse to build it
                    fields = (("job_id", xdr.encode(job_id)), ("result", malformed),
                              ("elapsed", xdr.encode(0.01)), ("error", xdr.encode(None)))
                    body = b"H" + len(fields).to_bytes(4, "big") + b"".join(
                        len(key).to_bytes(4, "big") + key.encode()
                        + b"\x00" * (-len(key) % 4) + value
                        for key, value in fields)
                    try:
                        conn.sendall(encode_frame(FRAME_RESULT, body))
                    except OSError:
                        break

    def _run(self, hosts_after_confused: list[str]):
        server = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()
        thread = threading.Thread(
            target=self._confused_worker, args=(server, stop), daemon=True)
        thread.start()
        try:
            address = f"127.0.0.1:{server.getsockname()[1]}"
            session = ValuationSession(backend="remote", backend_options={
                "hosts": [address, *hosts_after_confused]})
            return session.risk(
                TestGridSlicesSurviveADeath._book(), spot_returns=self.RETURNS)
        finally:
            stop.set()
            server.close()
            thread.join(timeout=5.0)

    def test_its_slices_go_to_the_survivor_and_the_summary_is_the_clean_one(self):
        reference = ValuationSession(backend="local").risk(
            TestGridSlicesSurviveADeath._book(), spot_returns=self.RETURNS)
        with spawn_local_workers(1) as pool:
            assert self._run(list(pool.hosts)) == reference

    def test_without_a_survivor_the_loss_is_typed_and_names_the_slices(self):
        with pytest.raises(WorkerLostError) as excinfo:
            self._run([])
        assert excinfo.value.job_ids  # the slices it held: what a campaign sends again

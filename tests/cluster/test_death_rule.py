"""One death rule for both backends whose workers are processes.

``multiprocessing`` and ``remote`` (here a loopback pool) keep the same
rule: the master never blocks on a send, a dead worker's jobs go to a
survivor under the logical worker they were dispatched to, and only
``collect`` reports a loss -- once no worker is live, naming every job in
flight.  A worker is frozen (``SIGSTOP``) before it is sent its jobs, so it
still holds all of them when it is killed.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Any

import pytest

from repro.cluster.backends import PAYLOAD_SERIAL, Job, PreparedMessage
from repro.cluster.backends.multiproc import MultiprocessingBackend
from repro.cluster.backends.remote import RemoteBackend
from repro.cluster.worker import spawn_local_workers
from repro.errors import ClusterError, WorkerLostError
from repro.pricing import PricingProblem
from repro.serial import serialize, xdr
from repro.serial.frames import FRAME_HELLO, PROTOCOL_VERSION, encode_frame
from tests.cluster.test_multiproc_link import _deadline


def _problem(strike: float) -> PricingProblem:
    problem = PricingProblem(label=f"death_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _send(backend, worker_id: int, job_id: int, payload: bytes) -> None:
    backend.dispatch(
        worker_id,
        Job(job_id=job_id, path="", file_size=len(payload)),
        PreparedMessage(kind=PAYLOAD_SERIAL, payload=payload, nbytes=len(payload)),
    )


def _dispatch(backend, worker_id: int, job_id: int) -> None:
    _send(backend, worker_id, job_id, serialize(_problem(90.0 + 10 * job_id)).to_bytes())


class _Pool:
    """A two-worker backend and the processes behind its two workers."""

    def __init__(self, backend, processes: list[Any]):
        self.backend = backend
        self._processes = processes

    def freeze(self, index: int) -> None:
        os.kill(self._processes[index].pid, signal.SIGSTOP)

    def kill(self, index: int) -> None:
        process = self._processes[index]
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10.0)
        assert not process.is_alive()

    def thaw(self) -> None:
        """Let every frozen worker still alive go on, so that it can stop."""
        for process in self._processes:
            if process.is_alive():
                os.kill(process.pid, signal.SIGCONT)


@pytest.fixture(params=["multiprocessing", "remote"])
def pool(request):
    if request.param == "multiprocessing":
        backend = MultiprocessingBackend(n_workers=2)
        backend.on_run_start(0)
        workers = _Pool(backend, backend._processes)
        try:
            yield workers
        finally:
            workers.thaw()
            backend.finalize()
    else:
        with spawn_local_workers(2) as servers:
            backend = RemoteBackend(servers.hosts)
            workers = _Pool(backend, servers._processes)
            try:
                yield workers
            finally:
                workers.thaw()
                backend.finalize()


def test_a_killed_worker_s_jobs_are_answered_once_by_the_survivor(pool):
    backend = pool.backend
    pool.freeze(0)
    for job_id, worker_id in ((0, 0), (1, 0), (2, 1)):
        _dispatch(backend, worker_id, job_id)
    pool.kill(0)
    collected = [backend.collect(timeout=30.0) for _ in range(3)]
    with pytest.raises(ClusterError, match="no job in flight"):
        backend.collect(timeout=0.2)  # none is answered twice
    stats = backend.finalize()
    # each answer names the logical worker its job was dispatched to
    assert sorted((done.job_id, done.worker_id) for done in collected) == [(0, 0), (1, 0), (2, 1)]
    assert {done.job_id: done.result["price"] for done in collected} == {
        job_id: _problem(90.0 + 10 * job_id).compute().price for job_id in range(3)}
    assert stats.extra["redispatches"] == 2  # the two jobs the dead worker held
    assert stats.worker_busy[0] == 0.0 < stats.worker_busy[1]  # the survivor answered


def test_a_dispatch_after_the_last_death_raises_nothing(pool):
    backend = pool.backend
    pool.kill(0)
    pool.kill(1)
    _dispatch(backend, 0, 7)
    _dispatch(backend, 1, 8)
    with pytest.raises(WorkerLostError) as excinfo:
        backend.collect(timeout=30.0)
    assert excinfo.value.job_ids == (7, 8)
    with pytest.raises(ClusterError, match="no job in flight"):
        backend.collect(timeout=0.2)  # each job is named once


def test_the_last_death_names_every_job_in_flight(pool):
    backend = pool.backend
    pool.freeze(0)
    pool.freeze(1)
    for job_id, worker_id in ((0, 0), (1, 0), (2, 1)):
        _dispatch(backend, worker_id, job_id)
    pool.kill(0)  # its jobs go to the frozen survivor
    killed: list[float] = []

    def kill_the_last() -> None:
        killed.append(time.monotonic())
        pool.kill(1)

    # the collect is already waiting when the last worker dies
    timer = threading.Timer(0.1, kill_the_last)
    timer.start()
    try:
        with pytest.raises(WorkerLostError) as excinfo:
            backend.collect(timeout=30.0)
        caught = time.monotonic()
    finally:
        timer.join()
    assert excinfo.value.job_ids == (0, 1, 2)
    if isinstance(backend, MultiprocessingBackend):
        assert caught - killed[0] < 0.25


def test_the_remote_master_never_waits_on_a_peer_that_does_not_read():
    """Two 8 MB jobs to a peer that greets and never reads fill every buffer
    between them; the master goes on serving the real worker beside it."""
    server = socket.create_server(("127.0.0.1", 0))
    release = threading.Event()

    def silent_peer() -> None:
        conn, _ = server.accept()
        with conn:
            conn.sendall(encode_frame(FRAME_HELLO, xdr.encode(
                {"role": "repro-worker", "pid": 0, "version": PROTOCOL_VERSION})))
            release.wait(60.0)

    thread = threading.Thread(target=silent_peer, daemon=True)
    thread.start()
    big = bytes(8 << 20)
    try:
        with spawn_local_workers(1) as servers, _deadline(20):
            backend = RemoteBackend([f"127.0.0.1:{server.getsockname()[1]}", servers.hosts[0]])
            try:
                start = time.monotonic()
                _send(backend, 0, 0, big)
                _send(backend, 0, 1, big)
                assert time.monotonic() - start < 0.5
                _dispatch(backend, 1, 2)
                _dispatch(backend, 1, 3)
                collected = {backend.collect(timeout=10.0).job_id for _ in range(2)}
            finally:
                start = time.monotonic()
                backend.finalize()
                assert time.monotonic() - start < 1.0
        assert collected == {2, 3}
    finally:
        release.set()
        server.close()
        thread.join(timeout=5.0)

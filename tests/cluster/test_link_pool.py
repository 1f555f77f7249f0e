"""The one master of both worker-process backends, driven without processes.

:class:`~repro.cluster.backends.base.LinkPool` keeps the route, the
outboxes, the in-flight frames and the death rule of the multiprocessing
and the remote backend alike.  Here a :class:`MultiprocessingBackend` gets
socket pairs instead of forked workers (``_start_processes`` is replaced),
and a pipe stands in for each process sentinel: the test plays the far ends.
It reads job frames and writes replies, whole, split or out of order, and
kills a worker by closing its end or its sentinel pipe.  Nothing sleeps: a
``collect(timeout=0)`` is one round of the master's selector.
"""

from __future__ import annotations

import os
import pickle
import selectors
import socket
import struct

import pytest

from repro.cluster.backends import PAYLOAD_SERIAL, Job, PreparedMessage
from repro.cluster.backends.multiproc import MultiprocessingBackend
from repro.errors import ClusterError, CollectTimeoutError, WorkerLostError

_LENGTH = struct.Struct("!Q")


class _Worker:
    """The far end of one link, and a sentinel pipe for its process."""

    def __init__(self) -> None:
        self.link, self.end = socket.socketpair()
        self.end.setblocking(False)
        self.sentinel, self._alive = os.pipe()
        self._inbox = bytearray()

    # what a process offers the backend's teardown
    def terminate(self) -> None:
        pass

    def join(self, timeout: float | None = None) -> None:
        pass

    def is_alive(self) -> bool:
        return False

    def jobs(self) -> list[tuple[int, str, bytes]]:
        """Every job frame the master has written to this worker so far."""
        while True:
            try:
                chunk = self.end.recv(1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            self._inbox += chunk
        jobs = []
        while len(self._inbox) >= _LENGTH.size:
            end = _LENGTH.size + _LENGTH.unpack_from(self._inbox)[0]
            jobs.append(pickle.loads(self._inbox[_LENGTH.size:end]))
            del self._inbox[:end]
        return jobs

    def answer(self, job_id: int, price: float = 1.0, elapsed: float = 0.25) -> bytes:
        """The reply frame a worker writes for ``job_id``."""
        reply = pickle.dumps((job_id, 0, {"price": price}, elapsed, None))
        return _LENGTH.pack(len(reply)) + reply

    def send(self, data: bytes) -> None:
        self.end.sendall(data)

    def die(self) -> None:
        """The process is gone: its sentinel fires, its link stays open."""
        os.close(self._alive)

    def close(self) -> None:
        self.end.close()
        for fd in (self.sentinel, self._alive):
            try:
                os.close(fd)
            except OSError:
                pass


@pytest.fixture
def pool(monkeypatch):
    """A two-worker backend over socket pairs, and the test's two far ends."""
    workers = [_Worker(), _Worker()]

    def start(backend: MultiprocessingBackend) -> None:
        for slot, worker in enumerate(workers):
            backend._processes.append(worker)
            backend._attach(slot, worker.link)
            backend._selector.register(worker.sentinel, selectors.EVENT_READ, worker)

    monkeypatch.setattr(MultiprocessingBackend, "_start_processes", start)
    backend = MultiprocessingBackend(n_workers=2)
    backend.on_run_start(0)
    yield backend, workers
    backend.finalize()
    for worker in workers:
        worker.close()


def _dispatch(backend: MultiprocessingBackend, worker_id: int, job_id: int) -> bytes:
    payload = b"job-%d" % job_id
    backend.dispatch(worker_id, Job(job_id=job_id, path="", file_size=len(payload)),
                     PreparedMessage(kind=PAYLOAD_SERIAL, payload=payload, nbytes=len(payload)))
    return payload


def _poll(backend: MultiprocessingBackend) -> None:
    """One round of the master's selector that collects nothing."""
    with pytest.raises(CollectTimeoutError):
        backend.collect(timeout=0)


def test_a_reply_split_across_reads_is_taken_once_whole(pool):
    backend, (worker, _) = pool
    _dispatch(backend, 0, 3)
    assert [job_id for job_id, _, _ in worker.jobs()] == [3]
    reply = worker.answer(3, price=42.0)
    for cut in (3, _LENGTH.size + 5):  # inside the length, then inside the pickle
        worker.send(reply[:cut])
        reply = reply[cut:]
        _poll(backend)
    worker.send(reply)
    done = backend.collect(timeout=0)
    assert (done.job_id, done.worker_id, done.result) == (3, 0, {"price": 42.0})


def test_replies_out_of_order_each_name_their_logical_worker(pool):
    backend, workers = pool
    for job_id, worker_id in ((0, 0), (1, 0), (2, 1)):
        _dispatch(backend, worker_id, job_id)
    assert [job[0] for job in workers[0].jobs()] == [0, 1]
    workers[0].send(workers[0].answer(1) + workers[0].answer(0))
    workers[1].send(workers[1].answer(2))
    collected = [backend.collect(timeout=0) for _ in range(3)]
    assert sorted((done.job_id, done.worker_id) for done in collected) == [(0, 0), (1, 0), (2, 1)]
    assert [done.job_id for done in collected if done.worker_id == 0] == [1, 0]


def test_a_link_closed_holding_two_jobs_sends_them_to_the_survivor(pool):
    backend, (victim, survivor) = pool
    payloads = {job_id: _dispatch(backend, worker_id, job_id)
                for job_id, worker_id in ((0, 0), (1, 0), (2, 1))}
    assert [job[0] for job in victim.jobs()] == [0, 1]
    assert [job[0] for job in survivor.jobs()] == [2]
    victim.end.close()
    survivor.send(survivor.answer(2))
    collected = [backend.collect(timeout=0)]  # the same round buries the victim
    assert collected[0].job_id == 2
    _poll(backend)  # the selector writes the orphans' frames
    orphans = survivor.jobs()
    assert {job_id: payload for job_id, _, payload in orphans} == {0: payloads[0], 1: payloads[1]}
    for job_id, _, _ in orphans:  # each answered twice: the second is dropped
        survivor.send(survivor.answer(job_id) * 2)
    collected += [backend.collect(timeout=0) for _ in orphans]
    assert sorted((done.job_id, done.worker_id) for done in collected) == [(0, 0), (1, 0), (2, 1)]
    with pytest.raises(ClusterError, match="no job in flight"):
        backend.collect(timeout=0)  # the duplicates were read and dropped
    stats = backend.finalize()
    assert stats.extra["redispatches"] == 2
    assert stats.worker_busy == {0: 0.0, 1: 0.75}  # the survivor answered all three
    assert stats.bytes_sent == sum(map(len, payloads.values())) + len(payloads[0] + payloads[1])


def test_an_answered_job_is_not_sent_again_at_its_worker_s_death(pool):
    backend, (victim, survivor) = pool
    for job_id in (0, 1):
        _dispatch(backend, 0, job_id)
    victim.send(victim.answer(0))
    victim.end.close()  # job 0 answered, job 1 not
    assert backend.collect(timeout=0).job_id == 0
    _poll(backend)  # the end of the link: buried
    _poll(backend)  # the selector writes the orphan's frame
    assert [job[0] for job in survivor.jobs()] == [1]
    survivor.send(survivor.answer(0) + survivor.answer(1))  # a stale answer to job 0 too
    assert backend.collect(timeout=0).job_id == 1
    with pytest.raises(ClusterError, match="no job in flight"):
        backend.collect(timeout=0)
    assert backend.finalize().extra["redispatches"] == 1


def test_a_sentinel_buries_the_worker_after_reading_what_it_wrote(pool):
    backend, (victim, survivor) = pool
    for job_id in (0, 1):
        _dispatch(backend, 0, job_id)
    victim.send(victim.answer(0))
    victim.die()  # its link stays open: only the sentinel says it is gone
    assert backend.collect(timeout=0).job_id == 0
    _poll(backend)
    assert [job[0] for job in survivor.jobs()] == [1]
    survivor.send(survivor.answer(1))
    assert (backend.collect(timeout=0).job_id, backend.finalize().extra["redispatches"]) == (1, 1)


def test_a_reply_that_does_not_decode_buries_its_link(pool):
    backend, (victim, survivor) = pool
    _dispatch(backend, 0, 5)
    victim.send(_LENGTH.pack(7) + b"garbage")
    _poll(backend)  # buried: job 5 is on the survivor's outbox
    _poll(backend)
    assert [job[0] for job in survivor.jobs()] == [5]
    assert backend._route == [1, 1]


def test_an_answer_to_a_job_not_in_flight_is_dropped(pool):
    backend, (worker, _) = pool
    _dispatch(backend, 0, 1)
    worker.send(worker.answer(99, elapsed=5.0))
    _poll(backend)
    worker.send(worker.answer(1))
    assert backend.collect(timeout=0).job_id == 1
    assert backend.finalize().worker_busy == {0: 0.25, 1: 0.0}


def test_a_dispatch_after_the_last_death_raises_nothing(pool):
    backend, workers = pool
    for worker in workers:
        worker.end.close()
    _dispatch(backend, 0, 7)  # its write fails: buried, job 7 goes to worker 1's link
    _dispatch(backend, 1, 8)  # and that write fails too: no link is left
    _dispatch(backend, 0, 9)
    with pytest.raises(WorkerLostError) as excinfo:
        backend.collect(timeout=0)
    assert excinfo.value.job_ids == (7, 8, 9)
    with pytest.raises(ClusterError, match="no job in flight"):
        backend.collect(timeout=0)  # each job is named once
    assert backend.finalize().bytes_sent == len(b"job-7") * 2 + len(b"job-8")

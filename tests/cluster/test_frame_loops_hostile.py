"""Hostile bytes into the two frame-handling loops, after a valid handshake.

*Worker side:* a real accept loop (:func:`repro.cluster.worker._accept_loop`)
gets random bytes, well-framed garbage, an unknown frame kind or a truncated
job frame on a connection.  It must drop that connection -- no hang, every
socket read is under a deadline -- and price a correct job on its next
connection, in the same process and thread.

*Master side:* :meth:`RemoteBackend._pump` reads arbitrary bytes from a peer
that greeted correctly.  The run must end in a redispatch to a sound worker,
or in a :class:`~repro.errors.WorkerLostError` when there is none -- never
in another exception type.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import worker
from repro.cluster.backends import PAYLOAD_SERIAL, Job, PreparedMessage
from repro.cluster.backends.remote import RemoteBackend
from repro.errors import WorkerLostError
from repro.pricing import PricingProblem
from repro.serial import serialize, xdr
from repro.serial.frames import (
    FRAME_HELLO,
    FRAME_JOB,
    FRAME_MAGIC,
    FRAME_RESULT,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
)
from repro.serial.frames import _KNOWN_KINDS

#: a worker thread that dies on a frame fails the test, not only the connection
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")

#: seconds any single read may wait: a loop that hangs fails the test here
DEADLINE_S = 10.0

_PROBLEM = PricingProblem(label="hostile")
_PROBLEM.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
_PROBLEM.set_option("CallEuro", strike=100.0, maturity=1.0)
_PROBLEM.set_method("CF_Call")
_PAYLOAD = serialize(_PROBLEM).to_bytes()
_PRICE = _PROBLEM.compute().price
_JOB_FRAME = encode_frame(
    FRAME_JOB, xdr.encode({"job_id": 7, "kind": PAYLOAD_SERIAL, "payload": _PAYLOAD})
)


def _raw_frame(kind: int, payload: bytes) -> bytes:
    """A frame header ``encode_frame`` would refuse to write (any ``kind``)."""
    return struct.pack(">4sHHI", FRAME_MAGIC, PROTOCOL_VERSION, kind, len(payload)) + payload


_job_ids = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1), st.floats(), st.text(max_size=8),
    st.none(),
)

#: what a confused or hostile master sends after the worker's hello
HOSTILE_STREAMS = st.one_of(
    st.binary(max_size=512),
    st.builds(encode_frame, st.sampled_from(sorted(_KNOWN_KINDS)), st.binary(max_size=256)),
    st.builds(
        lambda job_id, payload: encode_frame(FRAME_JOB, xdr.encode(
            {"job_id": job_id, "kind": PAYLOAD_SERIAL, "payload": payload})),
        _job_ids, st.binary(max_size=64),
    ),
    st.builds(
        _raw_frame,
        st.integers(min_value=0, max_value=0xFFFF).filter(lambda k: k not in _KNOWN_KINDS),
        st.binary(max_size=64),
    ),
    st.integers(min_value=1, max_value=len(_JOB_FRAME) - 1).map(lambda cut: _JOB_FRAME[:cut]),
)


@pytest.fixture(scope="module")
def worker_address():
    """One worker accept loop on a thread, for the whole module."""
    server = socket.create_server(("127.0.0.1", 0))
    crashed: list[BaseException] = []

    def _run() -> None:
        try:
            worker._accept_loop(server, once=False, quiet=True)
        except BaseException as exc:  # noqa: BLE001 - reported by the tests
            crashed.append(exc)

    thread = threading.Thread(target=_run, name="hostile-worker", daemon=True)
    thread.start()
    yield server.getsockname(), thread, crashed
    server.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
    server.close()
    thread.join(timeout=DEADLINE_S)
    assert not thread.is_alive()


def _greeted(address) -> socket.socket:
    conn = socket.create_connection(address, timeout=DEADLINE_S)
    frame = read_frame(conn.recv)
    assert frame is not None and frame[0] == FRAME_HELLO
    return conn


def _price_one_job(address) -> float:
    with _greeted(address) as conn:
        conn.sendall(_JOB_FRAME)
        kind, payload = read_frame(conn.recv)
        assert kind == FRAME_RESULT
        answer = xdr.decode(payload)
        assert answer["job_id"] == 7 and answer["error"] is None
        return answer["result"]["price"]


@settings(max_examples=60, deadline=None)
@given(data=HOSTILE_STREAMS)
def test_the_worker_drops_a_hostile_connection_and_serves_the_next(worker_address, data):
    address, thread, crashed = worker_address
    with _greeted(address) as conn:
        try:
            conn.sendall(data)
            conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the worker already hung up on an early byte
        try:
            while conn.recv(1 << 16):  # answers (a pong, an error result) are allowed
                pass
        except ConnectionResetError:
            pass  # dropped with our bytes unread
        # a hang ends as socket.timeout out of recv() above
    assert _price_one_job(address) == _PRICE
    assert thread.is_alive() and not crashed


class _HostilePeer:
    """Greets like a repro-worker, takes one job frame, answers ``data``, hangs up."""

    def __init__(self, data: bytes):
        self._server = socket.create_server(("127.0.0.1", 0))
        self.address = "127.0.0.1:%d" % self._server.getsockname()[1]
        self._data = data
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        with self._server, self._server.accept()[0] as conn:
            conn.settimeout(DEADLINE_S)
            conn.sendall(encode_frame(FRAME_HELLO, xdr.encode(
                {"role": "repro-worker", "pid": 0, "version": PROTOCOL_VERSION})))
            read_frame(conn.recv)  # the job
            try:
                conn.sendall(self._data)
            except OSError:
                pass

    def join(self) -> None:
        self._thread.join(timeout=DEADLINE_S)
        assert not self._thread.is_alive()


def _dispatch_job(backend: RemoteBackend) -> None:
    backend.dispatch(
        0,
        Job(job_id=0, path="", file_size=len(_PAYLOAD), compute_cost=1e-3),
        PreparedMessage(kind=PAYLOAD_SERIAL, payload=_PAYLOAD, nbytes=len(_PAYLOAD)),
    )


#: what a confused or hostile worker answers a job with
HOSTILE_ANSWERS = st.one_of(
    st.binary(max_size=512),
    st.builds(encode_frame, st.sampled_from(sorted(_KNOWN_KINDS)), st.binary(max_size=256)),
    st.builds(
        lambda job_id, result: encode_frame(FRAME_RESULT, xdr.encode(
            {"job_id": job_id, "result": result, "elapsed": 0.0, "error": None})),
        # any id but job 0's own: a float or a string is refused, not read as 0
        _job_ids.filter(lambda job_id: job_id != 0 or isinstance(job_id, float)),
        st.binary(max_size=32),
    ),
)


@settings(max_examples=40, deadline=None)
@given(data=HOSTILE_ANSWERS)
def test_a_hostile_answer_is_redispatched_to_a_sound_worker(worker_address, data):
    address, _thread, crashed = worker_address
    peer = _HostilePeer(data)
    backend = RemoteBackend([peer.address, "%s:%d" % address])
    try:
        _dispatch_job(backend)  # logical worker 0: the hostile peer
        done = backend.collect(timeout=DEADLINE_S)
    finally:
        backend.finalize()
        peer.join()
    assert (done.job_id, done.error, done.worker_id) == (0, None, 0)
    assert done.result["price"] == _PRICE
    assert backend.redispatches == 1
    assert not crashed


@settings(max_examples=40, deadline=None)
@given(data=HOSTILE_ANSWERS)
def test_a_hostile_answer_from_the_only_worker_loses_the_pool(data):
    peer = _HostilePeer(data)
    backend = RemoteBackend([peer.address])
    try:
        _dispatch_job(backend)
        with pytest.raises(WorkerLostError) as excinfo:
            backend.collect(timeout=DEADLINE_S)
    finally:
        backend.finalize()
        peer.join()
    assert excinfo.value.job_ids == (0,)

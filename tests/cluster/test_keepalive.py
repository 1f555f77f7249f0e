"""The worker's PING/PONG echo: the answer the remote backend's liveness
window relies on (``tests/cluster/test_fault_tolerance.py`` buries a worker
that gives none).  A worker echoes a ping's token once the master is in,
from its receive loop, so a ping of a busy connection is not stuck behind a
long job.
"""

from __future__ import annotations

import socket

from repro.cluster.worker import spawn_local_workers
from repro.serial import xdr
from repro.serial.frames import (
    FRAME_HELLO,
    FRAME_PING,
    FRAME_PONG,
    FrameAssembler,
    encode_frame,
)


def test_worker_echoes_ping_payload_verbatim():
    # drive the PING frame by hand to pin the echo contract
    with spawn_local_workers(1) as pool:
        host, port = pool.hosts[0].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            assembler = FrameAssembler()

            def next_frame():
                while True:
                    frame = assembler.pop()
                    if frame is not None:
                        return frame
                    assembler.feed(sock.recv(4096))

            kind, payload = next_frame()
            assert kind == FRAME_HELLO
            assert xdr.decode(payload)["role"] == "repro-worker"

            token = b"\x00\xffkeepalive-token"
            sock.sendall(encode_frame(FRAME_PING, token))
            kind, payload = next_frame()
            assert kind == FRAME_PONG
            assert payload == token


def test_a_secret_worker_answers_no_ping_before_the_handshake():
    """Before the master proved the secret, a ping is no challenge: the
    worker hangs up instead of echoing it."""
    with spawn_local_workers(1, secret="tok") as pool:
        host, port = pool.hosts[0].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            assembler = FrameAssembler()
            while (frame := assembler.pop()) is None:
                assembler.feed(sock.recv(4096))
            assert frame[0] == FRAME_HELLO
            sock.sendall(encode_frame(FRAME_PING, b"token"))
            try:
                answer = sock.recv(4096)
            except ConnectionResetError:
                answer = b""
            assert answer == b""

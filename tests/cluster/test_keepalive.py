"""Tests of the v3 PING/PONG keepalive (worker probes).

Satellite of the serving work: a long-lived daemon sits idle between
campaigns, so dead TCP workers must be detectable *between* runs -- with a
throwaway probe connection (:func:`probe_worker`, what the daemon's monitor
uses).  Inside a campaign the backend's ``liveness_timeout`` sends the same
PING (``tests/cluster/test_fault_tolerance.py``).
"""

from __future__ import annotations

import socket
import threading

from repro.cluster.worker import probe_worker, spawn_local_workers
from repro.serial.frames import (
    FRAME_HELLO,
    FRAME_PING,
    FRAME_PONG,
    FrameAssembler,
    encode_frame,
)
from repro.serial import xdr


class TestProbeWorker:
    def test_live_worker_answers(self):
        with spawn_local_workers(1) as pool:
            assert probe_worker(pool.hosts[0], timeout=10.0) is True
            # the probe's STOP returns the worker to accept(); it still serves
            assert probe_worker(pool.hosts[0], timeout=10.0) is True

    def test_dead_worker_fails_fast(self):
        with spawn_local_workers(1) as pool:
            host = pool.hosts[0]
            pool.kill(0)
        assert probe_worker(host, timeout=2.0) is False

    def test_nothing_listening_is_false_not_raise(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        assert probe_worker(f"127.0.0.1:{port}", timeout=1.0) is False

    def test_wrong_greeting_is_false(self):
        # a listener that greets with garbage instead of a worker HELLO
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def imposter():
            conn, _ = server.accept()
            conn.sendall(encode_frame(FRAME_PONG, b"not-a-greeting"))
            conn.close()

        thread = threading.Thread(target=imposter, daemon=True)
        thread.start()
        try:
            assert probe_worker(f"127.0.0.1:{port}", timeout=2.0) is False
        finally:
            thread.join(timeout=5.0)
            server.close()

    def test_worker_echoes_ping_payload_verbatim(self):
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

"""Tests of the coalesced result frames (``FRAME_RESULT_BATCH``).

One dispatched :data:`FRAME_JOB_BATCH` answers as **one** coalesced result
message, degrading to per-member :data:`FRAME_RESULT` frames only when a
member's result cannot be shipped.  The end-to-end case is the ablation
workload: a 1600-cheap-job portfolio shipped in chunks over real TCP workers.
"""

from __future__ import annotations

import socket
import threading

from repro.api import ValuationSession
from repro.cluster.backends import PAYLOAD_SERIAL
from repro.cluster.worker import spawn_local_workers
from repro.core import build_toy_portfolio
from repro.core.scheduler import ChunkedPolicy
from repro.pricing import PricingProblem
from repro.serial import serialize, xdr
from repro.serial.frames import (
    FRAME_HELLO,
    FRAME_JOB_BATCH,
    FRAME_RESULT,
    FRAME_RESULT_BATCH,
    FRAME_STOP,
    encode_frame,
    read_frame,
)


def _make_problem(strike: float = 100.0) -> PricingProblem:
    problem = PricingProblem(label=f"rb_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _batch_frame(problems) -> bytes:
    entries = [
        {
            "job_id": index,
            "kind": PAYLOAD_SERIAL,
            "payload": serialize(problem).to_bytes(),
        }
        for index, problem in enumerate(problems)
    ]
    return encode_frame(FRAME_JOB_BATCH, xdr.encode({"jobs": entries}))


class TestCoalescedReply:
    def test_job_batch_gets_one_result_batch_frame(self):
        problems = [_make_problem(k) for k in (90.0, 100.0, 110.0)]
        reference = [p.compute().price for p in problems]
        with spawn_local_workers(1) as pool:
            host, port = pool.hosts[0].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10.0) as conn:
                kind, _ = read_frame(conn.recv)
                assert kind == FRAME_HELLO
                conn.sendall(_batch_frame(problems))
                kind, payload = read_frame(conn.recv)
                assert kind == FRAME_RESULT_BATCH
                answers = xdr.decode(payload)["results"]
                assert [a["job_id"] for a in answers] == [0, 1, 2]
                assert [a["result"]["price"] for a in answers] == reference
                assert all(a["error"] is None for a in answers)
                conn.sendall(encode_frame(FRAME_STOP))

    def test_untransmissible_member_degrades_to_per_member_frames(self, monkeypatch):
        # one member whose result the codec cannot ship poisons the whole
        # coalesced message; the lane must fall back to per-member frames,
        # where only the poisoned member degrades to an error answer
        import repro.cluster.backends.execution as execution
        from repro.cluster.worker import serve

        real_execute = execution.execute_payload
        calls = []

        def poisoned(kind, payload, cache=None):
            calls.append(kind)
            if len(calls) == 2:
                return {"price": object()}, 0.0, None
            return real_execute(kind, payload, cache=cache)

        monkeypatch.setattr(execution, "execute_payload", poisoned)
        ports: list[int] = []
        listening = threading.Event()

        def _ready(port):
            ports.append(port)
            listening.set()

        thread = threading.Thread(
            target=serve,
            kwargs={"host": "127.0.0.1", "port": 0, "once": True, "ready": _ready},
            daemon=True,
        )
        thread.start()
        assert listening.wait(10.0)
        problems = [_make_problem(k) for k in (90.0, 100.0, 110.0)]
        with socket.create_connection(("127.0.0.1", ports[0]), timeout=10.0) as conn:
            assert read_frame(conn.recv)[0] == FRAME_HELLO
            conn.sendall(_batch_frame(problems))
            answers = {}
            for _ in problems:
                kind, payload = read_frame(conn.recv)
                assert kind == FRAME_RESULT  # coalescing was abandoned
                answer = xdr.decode(payload)
                answers[answer["job_id"]] = answer
            conn.sendall(encode_frame(FRAME_STOP))
        assert answers[0]["error"] is None
        assert "not transmissible" in answers[1]["error"]
        assert answers[1]["result"] is None
        assert answers[2]["error"] is None
        thread.join(timeout=10.0)


class TestEndToEndChunkedPortfolio:
    def test_ablation_portfolio_over_coalescing_workers(self):
        # the ablation workload: 1600 cheap closed-form jobs, chunk-dispatched
        # so every wave is one FRAME_JOB_BATCH and one coalesced
        # FRAME_RESULT_BATCH answer per chunk
        portfolio = build_toy_portfolio(n_options=1600)
        reference = ValuationSession(backend="local").run(portfolio)
        with spawn_local_workers(2) as pool:
            session = ValuationSession(
                backend="remote",
                backend_options={"hosts": pool.hosts},
                scheduler=ChunkedPolicy,
            )
            remote = session.run(portfolio)
        assert remote.prices() == reference.prices()
        assert not remote.report.errors

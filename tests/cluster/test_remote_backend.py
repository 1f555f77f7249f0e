"""Tests of the remote TCP backend and its loopback worker harness."""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import ValuationSession
from repro.cluster.backends import Job, PreparedMessage, PAYLOAD_SERIAL, create_backend
from repro.cluster import worker
from repro.cluster.backends.remote import RemoteBackend, normalize_hosts
from repro.cluster.worker import spawn_local_workers
from repro.core import build_toy_portfolio
from repro.errors import (
    ClusterError,
    CollectTimeoutError,
    ValuationError,
    WorkerLostError,
)
from repro.pricing import PricingProblem
from repro.serial import serialize, xdr
from repro.serial.frames import FRAME_HELLO, PROTOCOL_VERSION, encode_frame

#: what a fake worker sends to pass the master's greeting check
_HELLO = encode_frame(
    FRAME_HELLO, xdr.encode({"role": "repro-worker", "version": PROTOCOL_VERSION})
)


def _make_problem(strike: float = 100.0) -> PricingProblem:
    problem = PricingProblem(label=f"remote_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method("CF_Call")
    return problem


def _dispatch(backend: RemoteBackend, worker_id: int, job_id: int, problem) -> None:
    data = serialize(problem).to_bytes()
    backend.dispatch(
        worker_id,
        Job(job_id=job_id, path="", file_size=len(data), compute_cost=1e-3),
        PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data)),
    )


def _prices(run_result) -> list[float]:
    return [entry["price"] for entry in run_result.report.results.values()]


class TestNormalizeHosts:
    def test_strings_and_pairs(self):
        assert normalize_hosts(["h1:9631", ("h2", 9632)]) == ("h1:9631", "h2:9632")

    def test_single_string(self):
        assert normalize_hosts("localhost:9631") == ("localhost:9631",)

    @pytest.mark.parametrize(
        "bad",
        [[], ["no-port"], [":9631"], ["h:not-a-port"], ["h:0"], ["h:70000"], [1234], 42],
    )
    def test_rejects_bad_addresses(self, bad):
        with pytest.raises(ClusterError):
            normalize_hosts(bad)


class TestSessionRemoteValidation:
    def test_remote_session_needs_hosts(self):
        with pytest.raises(ValuationError, match="hosts"):
            ValuationSession(backend="remote")
        with pytest.raises(ValuationError, match="hosts"):
            ValuationSession(backend="remote", backend_options={"hosts": []})

    def test_remote_session_normalizes_hosts(self):
        session = ValuationSession(
            backend="remote", backend_options={"hosts": [("10.0.0.4", 9631)]}
        )
        assert session.backend_options["hosts"] == ("10.0.0.4:9631",)

    def test_remote_session_bad_address_fails_at_construction(self):
        with pytest.raises(ValuationError, match="not 'host:port'"):
            ValuationSession(backend="remote", backend_options={"hosts": ["noport"]})

    def test_factory_without_hosts(self):
        with pytest.raises(ClusterError, match="hosts"):
            create_backend("remote")

    def test_connect_refused(self):
        # grab a port that is certainly not listening
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ClusterError, match="cannot connect"):
            RemoteBackend([f"127.0.0.1:{port}"])


NAN, INF = float("nan"), float("inf")


class TestNumbersAreCheckedWhereTheyAreGiven:
    """A bad option is refused, naming the value, before any connect (nothing
    listens on port 1: a "cannot connect" would mean the check came late)."""

    @pytest.mark.parametrize("value", [NAN, INF, 0, -1])
    def test_liveness_timeout_is_refused_before_any_connect(self, value):
        """The liveness timeout is a module constant: a value given for it,
        sane or not, is refused by the constructor and by the session."""
        with pytest.raises(TypeError, match="liveness_timeout"):
            RemoteBackend(["127.0.0.1:1"], liveness_timeout=value)
        with pytest.raises(ValuationError, match="liveness_timeout"):
            ValuationSession(
                backend="remote",
                backend_options={"hosts": ["127.0.0.1:1"], "liveness_timeout": value},
            )

    @pytest.mark.parametrize("value", [True, False, 5, {"max_attempts": 5}])
    def test_reconnect_is_refused_before_any_connect(self, value):
        """Re-dialing is no option: a ``reconnect`` value, whichever, is
        refused by the constructor, the factory and the session."""
        with pytest.raises(TypeError, match="reconnect"):
            RemoteBackend(["127.0.0.1:1"], reconnect=value)
        with pytest.raises(TypeError, match="reconnect"):
            create_backend("remote", hosts=["127.0.0.1:1"], reconnect=value)
        with pytest.raises(ValuationError, match="reconnect"):
            ValuationSession(
                backend="remote", backend_options={"hosts": ["127.0.0.1:1"], "reconnect": value}
            )

    @pytest.mark.parametrize("name", ["connect_timeout", "send_timeout", "liveness_timeout"])
    def test_the_timeouts_are_not_options(self, name):
        with pytest.raises(TypeError, match=name):
            create_backend("remote", hosts=["127.0.0.1:1"], **{name: 5.0})


class TestLoopbackPool:
    def test_dispatch_collect_cycle(self):
        with spawn_local_workers(2) as pool:
            backend = create_backend("remote", hosts=pool.hosts)
            assert backend.n_workers == 2
            problems = [_make_problem(k) for k in (90.0, 100.0, 110.0)]
            for index, problem in enumerate(problems):
                _dispatch(backend, index % 2, index, problem)
            collected = sorted(
                (backend.collect(timeout=60.0) for _ in range(3)),
                key=lambda done: done.job_id,
            )
            assert [done.error for done in collected] == [None, None, None]
            reference = [p.compute().price for p in problems]
            assert [done.result["price"] for done in collected] == reference
            stats = backend.finalize()
            assert stats.n_jobs == 3
            assert stats.bytes_sent > 0

    def test_collect_without_dispatch_raises(self):
        with spawn_local_workers(1) as pool:
            backend = create_backend("remote", hosts=pool.hosts)
            with pytest.raises(ClusterError, match="no job in flight"):
                backend.collect(timeout=1.0)
            backend.finalize()

    def test_a_collected_job_leaves_nothing_in_flight(self):
        with spawn_local_workers(1) as pool:
            backend = create_backend("remote", hosts=pool.hosts)
            with pytest.raises(ClusterError, match="no job in flight"):
                backend.collect(timeout=1.0)
            _dispatch(backend, 0, 0, _make_problem())
            done = backend.collect(timeout=60.0)
            assert done.job_id == 0 and done.error is None
            with pytest.raises(ClusterError, match="no job in flight"):
                backend.collect(timeout=1.0)
            backend.finalize()

    def test_untransmissible_result_degrades_to_error_answer(self, monkeypatch):
        # a result the XDR codec cannot encode must come back as an error
        # frame, not kill the worker (the master would redispatch the poison
        # job through every survivor)
        import repro.cluster.backends.execution as execution
        from repro.cluster.worker import serve
        from repro.serial.frames import FRAME_JOB, FRAME_RESULT, read_frame

        monkeypatch.setattr(
            execution, "execute_payload",
            lambda kind, payload: ({"price": object()}, 0.0, None),
        )
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
        with socket.create_connection(("127.0.0.1", ports[0]), timeout=10.0) as conn:
            assert read_frame(conn.recv)[0] == FRAME_HELLO
            payload = serialize(_make_problem()).to_bytes()
            conn.sendall(encode_frame(
                FRAME_JOB,
                xdr.encode({"job_id": 5, "kind": PAYLOAD_SERIAL, "payload": payload}),
            ))
            kind, answer = read_frame(conn.recv)
            assert kind == FRAME_RESULT
            decoded = xdr.decode(answer)
            assert decoded["job_id"] == 5
            assert decoded["result"] is None
            assert "not transmissible" in decoded["error"]
        thread.join(timeout=10.0)

    def test_worker_errors_are_captured_not_fatal(self):
        with spawn_local_workers(1) as pool:
            backend = create_backend("remote", hosts=pool.hosts)
            payload = serialize([1, 2, 3]).to_bytes()  # decodes, but not a problem
            backend.dispatch(
                0,
                Job(job_id=0, path="", file_size=8, compute_cost=1e-3),
                PreparedMessage(kind=PAYLOAD_SERIAL, payload=payload, nbytes=8),
            )
            done = backend.collect(timeout=60.0)
            assert done.result is None
            assert "ClusterError" in done.error
            # the worker survived the bad job and prices the next one
            _dispatch(backend, 0, 1, _make_problem())
            assert backend.collect(timeout=60.0).error is None
            backend.finalize()


class TestSessionOverRemote:
    def test_run_bit_identical_to_sequential(self):
        portfolio = build_toy_portfolio(n_options=10)
        reference = ValuationSession(backend="local").run(portfolio)
        with spawn_local_workers(2) as pool:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": pool.hosts}
            )
            remote = session.run(portfolio)
        assert not remote.report.errors
        assert _prices(remote) == _prices(reference)

    def test_stream_and_batch_over_remote(self):
        portfolio = build_toy_portfolio(n_options=10)
        reference = ValuationSession(backend="local").run(portfolio)
        with spawn_local_workers(2) as pool:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": pool.hosts}
            )
            streamed = session.stream(portfolio, batch=True)
            collected = [price.price for price in streamed]
            assert len(collected) == len(portfolio)
            assert _prices(streamed.result()) == _prices(reference)

    def test_submit_many_futures_over_remote(self):
        problems = [_make_problem(k) for k in (90.0, 95.0, 100.0, 105.0)]
        reference = [p.compute().price for p in [_make_problem(k) for k in (90.0, 95.0, 100.0, 105.0)]]
        with spawn_local_workers(2) as pool:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": pool.hosts}
            )
            futures = session.submit_many(problems)
            assert futures[2].result(timeout=60.0)["price"] == pytest.approx(reference[2])
            by_completion = [future.price() for future in futures.as_completed()]
            assert sorted(by_completion) == sorted(reference)
            session.gather()

    def test_multiple_runs_reuse_the_worker_pool(self):
        # a session builds a fresh backend per run; the workers
        # must keep accepting connections after a clean stop frame
        portfolio = build_toy_portfolio(n_options=4)
        with spawn_local_workers(2) as pool:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": pool.hosts}
            )
            first = session.run(portfolio)
            second = session.run(portfolio)
        assert _prices(first) == _prices(second)


class TestWorkerDeath:
    def test_run_survives_one_worker_death(self):
        portfolio = build_toy_portfolio(n_options=24)
        reference = ValuationSession(backend="local").run(portfolio)
        with spawn_local_workers(3) as pool:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": pool.hosts}
            )
            streamed = session.stream(portfolio)
            iterator = iter(streamed)
            next(iterator)  # the run is underway
            pool.kill(2)  # hard node failure
            for _ in iterator:
                pass
            result = streamed.result()
        assert not result.report.errors
        assert _prices(result) == _prices(reference)

    def test_losing_every_worker_raises_retryable_error(self):
        # deterministic total-pool loss: both "workers" greet correctly and
        # then drop the connection without ever answering a job
        servers, threads, ports = [], [], []
        hold = threading.Event()

        def _dying_worker(server):
            conn, _ = server.accept()
            conn.sendall(_HELLO)
            hold.wait(30.0)  # let both connections establish first
            conn.close()

        for _ in range(2):
            server = socket.socket()
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            servers.append(server)
            ports.append(server.getsockname()[1])
            thread = threading.Thread(target=_dying_worker, args=(server,), daemon=True)
            thread.start()
            threads.append(thread)
        try:
            backend = RemoteBackend([f"127.0.0.1:{port}" for port in ports])
            problem = _make_problem()
            with pytest.raises(WorkerLostError) as excinfo:
                _dispatch(backend, 0, 0, problem)
                _dispatch(backend, 1, 1, problem)
                hold.set()  # both workers now die with the jobs in flight
                for _ in range(2):
                    backend.collect(timeout=30.0)
            assert isinstance(excinfo.value, ClusterError)  # retryable family
            assert set(excinfo.value.job_ids) <= {0, 1}
        finally:
            hold.set()
            for server in servers:
                server.close()
            for thread in threads:
                thread.join(timeout=5.0)

    def test_undecodable_result_payload_buries_the_connection(self):
        # a peer that frames correctly but answers garbage is a lost worker,
        # not a crashed run; with no survivors that surfaces as WorkerLostError
        from repro.serial.frames import FRAME_RESULT

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def _confused_worker():
            conn, _ = server.accept()
            conn.sendall(_HELLO)
            conn.recv(1 << 20)  # swallow the job
            conn.sendall(encode_frame(FRAME_RESULT, b"this is not xdr"))
            conn.close()

        thread = threading.Thread(target=_confused_worker, daemon=True)
        thread.start()
        try:
            backend = RemoteBackend([f"127.0.0.1:{port}"])
            _dispatch(backend, 0, 0, _make_problem())
            with pytest.raises(WorkerLostError):
                backend.collect(timeout=30.0)
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_collect_timeout_on_silent_worker(self):
        # a "worker" that greets correctly and then never answers
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]
        stop = threading.Event()

        def _mute_worker():
            conn, _ = server.accept()
            conn.sendall(_HELLO)
            stop.wait(30.0)
            conn.close()

        thread = threading.Thread(target=_mute_worker, daemon=True)
        thread.start()
        try:
            backend = RemoteBackend([f"127.0.0.1:{port}"])
            _dispatch(backend, 0, 0, _make_problem())
            with pytest.raises(CollectTimeoutError):
                backend.collect(timeout=0.2)
        finally:
            stop.set()
            server.close()
            thread.join(timeout=5.0)

    def test_handshake_rejects_non_worker(self):
        # a listener that speaks anything but the frame protocol
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def _imposter():
            conn, _ = server.accept()
            conn.sendall(b"HTTP/1.1 200 OK\r\n\r\n")
            conn.close()

        thread = threading.Thread(target=_imposter, daemon=True)
        thread.start()
        try:
            with pytest.raises(ClusterError, match="handshake|hello"):
                RemoteBackend([f"127.0.0.1:{port}"])
        finally:
            server.close()
            thread.join(timeout=5.0)


_WORKER_MAIN = "import sys; from repro.cluster.worker import main; sys.exit(main(sys.argv[1:]))"


def _start_server(*args: str) -> tuple[subprocess.Popen, str]:
    """A ``repro-worker`` command line of its own, and its listening address."""
    src = str(Path(worker.__file__).resolve().parents[2])
    process = subprocess.Popen(
        [sys.executable, "-c", _WORKER_MAIN, "--port", "0", "--quiet", *args],
        stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    line = process.stdout.readline()
    assert line.startswith("repro-worker listening on "), line
    return process, line.split()[-1]


class TestMultiProcessServer:
    """repro-worker --workers N: several pricing processes, one socket."""

    @pytest.fixture
    def two_process_server(self):
        process, address = _start_server("--workers", "2")
        with process:  # closes the stdout pipe
            try:
                yield address
            finally:
                process.terminate()  # SIGTERM: the server stops its children
                assert process.wait(timeout=10.0) == 0

    def test_one_server_serves_two_parallel_slaves(self, two_process_server):
        portfolio = build_toy_portfolio(n_options=8)
        reference = ValuationSession(backend="local").run(portfolio)
        # the master lists the single address twice: the kernel load-balances
        # the two connections across the forked children
        session = ValuationSession(
            backend="remote", backend_options={"hosts": [two_process_server] * 2}
        )
        remote = session.run(portfolio)
        assert remote.prices() == reference.prices()
        assert remote.report.n_workers == 2

    def test_chunked_scheduling_over_a_multi_process_server(self, two_process_server):
        from repro.core.scheduler import ChunkedPolicy

        portfolio = build_toy_portfolio(n_options=8)
        reference = ValuationSession(backend="local").run(portfolio)
        session = ValuationSession(
            backend="remote",
            backend_options={"hosts": [two_process_server] * 2},
            scheduler=ChunkedPolicy,
        )
        assert session.run(portfolio).prices() == reference.prices()

    def test_workers_must_be_positive(self):
        with pytest.raises(ClusterError, match="workers"):
            worker.serve(port=0, workers=0)


class TestWorkerCommandLine:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--port", "70000"], "port must be <= 65535, got 70000"),
            (["--port", "-1"], "port must be >= 0, got -1"),
            (["--port", "0", "--workers", "0"], "workers must be >= 1, got 0"),
        ],
    )
    def test_bad_input_is_one_error_line_and_exit_2(self, argv, message, capsys):
        assert worker.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"  # no traceback

    @pytest.mark.parametrize("kwargs", [{"port": 2.5}, {"port": True}, {"workers": 1.5}])
    def test_serve_refuses_non_integers_before_binding(self, kwargs):
        with pytest.raises(ClusterError, match="must be an int"):
            worker.serve(**{"port": 0, **kwargs})


class TestSpawnLocalWorkers:
    @pytest.mark.parametrize("n", [2.5, True, 0, -1, "2"])
    def test_the_count_is_checked_before_any_spawn(self, n):
        """``2.5`` used to raise a bare ``TypeError`` and ``True`` to start one worker."""
        before = set(mp.active_children())
        with pytest.raises(ClusterError, match="spawn_local_workers n must be"):
            spawn_local_workers(n)
        assert set(mp.active_children()) <= before

    def test_a_server_that_never_reports_is_a_typed_error(self, monkeypatch):
        """A bare ``queue.Empty`` used to escape, with the processes left running."""
        monkeypatch.setattr(worker, "_STARTUP_TIMEOUT_S", 0.0)
        before = set(mp.active_children())
        with pytest.raises(ClusterError, match="within the 0 s start-up timeout"):
            spawn_local_workers(2)
        assert set(mp.active_children()) <= before

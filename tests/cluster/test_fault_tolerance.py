"""Remote-pool fault tolerance: reconnects, liveness burials, the
authenticated handshake, and the session retry layer.

The acceptance shape throughout: a campaign that loses workers mid-run must
either finish bit-identical to an undisturbed run (when the reconnect /
liveness machinery can save it) or fail loudly with a resubmittable
:class:`~repro.errors.WorkerLostError` (when it cannot).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.api import ValuationSession
from repro.cluster.backends import Job, PAYLOAD_SERIAL, PreparedMessage
from repro.cluster.backends import remote
from repro.cluster.backends.base import REDIAL_DELAYS_S
from repro.cluster.backends.remote import RemoteBackend
from repro.cluster.worker import probe_worker, serve, spawn_local_workers
from repro.core.portfolio import Portfolio, Position
from repro.errors import (
    ClusterError,
    CollectTimeoutError,
    WorkerLostError,
)
from repro.pricing import PricingProblem
from repro.serial import serialize, xdr
from repro.serial.frames import (
    FRAME_HELLO,
    FRAME_JOB,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
)


def _make_problem(strike: float = 100.0, method: str = "CF_Call", **params) -> PricingProblem:
    problem = PricingProblem(label=f"fault_{strike:.0f}")
    problem.set_asset("equity")
    problem.set_model("BlackScholes1D", spot=100.0, rate=0.05, volatility=0.2)
    problem.set_option("CallEuro", strike=strike, maturity=1.0)
    problem.set_method(method, **params)
    return problem


def _dispatch(backend: RemoteBackend, worker_id: int, job_id: int, problem) -> None:
    data = serialize(problem).to_bytes()
    backend.dispatch(
        worker_id,
        Job(job_id=job_id, path="", file_size=len(data), compute_cost=1e-3),
        PreparedMessage(kind=PAYLOAD_SERIAL, payload=data, nbytes=len(data)),
    )


def _collect_sorted(backend: RemoteBackend, n: int, timeout: float = 60.0):
    return sorted(
        (backend.collect(timeout=timeout) for _ in range(n)),
        key=lambda done: done.job_id,
    )


class _MuteWorker:
    """Greets like a repro-worker, then swallows every frame in silence.

    The deterministic way to keep jobs *in flight*: real workers answer
    closed-form jobs faster than a test can kill them.
    """

    def __init__(self):
        self._server = socket.create_server(("127.0.0.1", 0))
        self.address = f"127.0.0.1:{self._server.getsockname()[1]}"
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._server.accept()
        except OSError:
            return
        with conn:
            conn.sendall(_hello())
            self._release.wait(60.0)

    def drop(self) -> None:
        """Close the connection, jobs still unanswered (a crash, seen from
        the master)."""
        self._release.set()

    def close(self) -> None:
        self._release.set()
        self._server.close()
        self._thread.join(timeout=5.0)


def _restamped(frame: bytes, version: int) -> bytes:
    """``frame`` with its header's protocol-version stamp overwritten."""
    return frame[:4] + version.to_bytes(2, "big") + frame[6:]


def _hello(version: int = PROTOCOL_VERSION) -> bytes:
    return encode_frame(
        FRAME_HELLO, xdr.encode({"role": "repro-worker", "pid": 0, "version": version})
    )


class _ForeignWorker:
    """Greets every connection with fixed hello bytes and records whatever
    the master writes afterwards (nothing, if it refuses the peer)."""

    def __init__(self, hello: bytes):
        self._hello = hello
        self.received = b""
        self._server = socket.create_server(("127.0.0.1", 0))
        self.address = f"127.0.0.1:{self._server.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5.0)
                try:
                    conn.sendall(self._hello)
                    while data := conn.recv(65536):
                        self.received += data
                except OSError:
                    pass

    def close(self) -> None:
        self._server.close()
        self._thread.join(timeout=5.0)


class TestReconnectSchedule:
    def test_reconnect_true_is_the_old_default_policy(self):
        """``reconnect=True`` dials a dead host 5 times, after 0.05, 0.1, 0.2,
        0.4 and 0.8 s: the schedule the default ``ReconnectPolicy()`` had, and
        the one a session's ``retry=True`` rebuilds a lost pool on."""
        assert remote.REDIAL_DELAYS_S is REDIAL_DELAYS_S == (0.05, 0.1, 0.2, 0.4, 0.8)

    def test_a_dead_host_is_dialed_five_times_then_buried(self, monkeypatch):
        schedule = (0.001, 0.002, 0.003, 0.004, 0.005)
        waits, dials = [], []

        class RecordedSchedule(tuple):
            def __getitem__(self, k):
                waits.append(tuple.__getitem__(self, k))
                return waits[-1]

        mute = _MuteWorker()
        try:
            backend = RemoteBackend([mute.address], reconnect=True)
            monkeypatch.setattr(remote, "REDIAL_DELAYS_S", RecordedSchedule(schedule))
            connect = backend._connect
            monkeypatch.setattr(
                backend, "_connect",
                lambda address: dials.append(time.monotonic()) or connect(address))
            _dispatch(backend, 0, 0, _make_problem())
            mute.close()  # the host is gone for good: every re-dial is refused
            with pytest.raises(WorkerLostError) as excinfo:
                backend.collect(timeout=30.0)
            backend.finalize()
        finally:
            mute.close()
        # the first wait on the drop, then one after each failed dial but the last
        assert waits == list(schedule)
        assert len(dials) == 5
        gaps = [later - earlier for earlier, later in zip(dials, dials[1:])]
        assert all(gap >= wait for gap, wait in zip(gaps, schedule[1:]))
        assert excinfo.value.job_ids == (0,)


class TestKillAndRestart:
    def test_campaign_survives_a_worker_restart(self, monkeypatch):
        """The acceptance e2e: the only worker is hard-killed mid-campaign
        and restarted on the same port; ``reconnect=True`` finishes the run
        bit-identical, with no WorkerLostError and >= 1 reconnect."""
        # more dials than the five of the fixed schedule: a loaded machine
        # may take seconds to restart a worker process
        monkeypatch.setattr(remote, "REDIAL_DELAYS_S", (0.1, 0.2, 0.4) + (0.5,) * 27)
        problems = [_make_problem(80.0 + 5 * k) for k in range(6)]
        reference = [p.compute().price for p in problems]
        with spawn_local_workers(1) as pool:
            backend = RemoteBackend(pool.hosts, reconnect=True)
            for index in range(2):
                _dispatch(backend, 0, index, problems[index])
            first = _collect_sorted(backend, 2)
            assert [done.error for done in first] == [None, None]

            pool.kill(0)
            reviver = threading.Thread(
                target=lambda: (time.sleep(0.6), pool.restart(0)), daemon=True
            )
            reviver.start()
            # dispatched into the dead pool: the backend parks/redials and
            # completes once the worker is back on its original port
            for index in range(2, 6):
                _dispatch(backend, 0, index, problems[index])
            rest = _collect_sorted(backend, 4)
            stats = backend.finalize()
            reviver.join(timeout=10.0)

            collected = first + rest
            assert [done.job_id for done in collected] == list(range(6))
            assert [done.error for done in collected] == [None] * 6
            assert [done.result["price"] for done in collected] == reference
            assert stats.extra["reconnects"] >= 1
            assert backend.reconnects >= 1


class TestCascadingFailures:
    def test_survivors_absorb_orphans_until_the_pool_is_gone(self):
        """Kill workers one at a time: orphans redispatch to survivors; only
        the last death surfaces WorkerLostError, whose job_ids resubmit
        bit-identical on a fresh pool."""
        problems = [_make_problem(80.0 + 5 * k) for k in range(6)]
        reference = [p.compute().price for p in problems]
        mutes = [_MuteWorker() for _ in range(3)]
        try:
            backend = RemoteBackend([m.address for m in mutes])
            for index, problem in enumerate(problems):
                _dispatch(backend, index % 3, index, problem)

            mutes[0].drop()  # first death: orphans move to the survivors...
            with pytest.raises(CollectTimeoutError):
                backend.collect(timeout=0.5)
            assert backend.redispatches >= 2  # ...which hold them, silently

            mutes[1].drop()
            mutes[2].drop()  # last survivor gone: now the run is lost
            with pytest.raises(WorkerLostError) as excinfo:
                backend.collect(timeout=10.0)
            backend.finalize()
            assert set(excinfo.value.job_ids) == set(range(6))
        finally:
            for mute in mutes:
                mute.close()

        # the error is retryable by construction: resubmit exactly job_ids
        with spawn_local_workers(2) as pool:
            fresh = RemoteBackend(pool.hosts)
            for job_id in sorted(excinfo.value.job_ids):
                _dispatch(fresh, job_id % 2, job_id, problems[job_id])
            collected = _collect_sorted(fresh, len(excinfo.value.job_ids))
            fresh.finalize()
            assert [done.error for done in collected] == [None] * 6
            assert [done.result["price"] for done in collected] == reference

    def test_liveness_timeout_buries_mid_campaign(self):
        """With liveness_timeout set, collect() itself notices the wedged
        worker."""
        mute = _MuteWorker()
        try:
            with spawn_local_workers(1) as pool:
                backend = RemoteBackend(
                    [mute.address, pool.hosts[0]], liveness_timeout=0.4
                )
                problems = [_make_problem(95.0), _make_problem(105.0)]
                _dispatch(backend, 0, 0, problems[0])  # wedged worker
                _dispatch(backend, 1, 1, problems[1])
                collected = _collect_sorted(backend, 2, timeout=30.0)
                stats = backend.finalize()
                assert [done.job_id for done in collected] == [0, 1]
                assert [done.error for done in collected] == [None, None]
                assert stats.extra["liveness_buried"] >= 1
        finally:
            mute.close()


class TestAuthenticatedHandshake:
    def test_matching_secrets_price_jobs(self):
        problem = _make_problem()
        with spawn_local_workers(1, secret="tok-123") as pool:
            backend = RemoteBackend(pool.hosts, secret="tok-123")
            _dispatch(backend, 0, 0, problem)
            done = backend.collect(timeout=30.0)
            backend.finalize()
            assert done.error is None
            assert done.result["price"] == problem.compute().price

    def test_secret_master_refuses_secretless_worker(self):
        # loud, at connect time -- before a single job frame is sent
        with spawn_local_workers(1) as pool:
            with pytest.raises(ClusterError, match="refused the shared-secret"):
                RemoteBackend(pool.hosts, secret="tok-123")

    def test_wrong_secret_refused(self):
        with spawn_local_workers(1, secret="right-secret") as pool:
            with pytest.raises(ClusterError, match="refused the shared-secret"):
                RemoteBackend(pool.hosts, secret="wrong-secret")

    def test_secretless_master_refused_by_secret_worker(self):
        with spawn_local_workers(1, secret="right-secret") as pool:
            with pytest.raises(ClusterError, match="requires a shared secret"):
                RemoteBackend(pool.hosts)


#: every stamp but PROTOCOL_VERSION is foreign: both old generations and a future one
FOREIGN_VERSIONS = [3, 4, PROTOCOL_VERSION + 1]


class TestForeignPeerRefused:
    """One protocol version: a peer at any other stamp, or one whose hello
    does not decode, is refused before a job frame is sent or executed."""

    @pytest.mark.parametrize(
        "hello",
        [_restamped(_hello(v), v) for v in FOREIGN_VERSIONS]  # foreign header stamp
        + [_hello(v) for v in FOREIGN_VERSIONS]  # current header, foreign greeting
        + [
            encode_frame(FRAME_HELLO, b"\x00not an xdr payload"),
            encode_frame(FRAME_HELLO, xdr.encode(["not", "a", "dict"])),
            encode_frame(FRAME_HELLO, xdr.encode({"role": "repro-worker"})),
        ],
        ids=[f"header-v{v}" for v in FOREIGN_VERSIONS]
        + [f"greeting-v{v}" for v in FOREIGN_VERSIONS]
        + ["garbage", "non-dict", "no-version"],
    )
    def test_master_refuses_a_foreign_worker(self, hello):
        worker = _ForeignWorker(hello)
        try:
            with pytest.raises(ClusterError, match="handshake|hello"):
                RemoteBackend([worker.address])
            assert probe_worker(worker.address, timeout=5.0) is False
        finally:
            worker.close()
        # not a byte -- let alone a FRAME_JOB* -- was written to the peer
        assert worker.received == b""

    @pytest.mark.parametrize("version", FOREIGN_VERSIONS)
    def test_worker_drops_a_foreign_master(self, version, monkeypatch, capsys):
        import repro.cluster.backends.execution as execution

        executed = []
        monkeypatch.setattr(
            execution, "execute_payload",
            lambda *args, **kwargs: executed.append(args) or (None, 0.0, None),
        )
        ports: list[int] = []
        listening = threading.Event()
        thread = threading.Thread(
            target=serve,
            kwargs={
                "host": "127.0.0.1", "port": 0, "once": True, "quiet": False,
                "ready": lambda port: (ports.append(port), listening.set()),
            },
            daemon=True,
        )
        thread.start()
        assert listening.wait(10.0)
        data = serialize(_make_problem()).to_bytes()
        job = encode_frame(
            FRAME_JOB,
            xdr.encode({"job_id": 0, "kind": PAYLOAD_SERIAL, "payload": data}),
        )
        with socket.create_connection(("127.0.0.1", ports[0]), timeout=10.0) as conn:
            assert read_frame(conn.recv)[0] == FRAME_HELLO
            conn.sendall(_restamped(job, version))
            try:
                answer = read_frame(conn.recv)
            except ConnectionResetError:  # closed with our payload unread
                answer = None
            assert answer is None  # hung up, no result frame
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert executed == []
        assert "version mismatch" in capsys.readouterr().err


class TestSessionRetry:
    def _portfolio_and_reference(self, n: int = 10):
        problems = [
            _make_problem(80.0 + 3 * k, method="MC_European", n_paths=20_000, seed=7)
            for k in range(n)
        ]
        portfolio = Portfolio(
            positions=[Position(p, label=f"p{k}") for k, p in enumerate(problems)]
        )
        return portfolio, [p.compute().price for p in problems]

    def test_pool_loss_is_retried_transparently(self):
        portfolio, reference = self._portfolio_and_reference()
        with spawn_local_workers(1) as pool:
            session = ValuationSession(
                backend="remote", strategy="serialized_load",
                backend_options={"hosts": pool.hosts},
            )
            killed = threading.Event()

            def on_progress(event):
                if not killed.is_set():
                    killed.set()
                    pool.kill(0)
                    threading.Thread(
                        target=lambda: (time.sleep(0.8), pool.restart(0)),
                        daemon=True,
                    ).start()

            result = session.run(portfolio, retry=True, progress=on_progress)
            report = result.report
            assert not report.errors
            assert report.extra.get("retries", 0) >= 1
            assert [entry["price"] for entry in report.results.values()] == reference

    def test_pool_loss_without_retry_raises(self):
        portfolio, _reference = self._portfolio_and_reference()
        with spawn_local_workers(1) as pool:
            session = ValuationSession(
                backend="remote", strategy="serialized_load",
                backend_options={"hosts": pool.hosts},
            )
            killed = threading.Event()

            def on_progress(event):
                if not killed.is_set():
                    killed.set()
                    pool.kill(0)

            with pytest.raises(WorkerLostError):
                session.run(portfolio, progress=on_progress)

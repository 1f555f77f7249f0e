"""Remote-pool fault tolerance: re-dials -- the pool's first dials among
them -- liveness burials, the authenticated handshake, and the campaign that
rebuilds a lost pool.

The acceptance shape throughout: a campaign that loses workers mid-run must
either finish bit-identical to an undisturbed run (when the re-dial /
rebuild / liveness machinery can save it) or fail loudly with a resubmittable
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
from repro.cluster.worker import serve, spawn_local_workers
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
        """Close the connection, jobs still unanswered.  The host keeps
        listening but never accepts again, so a re-dial connects and is
        never greeted: a wedged worker, seen from the master."""
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


class _ListeningHost:
    """Accepts every connection until closed, counting them.  It greets the
    first like a repro-worker and drops it at the first job frame; with
    ``greet`` every later one too (a host that crashes on every job), and
    without, it holds each later one in silence (a wedged host whose
    listener the kernel still serves)."""

    def __init__(self, greet: bool):
        self._greet = greet
        self.connections = 0
        self._held: list[socket.socket] = []
        self._server = socket.create_server(("127.0.0.1", 0))
        self._server.settimeout(0.1)  # wakes to see ``close``
        self.address = f"127.0.0.1:{self._server.getsockname()[1]}"
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            if not self._greet and self.connections > 1:
                self._held.append(conn)
                continue
            with conn:
                conn.settimeout(10.0)
                try:
                    conn.sendall(_hello())
                    read_frame(conn.recv)  # the first job, never answered
                except (OSError, ClusterError):
                    pass

    def close(self) -> None:
        self._closed.set()
        self._thread.join(timeout=5.0)
        self._server.close()
        for conn in self._held:
            conn.close()


class _ForeignWorker:
    """Greets the master's dial with fixed hello bytes and records whatever
    the master writes afterwards (nothing, if it refuses the peer)."""

    def __init__(self, hello: bytes):
        self._hello = hello
        self.received = b""
        self._server = socket.create_server(("127.0.0.1", 0))
        self.address = f"127.0.0.1:{self._server.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
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


class _SilentHost:
    """A listener that never accepts: the kernel completes every connect,
    and no hello ever comes (a wedged worker, seen from the master)."""

    def __init__(self):
        self._server = socket.create_server(("127.0.0.1", 0), backlog=16)
        self.address = f"127.0.0.1:{self._server.getsockname()[1]}"

    def close(self) -> None:
        self._server.close()


def _refused_address() -> str:
    """An address nothing listens on."""
    with socket.socket() as placeholder:
        placeholder.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{placeholder.getsockname()[1]}"


class TestReconnectSchedule:
    def test_the_schedule_is_the_old_default_policy(self):
        """A dead host is re-dialed 5 times, after 0.05, 0.1, 0.2, 0.4 and
        0.8 s: the schedule the default ``ReconnectPolicy()`` had, and the one
        a session's campaign rebuilds a lost pool on."""
        assert remote.REDIAL_DELAYS_S is REDIAL_DELAYS_S == (0.05, 0.1, 0.2, 0.4, 0.8)

    def test_a_pool_with_no_live_host_is_lost_at_once_naming_its_jobs(self, monkeypatch):
        """Rebuilding a whole pool is its campaign's to do: the backend
        re-dials no one and raises the loss as the last host is buried."""
        dials = []
        mute = _MuteWorker()
        try:
            backend = RemoteBackend([mute.address])
            dial = backend._dial
            monkeypatch.setattr(
                backend, "_dial", lambda address: dials.append(address) or dial(address))
            for job_id in range(2):
                _dispatch(backend, 0, job_id, _make_problem(100.0 + job_id))
            mute.drop()
            start = time.monotonic()
            with pytest.raises(WorkerLostError) as excinfo:
                backend.collect(timeout=30.0)
            waited = time.monotonic() - start
            backend.finalize()
        finally:
            mute.close()
        assert excinfo.value.job_ids == (0, 1)
        assert dials == [] and waited < REDIAL_DELAYS_S[0] + 1.0

    def test_a_dead_host_is_dialed_five_times_then_buried(self, monkeypatch):
        schedule = (0.001, 0.002, 0.003, 0.004, 0.005)
        waits, dials = [], []

        class RecordedSchedule(tuple):
            def __getitem__(self, k):
                waits.append(tuple.__getitem__(self, k))
                return waits[-1]

        mute, survivor = _MuteWorker(), _MuteWorker()
        try:
            backend = RemoteBackend([mute.address, survivor.address])
            monkeypatch.setattr(remote, "REDIAL_DELAYS_S", RecordedSchedule(schedule))
            dial = backend._dial
            monkeypatch.setattr(
                backend, "_dial",
                lambda address: dials.append(time.monotonic()) or dial(address))
            _dispatch(backend, 0, 0, _make_problem())
            mute.close()  # the host is gone for good: every re-dial is refused
            with pytest.raises(CollectTimeoutError):  # the survivor holds job 0
                backend.collect(timeout=1.0)
            backend.finalize()
        finally:
            mute.close()
            survivor.close()
        # the first wait on the drop, then one after each failed dial but the last
        assert waits == list(schedule)
        assert len(dials) == 5
        gaps = [later - earlier for earlier, later in zip(dials, dials[1:])]
        assert all(gap >= wait for gap, wait in zip(gaps, schedule[1:]))


def _price_on_worker_0(backend: RemoteBackend, problems, first_id: int, until) -> list:
    """Send ``problems[k % len]`` to logical worker 0 and collect it, one at
    a time, until ``until()`` holds: what each collect returned, and how long."""
    collected = []
    job_id = first_id
    while not until():
        start = time.monotonic()
        _dispatch(backend, 0, job_id, problems[job_id % len(problems)])
        done = backend.collect(timeout=60.0)
        collected.append((done, time.monotonic() - start))
        job_id += 1
        time.sleep(0.02)
    return collected


class TestAHostThatKeepsListening:
    """A re-dial reaches a host that is listening, but it is no worker any
    more.  The survivor's work never waits on it, and it is dialed five times
    until it answers a job -- not once more per dial that got through."""

    PROBLEMS = [_make_problem(80.0 + 5 * k) for k in range(6)]

    def _run_beside_a_survivor(self, host: _ListeningHost, seconds: float) -> list:
        reference = [problem.compute().price for problem in self.PROBLEMS]
        with spawn_local_workers(1) as pool:
            backend = RemoteBackend([host.address, pool.hosts[0]])
            stop_at = time.monotonic() + seconds
            collected = _price_on_worker_0(
                backend, self.PROBLEMS, 0, lambda: time.monotonic() > stop_at)
            backend.finalize()
        assert [done.error for done, _ in collected] == [None] * len(collected)
        assert [done.result["price"] for done, _ in collected] == [
            reference[done.job_id % len(reference)] for done, _ in collected]
        return collected

    def test_one_that_greets_and_drops_is_dialed_five_times(self):
        host = _ListeningHost(greet=True)
        try:
            self._run_beside_a_survivor(host, 3.0)
        finally:
            host.close()
        assert 2 <= host.connections <= 1 + len(REDIAL_DELAYS_S)

    def test_one_that_never_greets_holds_no_one_up(self):
        """A dial connects and waits for a hello that never comes: the
        survivor's results keep landing within their own time, not after the
        10 s that dial may wait."""
        host = _ListeningHost(greet=False)
        try:
            collected = self._run_beside_a_survivor(host, 1.0)
        finally:
            host.close()
        assert host.connections == 2  # the pool's dial, and the re-dial still waiting
        assert max(seconds for _, seconds in collected) < 2.0

    def test_a_dial_that_is_never_greeted_is_given_up_at_its_deadline(self, monkeypatch):
        monkeypatch.setattr(remote, "_CONNECT_TIMEOUT_S", 0.2)
        host = _ListeningHost(greet=False)
        try:
            self._run_beside_a_survivor(host, 1.55 + 5 * 0.2 + 1.0)
        finally:
            host.close()
        assert host.connections == 1 + len(REDIAL_DELAYS_S)


class TestAHostDownAtTheStart:
    """A pool's first dials are dials like its re-dials: a host that is down
    when the pool is built is treated as one that died at once."""

    def test_its_slots_are_answered_by_the_live_host(self):
        problems = [_make_problem(90.0), _make_problem(110.0)]
        refused = _refused_address()
        with spawn_local_workers(1) as pool:
            backend = RemoteBackend([refused, pool.hosts[0]])
            for worker_id, problem in enumerate(problems):
                _dispatch(backend, worker_id, worker_id, problem)
            collected = _collect_sorted(backend, 2, timeout=30.0)
            stats = backend.finalize()
        assert [done.worker_id for done in collected] == [0, 1]
        assert [done.error for done in collected] == [None, None]
        assert [done.result["price"] for done in collected] == [
            problem.compute().price for problem in problems]
        assert stats.extra["hosts"] == [refused, pool.hosts[0]]
        assert stats.extra["dead_hosts"] == [refused]
        assert stats.extra["reconnects"] == 0

    def test_its_slot_is_credited_no_busy_time(self):
        """Busy time goes to the host that answered: the dead host's slot
        reads 0.0 though its logical worker was sent half the jobs."""
        problem = _make_problem(method="MC_European", n_paths=20_000, seed=3)
        with spawn_local_workers(1) as pool:
            backend = RemoteBackend([_refused_address(), pool.hosts[0]])
            for job_id in range(6):
                _dispatch(backend, job_id % 2, job_id, problem)
            collected = _collect_sorted(backend, 6, timeout=30.0)
            stats = backend.finalize()
        assert [done.error for done in collected] == [None] * 6
        assert stats.worker_busy[0] == 0.0
        assert stats.worker_busy[1] > 0.0

    def test_a_session_prices_as_local_does(self):
        portfolio = Portfolio(positions=[
            Position(_make_problem(80.0 + 3 * k)) for k in range(12)])
        reference = ValuationSession(backend="local").run(portfolio).prices()
        with spawn_local_workers(1) as pool:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": [_refused_address(), pool.hosts[0]]})
            result = session.run(portfolio)
        assert result.prices() == reference
        assert "retries" not in result.report.extra

    def test_it_takes_its_slots_back_when_it_greets(self, monkeypatch):
        # more dials than the five of the fixed schedule: a loaded machine
        # may take seconds to restart a worker process
        monkeypatch.setattr(remote, "REDIAL_DELAYS_S", (0.1, 0.2, 0.4) + (0.5,) * 27)
        problems = [_make_problem(95.0)]
        with spawn_local_workers(2) as pool:
            pool.kill(0)
            backend = RemoteBackend(pool.hosts)
            assert backend._route == [1, 1]
            pool.restart(0)
            stop_at = time.monotonic() + 30.0
            rest = _price_on_worker_0(
                backend, problems, 0,
                lambda: backend.reconnects >= 1 or time.monotonic() > stop_at)
            assert backend._route == [0, 1]  # its logical slot is its own again
            _dispatch(backend, 0, len(rest), problems[0])
            last = backend.collect(timeout=30.0)
            stats = backend.finalize()
        assert [done.error for done, _ in rest] + [last.error] == [None] * (len(rest) + 1)
        assert last.result["price"] == problems[0].compute().price
        assert stats.extra["reconnects"] == 1
        assert stats.extra["dead_hosts"] == []
        assert stats.worker_busy[0] > 0.0

    def test_three_silent_hosts_cost_one_timeout(self, monkeypatch):
        """Three listeners that never greet beside one worker: the first
        dials run at once, so the pool is built in one connect timeout, not
        three, and the run completes."""
        monkeypatch.setattr(remote, "_CONNECT_TIMEOUT_S", 0.5)
        silent = [_SilentHost() for _ in range(3)]
        portfolio = Portfolio(positions=[
            Position(_make_problem(80.0 + 3 * k)) for k in range(8)])
        reference = ValuationSession(backend="local").run(portfolio).prices()
        try:
            with spawn_local_workers(1) as pool:
                hosts = [pool.hosts[0], *(host.address for host in silent)]
                start = time.monotonic()
                RemoteBackend(hosts).finalize()
                built_in = time.monotonic() - start
                session = ValuationSession(backend="remote", backend_options={"hosts": hosts})
                result = session.run(portfolio)
        finally:
            for host in silent:
                host.close()
        assert 0.5 <= built_in < 1.0
        assert result.prices() == reference
        assert result.report.extra["dead_hosts"] == [host.address for host in silent]

    def test_a_pool_none_of_whose_hosts_greets_names_each_failure(self):
        refused = [_refused_address(), _refused_address()]
        with pytest.raises(ClusterError, match="no worker of the pool greeted") as excinfo:
            RemoteBackend(refused)
        for address in refused:
            assert f"cannot connect to worker {address}" in str(excinfo.value)


class TestKillAndRestart:
    def test_a_restarted_host_gets_its_slots_back(self, monkeypatch):
        """A worker is hard-killed while another carries on and is restarted
        on the same port: the backend re-dials it and routes its slot back
        to it, and every job lands bit-identical."""
        # more dials than the five of the fixed schedule: a loaded machine
        # may take seconds to restart a worker process
        monkeypatch.setattr(remote, "REDIAL_DELAYS_S", (0.1, 0.2, 0.4) + (0.5,) * 27)
        problems = [_make_problem(80.0 + 5 * k) for k in range(6)]
        reference = [p.compute().price for p in problems]
        with spawn_local_workers(2) as pool:
            backend = RemoteBackend(pool.hosts)
            for index in range(2):
                _dispatch(backend, 0, index, problems[index])
            first = _collect_sorted(backend, 2)
            assert [done.error for done in first] == [None, None]

            pool.kill(0)
            reviver = threading.Thread(
                target=lambda: (time.sleep(0.6), pool.restart(0)), daemon=True
            )
            reviver.start()
            # sent to worker 0 meanwhile: the survivor answers until the
            # reborn host is dialed back
            stop_at = time.monotonic() + 30.0
            rest = _price_on_worker_0(
                backend, problems, 2,
                lambda: backend.reconnects >= 1 or time.monotonic() > stop_at)
            assert backend._route[0] == 0  # its logical slot is its own again
            _dispatch(backend, 0, 2 + len(rest), problems[(2 + len(rest)) % 6])
            last = backend.collect(timeout=60.0)
            stats = backend.finalize()
            reviver.join(timeout=10.0)

            collected = first + [done for done, _ in rest] + [last]
            assert [done.error for done in collected] == [None] * len(collected)
            assert [done.result["price"] for done in collected] == [
                reference[done.job_id % 6] for done in collected]
            assert stats.extra["reconnects"] >= 1


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

    def test_liveness_timeout_buries_mid_campaign(self, monkeypatch):
        """collect() itself notices the wedged worker (the window shortened
        from its 30 s)."""
        monkeypatch.setattr(remote, "_LIVENESS_TIMEOUT_S", 0.4)
        mute = _MuteWorker()
        try:
            with spawn_local_workers(1) as pool:
                backend = RemoteBackend([mute.address, pool.hosts[0]])
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

    def test_a_mismatch_beside_a_down_host_still_fails_the_pool(self):
        with spawn_local_workers(1, secret="right-secret") as pool:
            with pytest.raises(ClusterError, match="refused the shared-secret"):
                RemoteBackend([_refused_address(), pool.hosts[0]], secret="wrong-secret")


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
        finally:
            worker.close()
        # not a byte -- let alone a FRAME_JOB* -- was written to the peer
        assert worker.received == b""

    def test_a_foreign_peer_beside_a_worker_fails_the_pool(self):
        worker = _ForeignWorker(_hello(PROTOCOL_VERSION + 1))
        try:
            with spawn_local_workers(1) as pool:
                with pytest.raises(ClusterError, match="hello"):
                    RemoteBackend([pool.hosts[0], worker.address])
        finally:
            worker.close()
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

    @pytest.mark.parametrize("n_hosts, back_after", [(1, 0.8), (2, 0.2)])
    def test_pool_loss_is_retried_transparently(self, n_hosts, back_after):
        """Every host is killed at the first answer and the first is back
        ``back_after`` s later, inside the campaign's tries to rebuild the
        pool: a try needs only one host to greet, so with two hosts the pool
        comes back on the restarted one and the other is routed around."""
        portfolio, reference = self._portfolio_and_reference()
        with spawn_local_workers(n_hosts) as pool:
            session = ValuationSession(
                backend="remote", strategy="serialized_load",
                backend_options={"hosts": pool.hosts},
            )
            killed = threading.Event()

            def on_progress(event):
                if not killed.is_set():
                    killed.set()
                    for index in range(n_hosts):
                        pool.kill(index)
                    threading.Thread(
                        target=lambda: (time.sleep(back_after), pool.restart(0)),
                        daemon=True,
                    ).start()

            result = session.run(portfolio, progress=on_progress)
            report = result.report
            assert not report.errors
            assert report.extra.get("retries", 0) == 1
            assert [entry["price"] for entry in report.results.values()] == reference
            assert report.extra["dead_hosts"] == pool.hosts[1:]

    def test_a_pool_that_never_comes_back_is_reported_lost_after_the_schedule(
        self, monkeypatch
    ):
        """The backend re-dials no one once its only host is gone; the
        campaign tries 5 times to build a new pool, 1.55 s in all, before the
        loss surfaces naming the positions still owed."""
        portfolio, _reference = self._portfolio_and_reference()
        dials = []
        dial = RemoteBackend._dial
        monkeypatch.setattr(
            RemoteBackend, "_dial",
            staticmethod(lambda address: dials.append(address) or dial(address)))
        with spawn_local_workers(1) as pool:
            session = ValuationSession(
                backend="remote", strategy="serialized_load",
                backend_options={"hosts": pool.hosts},
            )
            killed = threading.Event()

            def on_progress(event):
                if not killed.is_set():
                    killed.set()
                    pool.kill(0)  # and never restarted

            start = time.monotonic()
            with pytest.raises(WorkerLostError) as excinfo:
                session.run(portfolio, progress=on_progress)
            waited = time.monotonic() - start
        assert len(dials) == 1 + len(REDIAL_DELAYS_S)  # the pool, the rebuilds
        assert waited >= sum(REDIAL_DELAYS_S)
        assert excinfo.value.job_ids

    def test_a_lone_host_that_greets_and_drops_is_reported_lost(self):
        """Each new pool greets and then loses its job: the campaign builds
        five, one per delay of its schedule, and reports the loss -- it does
        not loop until a collect timeout."""
        portfolio, _reference = self._portfolio_and_reference(4)
        host = _ListeningHost(greet=True)
        try:
            session = ValuationSession(
                backend="remote", backend_options={"hosts": [host.address]})
            start = time.monotonic()
            with pytest.raises(WorkerLostError) as excinfo:
                session.run(portfolio)
            waited = time.monotonic() - start
        finally:
            host.close()
        assert host.connections == 1 + len(REDIAL_DELAYS_S)
        assert sum(REDIAL_DELAYS_S) <= waited < 10.0
        assert excinfo.value.job_ids

"""Remote TCP execution backend: the paper's MPI pool over real sockets.

This is the first backend that crosses a machine boundary.  Each worker is a
``repro-worker`` server (:mod:`repro.cluster.worker`) -- possibly on another
host -- and the master keeps one TCP connection per worker, shipping jobs as
length-prefixed XDR frames (:mod:`repro.serial.frames`) and collecting
result frames with :mod:`selectors`:

* :meth:`RemoteBackend.dispatch` serializes the prepared payload into one
  ``FRAME_JOB`` message -- ``MPI_Send_Obj`` in the paper's master script;
* :meth:`RemoteBackend.collect` blocks on the selector until any connection
  delivers a ``FRAME_RESULT`` -- ``MPI_Probe(-1, -1, ...)`` then
  ``MPI_Recv_Obj`` -- which is all the streaming futures API needs to work
  over the wire unchanged.

A backend is one campaign's pool; these keep it alive for that campaign:

* **death** -- the master keeps the wire entry of every in-flight job, so
  when a connection drops its jobs are redispatched to the surviving
  workers and the run completes (the freed logical worker slot is remapped
  onto a live connection);
* **rebirth** -- with ``reconnect=True`` a dead host is re-dialed from the
  blocking calls (five dials, on :data:`~repro.cluster.backends.base.REDIAL_DELAYS_S`)
  and, once back, gets its original logical slots again;
* **liveness** -- a ``liveness_timeout`` turns a wedged-but-connected worker
  (one that answers neither a :data:`~repro.serial.frames.FRAME_PING` nor a
  result inside the window) into an ordinary death within seconds, instead
  of stalling ``collect`` for its full timeout;
* **identity** -- a ``secret`` arms the HMAC-SHA256 handshake,
  so the master only dispatches jobs to workers that proved knowledge of
  the shared secret (and vice versa).

Only when the whole pool is gone *and* cannot come back does a retryable
:class:`~repro.errors.WorkerLostError` surface, carrying the ids of the
jobs that were in flight so a caller (or a session run with ``retry=True``)
can resubmit them against fresh workers.

Build one through the registry --
``create_backend("remote", hosts=["10.0.0.4:9631", ...])`` or
``ValuationSession("remote", backend_options={"hosts": [...]})`` -- and use
:func:`repro.cluster.worker.spawn_local_workers` for a loopback pool.
"""

from __future__ import annotations

import math
import numbers
import os
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.cluster.backends.base import (
    REDIAL_DELAYS_S,
    BackendStats,
    CompletedJob,
    Job,
    PreparedMessage,
    WorkerBackend,
)
from repro.cluster.worker import decode_hello
from repro.errors import ClusterError, CollectTimeoutError, SerializationError, WorkerLostError
from repro.pricing.validation import check_count
from repro.serial import Serial, xdr
from repro.serial.frames import (
    FRAME_AUTH,
    FRAME_CHALLENGE,
    FRAME_HELLO,
    FRAME_JOB,
    FRAME_PING,
    FRAME_PONG,
    FRAME_RESULT,
    FRAME_STOP,
    PROTOCOL_VERSION,
    FrameAssembler,
    auth_proof,
    encode_frame,
    read_frame,
    verify_proof,
)

__all__ = ["RemoteBackend", "normalize_hosts"]

_RECV_BYTES = 1 << 16

#: seconds allowed for each TCP connect + handshake, re-dials included
_CONNECT_TIMEOUT_S = 10.0
#: seconds one frame send may block before its worker is declared lost: a
#: partitioned worker whose TCP buffer filled up cannot hang ``sendall``
_SEND_TIMEOUT_S = 60.0

#: sentinel ``conn_index`` of an orphaned in-flight job awaiting redispatch
_UNROUTED = -1


def normalize_hosts(hosts: Any) -> tuple[str, ...]:
    """Normalise a user-supplied worker address list to ``"host:port"`` strings.

    Accepts an iterable of ``"host:port"`` strings or ``(host, port)``
    pairs.  The result is a plain tuple of strings, checked before any
    socket is opened.
    """
    if isinstance(hosts, str):
        hosts = [hosts]
    if not isinstance(hosts, Iterable):
        raise ClusterError(
            f"hosts must be a list of 'host:port' strings or (host, port) "
            f"pairs, got {type(hosts).__name__}"
        )
    normalized: list[str] = []
    for entry in hosts:
        if isinstance(entry, str):
            host, sep, port_text = entry.rpartition(":")
            if not sep or not host:
                raise ClusterError(f"worker address {entry!r} is not 'host:port'")
        elif isinstance(entry, Sequence) and len(entry) == 2:
            host, port_text = str(entry[0]), str(entry[1])
        else:
            raise ClusterError(
                f"worker address {entry!r} is neither 'host:port' nor a "
                f"(host, port) pair"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ClusterError(f"invalid port in worker address {entry!r}") from None
        if not 0 < port < 65536:
            raise ClusterError(f"port {port} out of range in worker address {entry!r}")
        normalized.append(f"{host}:{port}")
    if not normalized:
        raise ClusterError("the remote backend needs at least one worker address")
    return tuple(normalized)


def _check_duration(value: Any, field: str) -> None:
    """A duration is a finite number > 0: ``nan <= 0`` is false, and a NaN or
    infinite wait is a ``time.sleep`` / selector error in mid-campaign."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value) or value <= 0:
        raise ClusterError(f"{field} must be a finite number > 0, got {value!r}")


def check_reconnect(value: Any) -> bool:
    """``reconnect`` is a plain ``True`` / ``False``; the schedule is fixed."""
    if not isinstance(value, bool):
        raise ClusterError(f"reconnect must be True or False, got {value!r}")
    return value


@dataclass
class _Connection:
    """Master-side state of one worker link."""

    address: str
    sock: socket.socket
    assembler: FrameAssembler = field(default_factory=FrameAssembler)
    alive: bool = True
    stop_sent: bool = False
    #: monotonic time of the last byte received (liveness bookkeeping)
    last_recv: float = 0.0
    #: outstanding liveness-ping token (None when not probing)
    ping_token: bytes | None = None
    ping_sent: float = 0.0


@dataclass
class _ReconnectState:
    """Backoff bookkeeping for one dead, re-dialable connection slot."""

    attempts: int = 0  # failed dials so far
    next_try: float = 0.0  # monotonic time of the next allowed dial


@dataclass
class _InFlight:
    """A dispatched, not-yet-answered job (kept for redispatch on death).

    Every record keeps the wire ``entry`` dictionary; its frame is encoded
    at the first send and kept for a death redispatch.
    """

    worker_id: int
    conn_index: int
    entry: dict[str, Any]
    frame: bytes | None = None


class RemoteBackend(WorkerBackend):
    """Master-side driver of a pool of ``repro-worker`` TCP servers.

    Parameters
    ----------
    hosts:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs); one logical worker per address.  The scheduler-facing
        ``n_workers`` is ``len(hosts)``.
    reconnect:
        ``False`` (default): a dead host stays dead.  ``True`` re-dials dead
        hosts from the blocking calls -- five dials, waiting
        :data:`~repro.cluster.backends.base.REDIAL_DELAYS_S` -- and
        remaps their logical slots back on success.  A host that exhausts
        its dials stays buried.
    liveness_timeout:
        Seconds of in-campaign silence after which a connection with jobs
        in flight is PINGed; a worker that then answers neither the pong
        nor a result within another window is buried like a dropped
        socket.  ``None`` disables the probe (a wedged worker then costs
        the full ``collect`` timeout).
    secret:
        Shared secret arming the HMAC-SHA256 handshake: every
        worker must prove knowledge of the secret at connect time, before
        any job is dispatched.  Workers that require a secret are refused
        when ``secret`` is ``None`` -- loudly, at connect.
    """

    queues_jobs = True  # each connection's compute lane is a FIFO

    def __init__(
        self,
        hosts: Any,
        *,
        reconnect: bool = False,
        liveness_timeout: float | None = None,
        secret: str | None = None,
    ):
        addresses = normalize_hosts(hosts)
        if liveness_timeout is not None:
            _check_duration(liveness_timeout, "liveness_timeout")
        self._n_workers = len(addresses)
        self._reconnect = check_reconnect(reconnect)
        self._liveness_timeout = liveness_timeout
        self._secret = secret
        self._selector = selectors.DefaultSelector()
        self._conns: list[_Connection] = []
        #: logical worker id -> index into ``_conns`` (remapped on death)
        self._route: list[int] = list(range(self._n_workers))
        #: logical worker id -> its *original* connection slot, so a host
        #: that reconnects gets its own slots back instead of staying a
        #: spectator behind the remapped survivors
        self._home: list[int] = list(range(self._n_workers))
        #: conn index -> backoff state of a pending re-dial
        self._redial: dict[int, _ReconnectState] = {}
        self._inflight: dict[int, _InFlight] = {}
        #: orphaned job ids awaiting redispatch; flushed by dispatch/collect,
        #: never inside a death, so a failed send cannot recurse into another
        #: (an insertion-ordered set: a death can orphan a whole window per slot)
        self._redispatch: dict[int, None] = {}
        self._ready: deque[CompletedJob] = deque()
        self._n_jobs = 0
        self._bytes_sent = 0
        self._reconnects = 0
        self._redispatches = 0
        self._liveness_buried = 0
        self._busy: dict[int, float] = {i: 0.0 for i in range(self._n_workers)}
        self._start = time.perf_counter()
        self._finalized = False
        try:
            for index, address in enumerate(addresses):
                conn = self._connect(address)
                self._conns.append(conn)
                self._selector.register(conn.sock, selectors.EVENT_READ, index)
        except Exception:
            for conn in self._conns:
                conn.sock.close()
            self._selector.close()
            raise

    def _connect(self, address: str) -> _Connection:
        host, _, port_text = address.rpartition(":")
        try:
            sock = socket.create_connection((host, int(port_text)), timeout=_CONNECT_TIMEOUT_S)
        except OSError as exc:
            raise ClusterError(f"cannot connect to worker {address}: {exc}") from exc
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # the worker greets first; a version mismatch fails here, loudly,
            # before any job is dispatched
            frame = read_frame(sock.recv)
            if frame is None or frame[0] != FRAME_HELLO:
                raise ClusterError(
                    f"worker {address} did not greet with a hello frame "
                    f"(is it a repro-worker?)"
                )
            self._handshake(sock, address, frame[1])
        except (SerializationError, OSError) as exc:
            # OSError covers the silent peer: the connect timeout is still armed,
            # so a listener that never greets surfaces here, wrapped
            sock.close()
            raise ClusterError(f"handshake with worker {address} failed: {exc}") from exc
        except Exception:
            sock.close()
            raise
        # bounds every later sendall; recv never blocks on it because the
        # selector only hands over sockets with data pending
        sock.settimeout(_SEND_TIMEOUT_S)
        return _Connection(address=address, sock=sock, last_recv=time.monotonic())

    def _handshake(self, sock: socket.socket, address: str, hello: bytes) -> None:
        """Finish the greeting: check the hello, run the shared-secret auth.

        Raises :class:`~repro.errors.ClusterError` on an unreadable or
        foreign-version hello and on any authentication problem -- before a
        single job frame is sent.
        """
        greeting = decode_hello(hello)
        if greeting is None:
            raise ClusterError(
                f"worker {address} sent a hello this master cannot read as a "
                f"protocol v{PROTOCOL_VERSION} greeting; upgrade whichever "
                f"end is older"
            )
        if self._secret is None:
            if greeting.get("auth", False):
                raise ClusterError(
                    f"worker {address} requires a shared secret; pass "
                    f"secret=... to the remote backend (or unset the "
                    f"worker's --secret)"
                )
            return
        worker_nonce = greeting.get("nonce")
        if not isinstance(worker_nonce, bytes):
            raise ClusterError(
                f"this master requires a shared secret, but the hello of "
                f"worker {address} carries no handshake nonce"
            )
        master_nonce = os.urandom(16)
        sock.sendall(
            encode_frame(
                FRAME_CHALLENGE,
                xdr.encode(
                    {
                        "nonce": master_nonce,
                        "proof": auth_proof(self._secret, worker_nonce),
                    }
                ),
            )
        )
        answer = read_frame(sock.recv)
        if answer is None or answer[0] != FRAME_AUTH:
            raise ClusterError(
                f"worker {address} refused the shared-secret handshake "
                f"(secret mismatch, or the worker has no --secret configured)"
            )
        try:
            proof = xdr.decode(answer[1]).get("proof")
        except (SerializationError, AttributeError):
            proof = None
        if not verify_proof(self._secret, master_nonce, proof):
            raise ClusterError(
                f"worker {address} failed the shared-secret handshake "
                f"(wrong secret)"
            )

    # -- WorkerBackend contract --------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def reconnects(self) -> int:
        """Dead hosts successfully re-dialed so far."""
        return self._reconnects

    @property
    def redispatches(self) -> int:
        """Orphaned in-flight jobs re-sent to another connection so far."""
        return self._redispatches

    def on_run_start(self, n_jobs: int) -> None:
        self._start = time.perf_counter()

    @staticmethod
    def _wire_entry(job: Job, message: PreparedMessage) -> dict[str, Any]:
        """The XDR-encodable job dictionary a worker expects on the wire."""
        payload = message.payload
        if isinstance(payload, Serial):
            payload = payload.to_bytes()
        return {"job_id": job.job_id, "kind": message.kind, "payload": payload}

    def dispatch(self, worker_id: int, job: Job, message: PreparedMessage) -> None:
        if not 0 <= worker_id < self._n_workers:
            raise ClusterError(f"invalid worker id {worker_id}")
        if self._finalized:
            raise ClusterError("backend already finalized")
        record = _InFlight(worker_id, _UNROUTED, entry=self._wire_entry(job, message))
        self._n_jobs += 1
        self._send(job.job_id, record)
        self._maybe_reconnect()
        self._flush_redispatch()

    def collect(self, timeout: float | None = 300.0) -> CompletedJob:
        if not self._ready and not self._inflight:
            raise ClusterError("no job in flight")
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._ready:
            self._maybe_reconnect()
            self._flush_redispatch()
            self._check_liveness()
            if self._ready:
                break  # a liveness burial can orphan+answer via redispatch
            if deadline is None:
                wait: float | None = None
            else:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    raise CollectTimeoutError(
                        f"timed out after {timeout}s waiting for a remote worker result"
                    )
            if not self._live_indices():
                # nothing to select on: sleep toward the next re-dial
                if not self._reconnect_pending():
                    self._raise_pool_lost()
                pause = max(0.0, self._next_redial_at() - time.monotonic())
                if wait is not None:
                    pause = min(pause, wait)
                time.sleep(min(max(pause, 0.005), 0.5))
                continue
            self._pump(self._cap_wait(wait))
        return self._ready.popleft()

    def _cap_wait(self, wait: float | None) -> float | None:
        """Bound a selector wait so liveness/reconnect timers keep firing."""
        caps = [wait] if wait is not None else []
        if self._liveness_timeout is not None:
            caps.append(max(self._liveness_timeout / 4.0, 0.01))
        if self._reconnect_pending():
            caps.append(max(self._next_redial_at() - time.monotonic(), 0.01))
        return min(caps) if caps else None

    def send_stop(self, worker_id: int) -> None:
        conn = self._conns[self._route[worker_id]]
        self._stop_conn(conn)

    def finalize(self) -> BackendStats:
        if not self._finalized:
            self._finalized = True
            self._redial.clear()
            for conn in self._conns:
                self._stop_conn(conn)
                if conn.alive:
                    try:
                        self._selector.unregister(conn.sock)
                    except (KeyError, ValueError):  # pragma: no cover - defensive
                        pass
                    conn.sock.close()
                    conn.alive = False
            self._selector.close()
        total = time.perf_counter() - self._start
        return BackendStats(
            total_time=total,
            n_jobs=self._n_jobs,
            n_workers=self._n_workers,
            worker_busy=dict(self._busy),
            master_busy=total,
            bytes_sent=self._bytes_sent,
            extra={
                "hosts": [conn.address for conn in self._conns],
                "reconnects": self._reconnects,
                "redispatches": self._redispatches,
                "liveness_buried": self._liveness_buried,
            },
        )

    # -- wire plumbing -----------------------------------------------------------
    def _live_indices(self) -> list[int]:
        return [index for index, conn in enumerate(self._conns) if conn.alive]

    def _route_for(self, worker_id: int) -> int | None:
        """The live connection index a logical worker currently routes to.

        ``None`` when no connection is live at all (the caller parks the
        job for redispatch, or raises if the pool can never come back).
        """
        conn_index = self._route[worker_id]
        if self._conns[conn_index].alive:
            return conn_index
        survivors = self._live_indices()
        if not survivors:
            return None
        # the routed connection died between collects; remap first
        self._remap_route(conn_index, survivors)
        return self._route[worker_id]

    def _send(self, job_id: int, record: _InFlight) -> bool:
        """Record ``job_id`` as in flight and push its frame down the wire.

        Returns ``False`` when the job could not be sent: either no live
        connection exists (the job is parked; raises
        :class:`~repro.errors.WorkerLostError` instead if no reconnect can
        ever succeed) or the target connection died under the send (the
        job is parked among its orphans).
        """
        conn_index = self._route_for(record.worker_id)
        if conn_index is None:
            # parked: the next dispatch/collect re-sends it once a host is back
            record.conn_index = _UNROUTED
            self._inflight[job_id] = record
            self._redispatch.setdefault(job_id)
            if not self._reconnect_pending():
                self._raise_pool_lost()
            return False
        conn = self._conns[conn_index]
        record.conn_index = conn_index
        self._inflight[job_id] = record
        if record.frame is None:
            record.frame = encode_frame(FRAME_JOB, xdr.encode(record.entry))
        frame = record.frame
        try:
            conn.sock.sendall(frame)
        except OSError:
            self._on_conn_dead(conn_index)
            return False
        self._bytes_sent += len(frame)
        return True

    def _pump(self, timeout: float | None) -> None:
        """Wait up to ``timeout`` for socket activity and absorb it."""
        events = self._selector.select(timeout)
        now = time.monotonic()
        for key, _mask in events:
            index = key.data
            conn = self._conns[index]
            if not conn.alive:  # closed while handling an earlier event
                continue
            try:
                data = conn.sock.recv(_RECV_BYTES)
            except (ConnectionResetError, OSError):
                data = b""
            if not data:
                self._on_conn_dead(index)
                continue
            # any received byte proves the worker is alive and making
            # progress; an outstanding liveness probe is thereby answered
            conn.last_recv = now
            conn.ping_token = None
            try:
                conn.assembler.feed(data)
            except SerializationError:
                # corrupted stream: treat the worker as lost, requeue its jobs
                self._on_conn_dead(index)
                continue
            for kind, payload in conn.assembler:
                if kind == FRAME_RESULT:
                    try:
                        self._absorb_result(payload)
                    except (SerializationError, KeyError, TypeError, ValueError):
                        # well-framed but undecodable answer: the peer is
                        # confused, not the run -- bury it, requeue its jobs
                        self._on_conn_dead(index)
                        break
                elif kind == FRAME_PONG:
                    continue  # answered the liveness ping by arriving (above)
                # hello frames (reconnect chatter) and anything else: ignore

    def _absorb_result(self, payload: bytes) -> None:
        answer = xdr.decode(payload)
        job_id = check_count(answer["job_id"], "job_id", 0, error=SerializationError,
                             floats=False)
        entry = self._inflight.pop(job_id, None)
        if entry is None:
            # duplicate after a redispatch race: the job was already answered
            return
        elapsed = float(answer.get("elapsed") or 0.0)
        self._busy[entry.worker_id] += elapsed
        self._ready.append(
            CompletedJob(
                job_id=job_id,
                worker_id=entry.worker_id,
                result=answer.get("result"),
                compute_time=elapsed,
                collected_at=time.perf_counter() - self._start,
                error=answer.get("error"),
            )
        )

    def _raise_pool_lost(self) -> None:
        lost = tuple(sorted(self._inflight))
        raise WorkerLostError(
            f"all {self._n_workers} remote workers are gone; "
            f"{len(lost)} jobs were in flight (resubmit them against a "
            f"fresh backend)",
            job_ids=lost,
        )

    def _remap_route(self, dead_index: int, survivors: list[int]) -> None:
        """Point logical workers routed at ``dead_index`` to live connections."""
        for worker_id, conn_index in enumerate(self._route):
            if conn_index == dead_index:
                self._route[worker_id] = survivors[worker_id % len(survivors)]

    def _on_conn_dead(self, index: int) -> None:
        """Bury a connection; queue its in-flight jobs for redispatch."""
        conn = self._conns[index]
        if not conn.alive:
            return
        conn.alive = False
        conn.ping_token = None
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):  # pragma: no cover - defensive
            pass
        conn.sock.close()
        if self._reconnect and not self._finalized:
            self._redial[index] = _ReconnectState(
                next_try=time.monotonic() + REDIAL_DELAYS_S[0])
        for job_id, entry in self._inflight.items():
            if entry.conn_index == index:
                # park the orphan: no connection holds it until the next
                # dispatch/collect step flushes it to a survivor (a sendall
                # here could fail and bury another connection mid-burial)
                entry.conn_index = _UNROUTED
                self._redispatch.setdefault(job_id)
        survivors = self._live_indices()
        if survivors:
            self._remap_route(index, survivors)
        elif self._inflight and not self._reconnect_pending():
            self._raise_pool_lost()

    # -- reconnect ---------------------------------------------------------------
    def _redial_candidates(self) -> list[int]:
        return sorted(
            index for index, state in self._redial.items()
            if state.attempts < len(REDIAL_DELAYS_S)
        )

    def _reconnect_pending(self) -> bool:
        """Is any dead host still allowed another dial?"""
        return bool(self._redial_candidates())

    def _next_redial_at(self) -> float:
        due = [self._redial[index].next_try for index in self._redial_candidates()]
        return min(due) if due else time.monotonic()

    def _maybe_reconnect(self) -> None:
        """Re-dial dead hosts whose backoff expired (from dispatch/collect)."""
        if self._finalized:
            return
        for index in self._redial_candidates():
            state = self._redial[index]
            if state.next_try > time.monotonic():
                continue
            try:
                conn = self._connect(self._conns[index].address)
            except ClusterError:
                state.attempts += 1
                if state.attempts < len(REDIAL_DELAYS_S):
                    state.next_try = time.monotonic() + REDIAL_DELAYS_S[state.attempts]
                continue
            self._conns[index] = conn
            self._selector.register(conn.sock, selectors.EVENT_READ, index)
            del self._redial[index]
            self._reconnects += 1
            # hand the reborn host its original logical slots back
            for worker_id, home in enumerate(self._home):
                if home == index:
                    self._route[worker_id] = index

    # -- liveness ----------------------------------------------------------------
    def _check_liveness(self) -> None:
        """PING silent busy connections; bury the ones that never answer."""
        if self._liveness_timeout is None:
            return
        now = time.monotonic()
        busy = {entry.conn_index for entry in self._inflight.values()}
        for index in self._live_indices():
            conn = self._conns[index]
            if index not in busy:
                conn.ping_token = None  # idle connections owe us nothing
                continue
            if conn.ping_token is not None:
                if now - conn.ping_sent > self._liveness_timeout:
                    # neither a pong nor a result inside the window: the
                    # worker is wedged -- bury it like a dropped socket so
                    # its jobs move on within seconds, not collect-timeouts
                    self._liveness_buried += 1
                    self._on_conn_dead(index)
                continue
            if now - conn.last_recv > self._liveness_timeout:
                token = os.urandom(8)
                try:
                    conn.sock.sendall(encode_frame(FRAME_PING, token))
                except OSError:
                    self._on_conn_dead(index)
                    continue
                conn.ping_token = token
                conn.ping_sent = now

    def _flush_redispatch(self) -> None:
        """Re-send parked orphans (from dispatch/collect, never mid-burial)."""
        parked, self._redispatch = iter(self._redispatch), {}
        for job_id in parked:
            entry = self._inflight.get(job_id)
            if entry is None or entry.conn_index != _UNROUTED:
                continue  # answered meanwhile, or already re-sent
            # same logical worker slot, surviving connection
            if self._send(job_id, entry):
                self._redispatches += 1
            else:
                # no live route (re-parked) or the target died mid-send
                # (re-parked among its orphans): stop flushing this round
                break
        # whatever was not attempted stays parked for the next flush
        for job_id in parked:
            self._redispatch.setdefault(job_id)

    def _stop_conn(self, conn: _Connection) -> None:
        if not conn.alive or conn.stop_sent:
            return
        conn.stop_sent = True
        try:
            conn.sock.sendall(encode_frame(FRAME_STOP))
        except OSError:  # the worker is already gone; nothing left to stop
            pass

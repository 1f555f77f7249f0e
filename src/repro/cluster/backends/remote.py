"""Remote TCP execution backend: the paper's MPI pool over real sockets.

This is the first backend that crosses a machine boundary.  Each worker is a
``repro-worker`` server (:mod:`repro.cluster.worker`) -- possibly on another
host -- and the master keeps one TCP connection per worker, shipping jobs as
length-prefixed XDR frames (:mod:`repro.serial.frames`) and collecting
result frames with :mod:`selectors`:

* :meth:`RemoteBackend.dispatch` serializes the prepared payload into one
  ``FRAME_JOB`` message -- ``MPI_Send_Obj`` in the paper's master script --
  and :meth:`RemoteBackend.collect` waits on the selector until any
  connection delivers a ``FRAME_RESULT`` -- ``MPI_Probe(-1, -1, ...)`` then
  ``MPI_Recv_Obj``.  Both are :class:`~repro.cluster.backends.base.LinkPool`'s,
  the multiprocessing backend's master too, which never blocks on a send
  (what a socket does not take waits in its connection's outbox for the
  selector to write); this module adds the dials, the XDR codec, the
  liveness PING and STOP.

A backend is one campaign's pool; these keep it alive for that campaign:

* **death** -- the master keeps the frame of every in-flight job, so when a
  connection drops its logical worker slots are remapped onto live
  connections and its jobs are queued on their outboxes: the survivors
  answer them and the run completes (the one rule of ``LinkPool``);
* **rebirth** -- while another host is live, a dead host is re-dialed
  (five dials, on :data:`~repro.cluster.backends.base.REDIAL_DELAYS_S`) and,
  once back, gets its own logical slot again.  A dial is a
  non-blocking connect and handshake that the selector advances with the
  survivors' results, given up after :data:`_CONNECT_TIMEOUT_S`; the five
  dials are a host's until it answers a job, so one that greets and then
  drops every connection is dialed five times, not forever.  The pool's
  first dials are dials like these, all at once: a host that is down when
  the pool is built (refused, unreachable, or silent until the timeout) is
  treated as one that died at once;
* **liveness** -- a busy connection silent for :data:`_LIVENESS_TIMEOUT_S`
  is PINGed, and a wedged-but-connected worker (one that answers neither a
  :data:`~repro.serial.frames.FRAME_PING` nor a result inside another window)
  becomes an ordinary death, instead of stalling ``collect`` for its full
  timeout;
* **identity** -- a ``secret`` arms the HMAC-SHA256 handshake,
  so the master only dispatches jobs to workers that proved knowledge of
  the shared secret (and vice versa).

A peer that answers wrongly -- an address that does not resolve, a peer that
is not a current ``repro-worker``, a failed shared-secret handshake -- fails
the pool's construction loudly, before any job frame, as does a pool none of
whose hosts greets.  Once no host is live the pool is lost: the next
:meth:`~RemoteBackend.collect` raises a :class:`~repro.errors.WorkerLostError`
carrying the ids of the jobs that were in flight (``dispatch`` never does).
A session's campaign then builds a new pool on the same schedule and sends
them again; any other caller can resubmit them against fresh workers.

Build one through the registry --
``create_backend("remote", hosts=["10.0.0.4:9631", ...])`` or
``ValuationSession("remote", backend_options={"hosts": [...]})`` -- and use
:func:`repro.cluster.worker.spawn_local_workers` for a loopback pool.
"""

from __future__ import annotations

import contextlib
import errno
import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.cluster.backends.base import (
    REDIAL_DELAYS_S,
    BackendStats,
    Job,
    LinkPool,
    PreparedMessage,
)
from repro.cluster.worker import decode_hello
from repro.errors import ClusterError, SerializationError
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
    verify_proof,
)

__all__ = ["RemoteBackend", "normalize_hosts"]

_RECV_BYTES = 1 << 16

#: seconds allowed for each TCP connect + handshake, the pool's first dials
#: included (they run at once, so building a pool waits one timeout at most)
_CONNECT_TIMEOUT_S = 10.0
#: seconds of silence after which a busy connection is PINGed, and then the
#: wait for its pong or a result before it is buried (a worker answers a ping
#: while a job computes, so a long job is not taken for a wedged worker)
_LIVENESS_TIMEOUT_S = 30.0


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


class _HostDown(ClusterError):
    """A dial that found no worker to talk to: refused, unreachable, closed
    before its hello, or silent until the timeout.  The host is down, not
    wrong, and is re-dialed like one that died."""


@dataclass
class _Connection:
    """Master-side state of one live worker link, beside the link itself."""

    assembler: FrameAssembler  # the handshake's, with whatever followed the hello
    #: monotonic time of the last byte received (liveness bookkeeping)
    last_recv: float
    stop_sent: bool = False
    #: outstanding liveness-ping token (None when not probing)
    ping_token: bytes | None = None
    ping_sent: float = 0.0


@dataclass
class _Dial:
    """A connect and handshake in progress, advanced as its socket is ready."""

    address: str
    sock: socket.socket
    deadline: float  # monotonic time it is given up at
    assembler: FrameAssembler = field(default_factory=FrameAssembler)
    connected: bool = False
    greeted: bool = False
    #: the master's nonce, once the shared-secret challenge is sent
    nonce: bytes = b""

    @property
    def events(self) -> int:
        return selectors.EVENT_READ if self.connected else selectors.EVENT_WRITE


@dataclass
class _Redial:
    """Dial bookkeeping of one host: kept from its first dial or its burial
    until it answers a job, so dials that reach a host which then drops
    again count against the same budget."""

    index: int  # its connection slot
    dials: int = 0  # re-dials started so far (the pool's first dial is none)
    next_try: float = 0.0  # monotonic time of the next allowed dial
    dial: _Dial | None = None  # the dial in progress
    failure: ClusterError | None = None  # why its last dial failed


class RemoteBackend(LinkPool):
    """Master-side driver of a pool of ``repro-worker`` TCP servers.

    :class:`~repro.cluster.backends.base.LinkPool` is the master; this
    backend adds the dials and their handshake, the re-dials that give a
    host back its slot, the liveness PING, XDR frames and STOP.

    Parameters
    ----------
    hosts:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs); one logical worker per address.  The scheduler-facing
        ``n_workers`` is ``len(hosts)``.
    secret:
        Shared secret arming the HMAC-SHA256 handshake: every
        worker must prove knowledge of the secret at connect time, before
        any job is dispatched.  Workers that require a secret are refused
        when ``secret`` is ``None`` -- loudly, at connect.
    """

    def __init__(
        self,
        hosts: Any,
        *,
        secret: str | None = None,
    ):
        self._hosts = normalize_hosts(hosts)
        super().__init__(len(self._hosts))
        self._secret = secret
        #: slot -> the protocol state of its live link
        self._conns: dict[int, _Connection] = {}
        #: slot -> backoff state of a pending re-dial
        self._redial: dict[int, _Redial] = {}
        self._reconnects = 0
        self._liveness_buried = 0
        #: the hosts whose slots had no live link when the pool was finalized
        self._dead_hosts: list[str] = []
        try:
            self._dial_all()
        except BaseException:
            self._drop_redials()
            for link in self._links.values():
                link.close()
            self._selector.close()
            raise

    def _dial_all(self) -> None:
        """The pool's first dials: every host at once, advanced by the
        selector until each has greeted or failed (one
        :data:`_CONNECT_TIMEOUT_S` at most).  A host that is down is buried
        as if it had died at once; a peer that answers wrongly raises, and so
        does a pool none of whose hosts greeted."""
        self._redial = {index: _Redial(index) for index in range(self._n_workers)}
        states = list(self._redial.values())
        for state in states:
            self._start_dial(state)
        while dials := [state.dial for state in states if state.dial is not None]:
            wait = min(dial.deadline for dial in dials) - time.monotonic()
            if wait <= 0:
                self._give_up_overdue()
                continue
            for key, _ in self._selector.select(wait):
                if isinstance(key.data, _Redial):
                    self._watched(key)
                elif key.data in self._links and not self._read(key.data):
                    self._bury(key.data)  # a host that greeted, then dropped its link
        if not self._links:
            raise ClusterError("no worker of the pool greeted: " + "; ".join(
                str(state.failure or f"worker {self._hosts[state.index]} dropped its link")
                for state in states))
        for index in range(self._n_workers):
            if index in self._links:
                self._redial.pop(index, None)
            else:
                self._remap(index)

    @staticmethod
    def _dial(address: str) -> _Dial:
        """Start a non-blocking connect to ``address``."""
        host, _, port_text = address.rpartition(":")
        try:
            family, kind, proto, _name, where = socket.getaddrinfo(
                host, int(port_text), type=socket.SOCK_STREAM)[0]
            sock = socket.socket(family, kind, proto)
        except OSError as exc:
            raise ClusterError(f"cannot connect to worker {address}: {exc}") from exc
        sock.setblocking(False)
        error = sock.connect_ex(where)
        if error not in (0, errno.EINPROGRESS):
            sock.close()
            raise _HostDown(f"cannot connect to worker {address}: {os.strerror(error)}")
        return _Dial(address, sock, time.monotonic() + _CONNECT_TIMEOUT_S)

    def _advance(self, dial: _Dial) -> _Connection | None:
        """Take ``dial``, whose socket is ready, one step on: its connection
        once the handshake is done, else ``None``.

        Raises :class:`_HostDown` on a refused connect and a link closed
        before a byte of hello, and :class:`~repro.errors.ClusterError` on a
        peer that does not greet as a repro-worker, an unreadable or
        foreign-version hello and any authentication problem -- before a
        single job frame is sent.
        """
        sock, address = dial.sock, dial.address
        if not dial.connected:
            error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if error:
                raise _HostDown(f"cannot connect to worker {address}: {os.strerror(error)}")
            dial.connected = True
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return None
        # a link that ends before a byte of hello reached no worker
        silent = not dial.greeted and not dial.assembler.pending_bytes
        try:
            data = sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return None  # woken with nothing to read yet
        except OSError as exc:
            failure = _HostDown if silent else ClusterError
            raise failure(f"handshake with worker {address} failed: {exc}") from exc
        if silent and not data:
            raise _HostDown(f"worker {address} closed the connection before greeting")
        try:
            dial.assembler.feed(data)
            frame = dial.assembler.pop()
            if frame is None and data:
                return None  # a frame is on its way
            if frame is None and dial.assembler.pending_bytes:
                raise SerializationError(
                    f"connection closed mid-frame ({dial.assembler.pending_bytes} bytes)")
            if not dial.greeted:
                # the worker greets first; a version mismatch fails here,
                # loudly, before any job is dispatched
                if frame is None or frame[0] != FRAME_HELLO:
                    raise ClusterError(
                        f"worker {address} did not greet with a hello frame "
                        f"(is it a repro-worker?)"
                    )
                dial.greeted = True
                dial.nonce = self._greeted(sock, address, frame[1])
                if dial.nonce:
                    return None  # the shared-secret challenge is out
            elif frame is None or frame[0] != FRAME_AUTH:
                raise ClusterError(
                    f"worker {address} refused the shared-secret handshake "
                    f"(secret mismatch, or the worker has no --secret configured)"
                )
            else:
                self._authenticated(address, frame[1], dial.nonce)
        except (SerializationError, OSError) as exc:
            raise ClusterError(f"handshake with worker {address} failed: {exc}") from exc
        return _Connection(dial.assembler, last_recv=time.monotonic())

    def _greeted(self, sock: socket.socket, address: str, hello: bytes) -> bytes:
        """Check the hello and, with a secret, send the challenge: its nonce,
        or ``b""`` when no shared-secret handshake follows."""
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
            return b""
        worker_nonce = greeting.get("nonce")
        if not isinstance(worker_nonce, bytes):
            raise ClusterError(
                f"this master requires a shared secret, but the hello of "
                f"worker {address} carries no handshake nonce"
            )
        master_nonce = os.urandom(16)
        # a few dozen bytes into a fresh socket's empty send buffer
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
        return master_nonce

    def _authenticated(self, address: str, answer: bytes, master_nonce: bytes) -> None:
        """Check the worker's proof of the shared secret."""
        assert self._secret is not None
        try:
            proof = xdr.decode(answer).get("proof")
        except (SerializationError, AttributeError):
            proof = None
        if not verify_proof(self._secret, master_nonce, proof):
            raise ClusterError(
                f"worker {address} failed the shared-secret handshake "
                f"(wrong secret)"
            )

    # -- reporting -----------------------------------------------------------------
    @property
    def reconnects(self) -> int:
        """Dead hosts successfully re-dialed so far."""
        return self._reconnects

    @property
    def redispatches(self) -> int:
        """Orphaned in-flight jobs re-sent to another connection so far."""
        return self._redispatches

    # -- the link's codec --------------------------------------------------------------
    def _frame(self, job: Job, message: PreparedMessage) -> bytes:
        """One ``FRAME_JOB`` of the XDR job dictionary a worker expects."""
        payload = message.payload
        if isinstance(payload, Serial):
            payload = payload.to_bytes()
        return encode_frame(FRAME_JOB, xdr.encode(
            {"job_id": job.job_id, "kind": message.kind, "payload": payload}))

    def _decode(self, slot: int, data: bytes) -> list[tuple[int, Any, float, str | None]]:
        conn = self._conns[slot]
        # any received byte proves the worker is alive and making progress;
        # an outstanding liveness probe is thereby answered
        conn.last_recv = time.monotonic()
        conn.ping_token = None
        conn.assembler.feed(data)
        answers = []
        for kind, payload in conn.assembler:
            if kind == FRAME_RESULT:
                answer = xdr.decode(payload)
                answers.append((
                    check_count(answer["job_id"], "job_id", 0, error=SerializationError,
                                floats=False),
                    answer.get("result"), float(answer.get("elapsed") or 0.0),
                    answer.get("error")))
            elif kind == FRAME_PONG:
                continue  # answered the liveness ping by arriving (above)
            # hello frames (reconnect chatter) and anything else: ignore
        if answers and self._redial:
            self._redial.pop(slot, None)  # answered: its dials are its own again
        return answers

    def _closed(self, slot: int) -> None:
        del self._conns[slot]
        self._schedule(self._redial.setdefault(slot, _Redial(slot)))

    def send_stop(self, worker_id: int) -> None:
        slot = self._route[worker_id]
        conn = self._conns.get(slot)
        if conn is not None and not conn.stop_sent:
            conn.stop_sent = True
            if not self._write(slot, encode_frame(FRAME_STOP)):
                self._bury(slot)

    def finalize(self) -> BackendStats:
        if not self._finalized:
            self._dead_hosts = [address for index, address in enumerate(self._hosts)
                                if index not in self._links]
            self._drop_redials()
            for slot, conn in self._conns.items():
                outbox = self._outboxes[slot]
                if not conn.stop_sent:
                    outbox += encode_frame(FRAME_STOP)
                # best effort: a worker that is gone, or not reading, stops at the close
                with contextlib.suppress(OSError):
                    self._links[slot].send(outbox)
        stats = super().finalize()
        stats.extra.update(hosts=list(self._hosts), dead_hosts=self._dead_hosts,
                           reconnects=self._reconnects, liveness_buried=self._liveness_buried)
        return stats

    # -- timers ------------------------------------------------------------------------
    def _tend(self, wait: float | None) -> float:
        """Start the re-dials that are due, PING or bury silent busy links, and
        cut ``wait`` short for when a re-dial or a liveness check is next due."""
        self._maybe_reconnect()
        self._check_liveness()
        caps = [_LIVENESS_TIMEOUT_S / 4.0]
        if wait is not None:
            caps.append(wait)
        due = self._next_redial_at()
        if due is not None:
            caps.append(max(due - time.monotonic(), 0.01))
        return min(caps)

    # -- reconnect ---------------------------------------------------------------
    def _next_redial_at(self) -> float | None:
        """When a re-dial next needs the master: a dial to start or give up."""
        due = [
            state.dial.deadline if state.dial is not None else state.next_try
            for state in self._redial.values()
            if state.dial is not None
            or (state.index not in self._links and state.dials < len(REDIAL_DELAYS_S))
        ]
        return min(due, default=None)

    def _maybe_reconnect(self) -> None:
        """Start the re-dials that are due and give up the overdue ones; the
        selector advances the rest (:meth:`_watched`)."""
        self._give_up_overdue()
        now = time.monotonic()
        for state in list(self._redial.values()):
            if (state.dial is None and state.index not in self._links
                    and state.dials < len(REDIAL_DELAYS_S) and state.next_try <= now):
                state.dials += 1
                self._start_dial(state)

    def _start_dial(self, state: _Redial) -> None:
        """Start a dial of the host of ``state``, for the selector to advance."""
        try:
            state.dial = self._dial(self._hosts[state.index])
        except ClusterError as failure:
            self._dial_failed(state, failure)
            return
        self._selector.register(state.dial.sock, state.dial.events, state)

    def _give_up_overdue(self) -> None:
        """Fail every dial whose host has not greeted by its deadline."""
        now = time.monotonic()
        for state in list(self._redial.values()):
            if state.dial is not None and now > state.dial.deadline:
                self._dial_failed(state, _HostDown(
                    f"worker {state.dial.address} did not connect and greet within "
                    f"{_CONNECT_TIMEOUT_S:g} s"))

    def _watched(self, key: selectors.SelectorKey) -> None:
        """Advance a dial whose socket is ready; once it is through, a reborn
        host gets its own logical slot back."""
        state = key.data
        dial = state.dial
        if dial is None:
            return  # given up earlier in the same select
        try:
            conn = self._advance(dial)
        except ClusterError as failure:
            self._dial_failed(state, failure)
            return
        if conn is None:
            self._selector.modify(dial.sock, dial.events, state)
            return
        state.dial = None
        index = state.index
        self._selector.unregister(dial.sock)
        self._attach(index, dial.sock)
        self._conns[index] = conn
        if state.dials:
            self._reconnects += 1
        self._route[index] = index

    def _dial_failed(self, state: _Redial, failure: ClusterError) -> None:
        """Close a dial that did not get through and wait the next delay, if
        any.  A peer that answered the pool's first dial wrongly raises."""
        if state.dial is not None:
            self._selector.unregister(state.dial.sock)
            state.dial.sock.close()
            state.dial = None
        if not state.dials and not isinstance(failure, _HostDown):
            raise failure
        state.failure = failure
        self._schedule(state)

    @staticmethod
    def _schedule(state: _Redial) -> None:
        """Set the next dial of a host that is down after its next delay, if any."""
        if state.dials < len(REDIAL_DELAYS_S):
            state.next_try = time.monotonic() + REDIAL_DELAYS_S[state.dials]

    def _drop_redials(self) -> None:
        """Abandon every re-dial, closing the dials in progress."""
        for state in self._redial.values():
            if state.dial is not None:
                self._selector.unregister(state.dial.sock)
                state.dial.sock.close()
                state.dial = None
        self._redial.clear()

    # -- liveness ----------------------------------------------------------------
    def _check_liveness(self) -> None:
        """PING silent busy connections; bury the ones that never answer."""
        now = time.monotonic()
        busy = {holder for _, holder, _, _ in self._inflight.values()}
        for slot, conn in list(self._conns.items()):
            if slot not in busy:
                conn.ping_token = None  # idle connections owe us nothing
                continue
            if conn.ping_token is not None:
                if now - conn.ping_sent > _LIVENESS_TIMEOUT_S:
                    # neither a pong nor a result inside the window: the
                    # worker is wedged -- bury it like a dropped socket so
                    # its jobs move on within seconds, not collect-timeouts
                    self._liveness_buried += 1
                    self._bury(slot)
                continue
            if now - conn.last_recv > _LIVENESS_TIMEOUT_S:
                conn.ping_token = os.urandom(8)
                conn.ping_sent = now
                if not self._write(slot, encode_frame(FRAME_PING, conn.ping_token)):
                    self._bury(slot)

"""The ``repro-worker`` server: one of the paper's MPI slaves, over TCP.

The slave loop of the paper's Fig. 4 script is *receive a message; if it is
empty, stop; otherwise rebuild the problem, compute it and send the results
back to the master*.  This module runs exactly that loop behind a TCP
listening socket so the pool can span real machines: the master-side
:class:`~repro.cluster.backends.remote.RemoteBackend` connects one socket
per worker, ships jobs as length-prefixed XDR frames
(:mod:`repro.serial.frames`) and collects result frames as they come back.

Three entry points:

* :func:`serve` -- run a worker server in the current process (what the
  ``repro-worker`` console script calls);
* :func:`spawn_local_workers` -- the loopback harness: start ``n`` worker
  processes on ``127.0.0.1`` ephemeral ports and hand back their addresses,
  so tests, CI and the examples exercise the remote protocol without any
  external infrastructure;
* :func:`main` -- the ``repro-worker`` command line.

A worker prices jobs through the same
:func:`~repro.cluster.backends.execution.execute_payload` as the sequential
and multiprocessing backends -- including :class:`~repro.pricing.batch.ProblemBatch`
super-jobs and the optional on-disk result cache (``--cache-dir``) -- so
every payload kind that works locally works across the wire.
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import queue
import signal
import socket
import sys
import threading
from typing import Any, Sequence

from repro._version import __version__
from repro.errors import ClusterError, SerializationError
from repro.serial import xdr
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
    auth_proof,
    encode_frame,
    read_frame,
    verify_proof,
)

__all__ = ["serve", "spawn_local_workers", "LocalWorkerPool", "probe_worker", "main"]

#: environment variable consulted when ``repro-worker --secret`` is absent
SECRET_ENV_VAR = "REPRO_WORKER_SECRET"


def _hello_payload(nonce: bytes, secret: str | None) -> bytes:
    return xdr.encode(
        {
            "role": "repro-worker",
            "pid": os.getpid(),
            "version": PROTOCOL_VERSION,
            # handshake material: the master proves its secret over this
            # nonce; ``auth`` tells secretless masters to fail loudly instead
            # of dispatching jobs a protected worker would silently drop
            "nonce": nonce,
            "auth": secret is not None,
        }
    )


def decode_hello(payload: bytes) -> dict[str, Any] | None:
    """The greeting dictionary of a current-protocol worker, else ``None``.

    A hello that does not decode, is not a dictionary or announces another
    ``version`` is not a peer this end can talk to: the master refuses the
    connection and :func:`probe_worker` reports the worker dead.
    """
    try:
        greeting = xdr.decode(payload)
    except (SerializationError, ValueError):  # ValueError: non-UTF-8 strings
        return None
    if not isinstance(greeting, dict) or greeting.get("version") != PROTOCOL_VERSION:
        return None
    return greeting


def _result_frame(
    job_id: int, result: Any, elapsed: float, error: str | None
) -> bytes:
    try:
        return encode_frame(
            FRAME_RESULT,
            xdr.encode(
                {"job_id": job_id, "result": result, "elapsed": elapsed, "error": error}
            ),
        )
    except SerializationError as exc:
        # a result the codec cannot ship must degrade to an error answer,
        # never kill the worker (the master would redispatch the same
        # poison job through every survivor)
        return encode_frame(
            FRAME_RESULT,
            xdr.encode(
                {
                    "job_id": job_id,
                    "result": None,
                    "elapsed": elapsed,
                    "error": f"result not transmissible: {exc}",
                }
            ),
        )


class _ComputeLane:
    """The pricing half of one connection, on its own thread.

    The receive loop must stay responsive while a job computes -- an
    in-campaign liveness :data:`FRAME_PING` that waits behind a 30-second
    Monte-Carlo job looks exactly like a wedged worker to the master.  So
    job frames are queued here and priced off-thread, and the receive loop
    keeps draining the socket (answering pings instantly).  Results are sent
    under a lock shared with the receive loop so frames never interleave on
    the wire.
    """

    def __init__(self, conn: socket.socket, cache: Any, send_lock: threading.Lock):
        self._conn = conn
        self._cache = cache
        self._send_lock = send_lock
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._dead = False  # set when the socket broke under a result send
        self._thread = threading.Thread(
            target=self._run, name="repro-worker-compute", daemon=True
        )
        self._thread.start()

    def submit(self, job_id: int, payload_kind: str, payload: Any) -> None:
        """Queue one job; answered with one result frame."""
        self._jobs.put((job_id, payload_kind, payload))

    def finish(self) -> None:
        """Price everything queued, send the results, then stop the lane."""
        self._jobs.put(None)
        self._thread.join()

    def _send(self, frame: bytes) -> None:
        if self._dead:
            return  # keep draining, but the master is gone
        try:
            with self._send_lock:
                # repro-lint: disable=lock-blocking-call -- _send_lock exists to serialize frame writes on the shared socket; sending outside it would interleave result and pong frames
                self._conn.sendall(frame)
        except OSError:
            self._dead = True

    def _run(self) -> None:
        from repro.cluster.backends.execution import execute_payload

        while True:
            item = self._jobs.get()
            if item is None:
                return
            job_id, payload_kind, payload = item
            result, elapsed, error = execute_payload(
                payload_kind, payload, cache=self._cache
            )
            self._send(_result_frame(job_id, result, elapsed, error))


def _authenticate_master(
    conn: socket.socket, secret: str, nonce: bytes, log
) -> bool:
    """Worker side of the challenge/response; ``True`` iff the peer is in.

    The master must open with a :data:`FRAME_CHALLENGE` whose proof is
    HMAC-SHA256(secret, our hello ``nonce``); we answer its challenge nonce
    the same way.  Liveness probes (:data:`FRAME_PING`) and clean goodbyes
    (:data:`FRAME_STOP`) stay allowed before authentication -- an echo leaks
    nothing -- but no job frame is accepted from an unproven peer.
    """
    while True:
        try:
            frame = read_frame(conn.recv)
        except SerializationError as exc:
            log(f"dropping connection during handshake: {exc}")
            return False
        if frame is None:
            return False
        kind, payload = frame
        if kind == FRAME_PING:
            conn.sendall(encode_frame(FRAME_PONG, payload))
            continue
        if kind == FRAME_STOP:
            return False  # clean goodbye; nothing was authenticated
        if kind != FRAME_CHALLENGE:
            log(
                "dropping connection: this worker requires a shared secret "
                f"but the master sent frame kind {kind} instead of a challenge"
            )
            return False
        try:
            challenge = xdr.decode(payload)
            master_nonce = challenge["nonce"]
            proof = challenge["proof"]
        except (SerializationError, KeyError, TypeError, ValueError) as exc:
            log(f"dropping connection on malformed challenge: {exc}")
            return False
        if not isinstance(master_nonce, bytes) or not verify_proof(
            secret, nonce, proof
        ):
            log("dropping connection: master failed the shared-secret handshake")
            return False
        conn.sendall(
            encode_frame(
                FRAME_AUTH, xdr.encode({"proof": auth_proof(secret, master_nonce)})
            )
        )
        return True


def _handle_connection(
    conn: socket.socket, cache: Any, log, secret: str | None = None
) -> bool:
    """Run the slave loop over one master connection.

    Returns ``True`` when the master sent a clean stop frame, ``False`` when
    the connection ended any other way (master died, stream corrupted, or
    the shared-secret handshake failed).
    """
    nonce = os.urandom(16)
    conn.sendall(encode_frame(FRAME_HELLO, _hello_payload(nonce, secret)))
    if secret is not None and not _authenticate_master(conn, secret, nonce, log):
        return False
    send_lock = threading.Lock()
    lane = _ComputeLane(conn, cache, send_lock)
    try:
        while True:
            try:
                frame = read_frame(conn.recv)
            except SerializationError as exc:
                log(f"dropping connection: {exc}")
                return False
            if frame is None:  # master closed the socket without a stop frame
                return False
            kind, payload = frame
            if kind == FRAME_STOP:
                return True
            if kind == FRAME_PING:
                # keepalive: echo the opaque token straight back
                # -- answered here, off the compute lane, so a master's
                # liveness probe is not stuck behind a long job
                with send_lock:
                    # repro-lint: disable=lock-blocking-call -- the pong must not interleave with a result frame the compute lane is writing; the lock is the write serializer
                    conn.sendall(encode_frame(FRAME_PONG, payload))
                continue
            if kind == FRAME_CHALLENGE:
                # the master wants an authenticated pool but this worker has
                # no secret: hang up at once so the master fails fast and
                # loud instead of waiting out its handshake timeout
                log(
                    "dropping connection: master requires a shared secret "
                    "but this worker has none (start it with --secret)"
                )
                return False
            if kind != FRAME_JOB:
                log(f"ignoring unexpected frame kind {kind}")
                continue
            try:
                entry = xdr.decode(payload)
                parsed = int(entry["job_id"]), entry["kind"], entry["payload"]
            except (SerializationError, KeyError, TypeError, ValueError) as exc:
                log(f"dropping connection on undecodable job frame: {exc}")
                return False
            lane.submit(*parsed)
    finally:
        # on a clean stop the queue is already priced (the master collects
        # every result before stopping workers), so this join is instant;
        # on a dirty loss it finishes the in-flight job and bails on send
        lane.finish()


def _make_log(quiet: bool):
    def log(message: str) -> None:
        if not quiet:
            print(f"[repro-worker {os.getpid()}] {message}", file=sys.stderr)

    return log


def _accept_loop(
    server: socket.socket,
    cache_dir: str | None,
    once: bool,
    quiet: bool,
    secret: str | None = None,
) -> None:
    """Accept master connections on an already-listening socket, forever.

    This is the body of one pricing process: with ``repro-worker --workers N``
    every forked child runs this loop on the **same** inherited listening
    socket, so the kernel load-balances incoming master connections across
    the children.
    """
    from repro.cluster.backends.execution import make_worker_cache

    log = _make_log(quiet)
    cache = make_worker_cache(cache_dir)
    while True:
        try:
            conn, peer = server.accept()
        except KeyboardInterrupt:
            log("interrupted, shutting down")
            return
        except OSError as exc:
            # the listening socket was closed under us (teardown, or a
            # sibling process shutting the shared socket down): leave the
            # loop cleanly instead of dying with a traceback
            log(f"listening socket closed ({exc}), shutting down")
            return
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            log(f"master connected from {peer[0]}:{peer[1]}")
            try:
                stopped = _handle_connection(conn, cache, log, secret=secret)
            except (BrokenPipeError, ConnectionResetError, OSError) as exc:
                log(f"connection lost: {exc}")
                stopped = False
            log("connection closed" + (" (stop frame)" if stopped else ""))
        if once:
            return


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache_dir: str | None = None,
    once: bool = False,
    ready: Any = None,
    quiet: bool = True,
    workers: int = 1,
    secret: str | None = None,
) -> None:
    """Accept master connections and price their jobs until interrupted.

    ``port=0`` binds an ephemeral port; ``ready`` (a callable) receives the
    actually-bound port once the server is listening.  ``once=True`` exits
    after the first connection ends -- useful for tests and one-shot
    deployments.  ``cache_dir`` opens the shared on-disk result cache every
    other executing backend understands (see :mod:`repro.pricing.cache`).
    ``secret`` arms the HMAC-SHA256 handshake: every master connection
    must prove knowledge of the shared secret before any job is accepted.

    ``workers=N`` forks ``N`` pricing processes behind the one listening
    socket: each child runs the accept loop on the shared socket, so a
    master that lists the same ``host:port`` address ``N`` times gets ``N``
    genuinely parallel slaves from a single server (with ``once=True`` each
    child exits after its first connection ends).  Requires the ``fork``
    start method (Linux/macOS).
    """
    log = _make_log(quiet)
    if workers < 1:
        raise ClusterError("serve needs workers >= 1")
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        server.bind((host, port))
        server.listen(max(8, 2 * workers))
        bound_port = server.getsockname()[1]
        if ready is not None:
            ready(bound_port)
        log(f"listening on {host}:{bound_port} ({workers} pricing process(es))")
        if workers == 1:
            _accept_loop(server, cache_dir, once, quiet, secret)
            return
        if "fork" not in mp.get_all_start_methods():
            raise ClusterError(
                "--workers needs the 'fork' multiprocessing start method to "
                "share the listening socket; run one repro-worker per port "
                "on this platform instead"
            )
        # a SIGTERM on the parent must still tear the children down (the
        # default handler would skip the finally block below)
        try:
            signal.signal(signal.SIGTERM, lambda *_args: sys.exit(0))
        except ValueError:  # pragma: no cover - not in the main thread
            pass
        ctx = mp.get_context("fork")
        children = [
            ctx.Process(
                target=_accept_loop,
                args=(server, cache_dir, once, quiet, secret),
                # daemonic: multiprocessing also reaps them if this parent
                # exits through a path that skips the finally block below
                daemon=True,
            )
            for _ in range(workers)
        ]
        try:
            for child in children:
                child.start()
            for child in children:
                child.join()
        except KeyboardInterrupt:
            log("interrupted, shutting down")
        finally:
            for child in children:
                if child.is_alive():
                    child.terminate()
            for child in children:
                child.join(timeout=5.0)
    finally:
        server.close()


def _spawned_worker(
    index: int,
    host: str,
    port_queue: Any,
    cache_dir: str | None,
    workers: int = 1,
    port: int = 0,
    secret: str | None = None,
) -> None:
    """Entry point of one :func:`spawn_local_workers` process."""
    if workers > 1:
        # lead a fresh process group so LocalWorkerPool.kill() can SIGKILL
        # the whole server -- the accepting parent *and* its forked pricing
        # children -- in one os.killpg() (a plain kill() on the parent would
        # orphan the children onto the shared listening socket)
        try:
            os.setpgid(0, 0)
        except OSError:  # pragma: no cover - already a group leader
            pass
        # a multi-process server cannot be daemonic (it forks children), so
        # if the caller dies without pool.stop() nothing reaps it; watch for
        # reparenting and tear down via the SIGTERM path serve() installs
        import threading as _threading
        import time

        original_ppid = os.getppid()

        def _exit_when_orphaned() -> None:
            while os.getppid() == original_ppid:
                time.sleep(1.0)
            os.kill(os.getpid(), signal.SIGTERM)

        _threading.Thread(target=_exit_when_orphaned, daemon=True).start()
    serve(
        host=host,
        port=port,
        cache_dir=cache_dir,
        workers=workers,
        secret=secret,
        ready=lambda bound: port_queue.put((index, bound)),
    )


class LocalWorkerPool:
    """A handful of loopback worker processes, for tests and examples.

    Iterable/indexable as its ``"host:port"`` address list, usable as a
    context manager (``stop()`` on exit), and deliberately easy to sabotage:
    :meth:`kill` hard-kills one worker so the master's death-recovery path
    can be exercised, and :meth:`restart` brings it back **on the same
    port** so the master's reconnect path can be exercised too.
    """

    def __init__(
        self,
        processes: list[Any],
        hosts: list[str],
        *,
        ctx: Any = None,
        cache_dir: str | None = None,
        workers_per_server: int = 1,
        secret: str | None = None,
    ):
        self._processes = processes
        self.hosts = list(hosts)
        self._ctx = ctx if ctx is not None else mp.get_context()
        self._cache_dir = cache_dir
        self._workers_per_server = workers_per_server
        self._secret = secret

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts)

    def __getitem__(self, index: int) -> str:
        return self.hosts[index]

    def kill(self, index: int) -> None:
        """Hard-kill one worker server (simulates a node failure).

        A single-process server dies from one SIGKILL.  A multi-process
        server (``workers_per_server > 1``) leads its own process group, so
        the kill lands on the whole group -- the accepting parent *and* its
        forked pricing children -- instead of silently orphaning the
        children onto the shared listening socket.
        """
        process = self._processes[index]
        if self._workers_per_server > 1 and process.pid is not None:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # already collapsed
                pass
        process.kill()
        process.join(timeout=10.0)

    def restart(self, index: int, *, timeout: float = 30.0) -> str:
        """Respawn a killed worker server on its original port.

        The listening sockets bind with ``SO_REUSEADDR``, so the address in
        ``hosts[index]`` comes straight back -- which is exactly what a
        master-side :class:`~repro.cluster.backends.remote.ReconnectPolicy`
        needs to re-dial.  Returns the (unchanged) ``"host:port"`` address.
        Raises :class:`~repro.errors.ClusterError` if the worker it replaces
        is still alive or the new server does not come up in ``timeout``
        seconds (e.g. another process grabbed the port meanwhile).
        """
        process = self._processes[index]
        if process.is_alive():
            raise ClusterError(
                f"worker {index} ({self.hosts[index]}) is still alive; "
                f"kill() it before restart()"
            )
        host, _, port_text = self.hosts[index].rpartition(":")
        port_queue = self._ctx.Queue()
        replacement = self._ctx.Process(
            target=_spawned_worker,
            args=(
                index,
                host,
                port_queue,
                self._cache_dir,
                self._workers_per_server,
                int(port_text),
                self._secret,
            ),
            daemon=self._workers_per_server == 1,
        )
        replacement.start()
        try:
            port_queue.get(timeout=timeout)
        except Exception:
            replacement.terminate()
            replacement.join(timeout=5.0)
            raise ClusterError(
                f"restarted worker {index} did not come back on "
                f"{self.hosts[index]} within {timeout}s"
            ) from None
        self._processes[index] = replacement
        return self.hosts[index]

    def stop(self) -> None:
        """Terminate every worker process still alive."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.kill()
                process.join(timeout=5.0)

    def __enter__(self) -> "LocalWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def spawn_local_workers(
    n: int,
    *,
    cache_dir: str | None = None,
    start_method: str | None = None,
    timeout: float = 30.0,
    workers_per_server: int = 1,
    secret: str | None = None,
) -> LocalWorkerPool:
    """Start ``n`` worker servers on ``127.0.0.1`` and return their pool.

    Each worker is a real OS process running :func:`serve` on an ephemeral
    port; the call returns once every worker is listening, so a
    ``ValuationSession(backend="remote", backend_options={"hosts": pool.hosts})``
    can connect immediately.  Stop the pool with :meth:`LocalWorkerPool.stop`
    or a ``with`` block.

    ``workers_per_server`` forwards ``serve(workers=N)``: each server forks
    ``N`` pricing processes behind its one listening socket (the
    ``repro-worker --workers N`` deployment).  ``pool.hosts`` still has one
    address per *server*; list an address once per desired connection on the
    master side (e.g. ``hosts=pool.hosts * N``).
    """
    if n < 1:
        raise ClusterError("spawn_local_workers needs n >= 1")
    if workers_per_server < 1:
        raise ClusterError("spawn_local_workers needs workers_per_server >= 1")
    ctx = mp.get_context(start_method) if start_method else mp.get_context()
    port_queue = ctx.Queue()
    processes = []
    try:
        for index in range(n):
            process = ctx.Process(
                target=_spawned_worker,
                args=(index, "127.0.0.1", port_queue, cache_dir, workers_per_server,
                      0, secret),
                # a multi-process server must fork children, which daemonic
                # processes may not do
                daemon=workers_per_server == 1,
            )
            process.start()
            processes.append(process)
        # ports arrive in whichever-bound-first order; key them back to the
        # spawn index so hosts[i] is always the address of _processes[i]
        # (kill(i) must sabotage the worker it names)
        ports: dict[int, int] = {}
        for _ in range(n):
            index, port = port_queue.get(timeout=timeout)
            ports[index] = port
        hosts = [f"127.0.0.1:{ports[index]}" for index in range(n)]
    except Exception:
        for process in processes:
            if process.is_alive():
                process.terminate()
        raise
    pool = LocalWorkerPool(
        processes,
        hosts,
        ctx=ctx,
        cache_dir=cache_dir,
        workers_per_server=workers_per_server,
        secret=secret,
    )
    if workers_per_server > 1:
        # non-daemonic servers would otherwise block multiprocessing's
        # exit-time join if the caller forgets pool.stop(); atexit handlers
        # run LIFO, so this stop() lands before that join
        import atexit

        atexit.register(pool.stop)
    return pool


def probe_worker(address: str, *, timeout: float = 5.0) -> bool:
    """Liveness-probe one worker over a throwaway connection.

    Connects to ``"host:port"``, waits for the worker's HELLO, sends a
    :data:`FRAME_PING` and expects the token echoed back in a
    :data:`FRAME_PONG`, then leaves with a clean stop frame (the worker's
    accept loop survives, exactly like after a campaign).  Returns ``True``
    for a live protocol-compatible worker and ``False`` for anything else:
    refused connection, dead endpoint, timeout, version mismatch.

    This is how an idle daemon (``repro-serve``) notices dead TCP workers
    *between* campaigns instead of at next dispatch; inside a campaign the
    backend's ``liveness_timeout`` pings its own connections.
    """
    host, _, port_text = address.rpartition(":")
    token = os.urandom(8)
    try:
        with socket.create_connection((host, int(port_text)), timeout=timeout) as conn:
            conn.settimeout(timeout)
            frame = read_frame(conn.recv)
            if (
                frame is None
                or frame[0] != FRAME_HELLO
                or decode_hello(frame[1]) is None
            ):
                return False
            conn.sendall(encode_frame(FRAME_PING, token))
            while True:
                frame = read_frame(conn.recv)
                if frame is None:
                    return False
                if frame[0] == FRAME_PONG:
                    if frame[1] != token:
                        return False
                    conn.sendall(encode_frame(FRAME_STOP))
                    return True
    except (OSError, ValueError, SerializationError):
        return False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Run one TCP pricing worker (a paper-style MPI slave) "
        "for the remote execution backend.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to listen on (default: loopback only; "
                        "the protocol is unauthenticated, so expose other "
                        "interfaces -- e.g. --host 0.0.0.0 -- only on networks "
                        "you trust)")
    parser.add_argument("--port", type=int, default=9631,
                        help="TCP port to listen on (0 picks an ephemeral port)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="fork N pricing processes behind the one "
                        "listening socket; a master that lists this address "
                        "N times gets N parallel slaves (needs the 'fork' "
                        "start method)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="open the shared on-disk result cache in DIR")
    parser.add_argument("--secret", default=None, metavar="SECRET",
                        help="require masters to prove this shared secret in "
                        "an HMAC-SHA256 handshake before any "
                        f"job is accepted; defaults to ${SECRET_ENV_VAR} "
                        "when set (prefer the environment variable: argv is "
                        "world-readable in `ps`)")
    parser.add_argument("--once", action="store_true",
                        help="exit after the first master connection ends")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-connection log lines")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-worker`` console script."""
    args = build_parser().parse_args(argv)
    secret = args.secret if args.secret is not None else os.environ.get(SECRET_ENV_VAR)
    serve(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        once=args.once,
        quiet=args.quiet,
        workers=args.workers,
        secret=secret or None,
        ready=lambda port: print(f"repro-worker listening on {args.host}:{port}"),
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

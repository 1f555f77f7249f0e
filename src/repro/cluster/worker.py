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
super-jobs and scenario-grid slices -- so every payload kind that works
locally works across the wire.
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
from repro.errors import ClusterError, ReproError, SerializationError
from repro.pricing.validation import check_count
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

__all__ = ["serve", "spawn_local_workers", "LocalWorkerPool", "main"]

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
    connection.
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

    def __init__(self, conn: socket.socket, send_lock: threading.Lock):
        self._conn = conn
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
            result, elapsed, error = execute_payload(payload_kind, payload)
            self._send(_result_frame(job_id, result, elapsed, error))


def _authenticate_master(
    conn: socket.socket, secret: str, nonce: bytes, log
) -> bool:
    """Worker side of the challenge/response; ``True`` iff the peer is in.

    The master must open with a :data:`FRAME_CHALLENGE` whose proof is
    HMAC-SHA256(secret, our hello ``nonce``); we answer its challenge nonce
    the same way.  A clean goodbye (:data:`FRAME_STOP`) stays allowed before
    authentication, but nothing else is answered for an unproven peer.
    """
    try:
        frame = read_frame(conn.recv)
    except SerializationError as exc:
        log(f"dropping connection during handshake: {exc}")
        return False
    if frame is None:
        return False
    kind, payload = frame
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
    conn: socket.socket, log, secret: str | None = None
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
    lane = _ComputeLane(conn, send_lock)
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
                # liveness: echo the opaque token straight back -- answered
                # here, off the compute lane, so a master's ping of a busy
                # connection is not stuck behind a long job
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
                # the id travels back in the result frame: an int that fits it
                job_id = check_count(entry["job_id"], "job_id", 0, error=SerializationError,
                                     floats=False)
                parsed = job_id, entry["kind"], entry["payload"]
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
    server: socket.socket, once: bool, quiet: bool, secret: str | None = None
) -> None:
    """Accept master connections on an already-listening socket, forever.

    This is the body of one pricing process: with ``repro-worker --workers N``
    every forked child runs this loop on the **same** inherited listening
    socket, so the kernel load-balances incoming master connections across
    the children.
    """
    log = _make_log(quiet)
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
                stopped = _handle_connection(conn, log, secret=secret)
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
    deployments.  ``secret`` arms the HMAC-SHA256 handshake: every master connection
    must prove knowledge of the shared secret before any job is accepted.

    ``workers=N`` forks ``N`` pricing processes behind the one listening
    socket: each child runs the accept loop on the shared socket, so a
    master that lists the same ``host:port`` address ``N`` times gets ``N``
    genuinely parallel slaves from a single server (with ``once=True`` each
    child exits after its first connection ends).  Requires the ``fork``
    start method (Linux/macOS).
    """
    log = _make_log(quiet)
    port = check_count(port, "port", 0, error=ClusterError, floats=False)
    if port > 65535:
        raise ClusterError(f"port must be <= 65535, got {port!r}")
    workers = check_count(workers, "workers", error=ClusterError, floats=False)
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
            _accept_loop(server, once, quiet, secret)
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
                args=(server, once, quiet, secret),
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


#: seconds a spawned worker server has to report the port it bound
_STARTUP_TIMEOUT_S = 30.0


def _spawned_worker(index: int, port: int, port_queue: Any, secret: str | None) -> None:
    """Entry point of one :func:`spawn_local_workers` process."""
    serve(
        port=port,
        secret=secret,
        ready=lambda bound: port_queue.put((index, bound)),
    )


def _stop_processes(processes: list[Any]) -> None:
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=10.0)
        if process.is_alive():  # pragma: no cover - defensive cleanup
            process.kill()
            process.join(timeout=5.0)


def _start_servers(ports: list[int], secret: str | None) -> tuple[list[Any], list[int]]:
    """One loopback server process per entry of ``ports`` (``0``: ephemeral),
    and the port each one bound.

    Ports arrive in whichever-bound-first order; they are keyed back to the
    spawn index, so the ``i``-th port returned is the ``i``-th process's.  A server that has
    not reported by the start-up timeout is a :class:`ClusterError`, and
    every process started here is stopped first.
    """
    ctx = mp.get_context()
    port_queue = ctx.Queue()
    processes: list[Any] = []
    try:
        for index, port in enumerate(ports):
            process = ctx.Process(
                target=_spawned_worker,
                args=(index, port, port_queue, secret),
                daemon=True,
            )
            process.start()
            processes.append(process)
        bound = dict(port_queue.get(timeout=_STARTUP_TIMEOUT_S) for _ in ports)
    except BaseException as exc:
        _stop_processes(processes)
        if isinstance(exc, queue.Empty):
            raise ClusterError(
                f"a worker server on 127.0.0.1 did not report its port within the "
                f"{_STARTUP_TIMEOUT_S:g} s start-up timeout"
            ) from None
        raise
    return processes, [bound[index] for index in range(len(ports))]


class LocalWorkerPool:
    """A handful of loopback worker processes, for tests and examples.

    Iterable/indexable as its ``"host:port"`` address list, usable as a
    context manager (``stop()`` on exit), and deliberately easy to sabotage:
    :meth:`kill` hard-kills one worker so the master's death-recovery path
    can be exercised, and :meth:`restart` brings it back **on the same
    port** so the master's reconnect path can be exercised too.
    """

    def __init__(self, processes: list[Any], hosts: list[str], *, secret: str | None = None):
        self._processes = processes
        self.hosts = list(hosts)
        self._secret = secret

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts)

    def __getitem__(self, index: int) -> str:
        return self.hosts[index]

    def kill(self, index: int) -> None:
        """Hard-kill one worker server (simulates a node failure)."""
        process = self._processes[index]
        process.kill()
        process.join(timeout=10.0)

    def restart(self, index: int) -> str:
        """Respawn a killed worker server on its original port.

        The listening sockets bind with ``SO_REUSEADDR``, so the address in
        ``hosts[index]`` comes straight back -- which is exactly what a
        master's re-dial of a dead host needs.  Returns the
        (unchanged) ``"host:port"`` address.  Raises
        :class:`~repro.errors.ClusterError` if the worker it replaces is
        still alive or the new server does not come up within the start-up
        timeout (e.g. another process grabbed the port meanwhile).
        """
        if self._processes[index].is_alive():
            raise ClusterError(
                f"worker {index} ({self.hosts[index]}) is still alive; "
                f"kill() it before restart()"
            )
        port = int(self.hosts[index].rpartition(":")[2])
        processes, _ = _start_servers([port], self._secret)
        self._processes[index] = processes[0]
        return self.hosts[index]

    def stop(self) -> None:
        """Terminate every worker process still alive."""
        _stop_processes(self._processes)

    def __enter__(self) -> "LocalWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def spawn_local_workers(n: int, *, secret: str | None = None) -> LocalWorkerPool:
    """Start ``n`` worker servers on ``127.0.0.1`` and return their pool.

    Each worker is a real OS process running :func:`serve` on an ephemeral
    port; the call returns once every worker is listening, so a
    ``ValuationSession(backend="remote", backend_options={"hosts": pool.hosts})``
    can connect immediately.  Stop the pool with :meth:`LocalWorkerPool.stop`
    or a ``with`` block.
    """
    n = check_count(n, "spawn_local_workers n", error=ClusterError, floats=False)
    processes, ports = _start_servers([0] * n, secret)
    hosts = [f"127.0.0.1:{port}" for port in ports]
    return LocalWorkerPool(processes, hosts, secret=secret)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Run one TCP pricing worker (a paper-style MPI slave) "
        "for the remote execution backend.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to listen on (default: loopback only; "
                        "expose others -- e.g. --host 0.0.0.0 -- with --secret "
                        f"or ${SECRET_ENV_VAR} set, or only on networks you trust)")
    parser.add_argument("--port", type=int, default=9631,
                        help="TCP port to listen on (0 picks an ephemeral port)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="fork N pricing processes behind the one "
                        "listening socket; a master that lists this address "
                        "N times gets N parallel slaves (needs the 'fork' "
                        "start method)")
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
    """Entry point of the ``repro-worker`` console script; bad options are one
    ``error: ...`` line on stderr and exit code 2, as for ``repro-bench``."""
    args = build_parser().parse_args(argv)
    secret = args.secret if args.secret is not None else os.environ.get(SECRET_ENV_VAR)
    try:
        serve(
            host=args.host,
            port=args.port,
            once=args.once,
            quiet=args.quiet,
            workers=args.workers,
            secret=secret or None,
            ready=lambda port: print(f"repro-worker listening on {args.host}:{port}",
                                     flush=True),
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

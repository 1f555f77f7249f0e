"""HTTP surface of ``repro-serve``: routing, auth, SSE, CLI entry point.

One :class:`ThreadingHTTPServer` front-ends one
:class:`~repro.serve.service.PricingService`.  The handler is a deliberately
thin shell: it parses a request, applies the multi-tenancy guards (shared
secret, per-client token bucket), delegates to the service, and maps the
library's exception taxonomy onto HTTP status codes.  Endpoints:

====================================  =====================================
``GET  /``                            live dashboard (HTML, no auth)
``GET  /healthz``                     liveness/degradation probe (no auth)
``GET  /v1/stats``                    counters + cache + workers (no auth)
``POST /v1/price``                    one problem, cache-first, synchronous
``POST /v1/greeks``                   full Greek ladder (CRN scenario grid)
``POST /v1/run``                      enqueue a portfolio run (``wait`` opt)
``GET  /v1/jobs/{id}``                job snapshot with result
``POST /v1/jobs/{id}/cancel``         withdraw / cancel a run
``GET  /v1/stream/{id}``              SSE replay + follow of run progress
``POST /v1/shutdown``                 clean remote stop
====================================  =====================================

Responses use HTTP/1.0 semantics (the connection closes after each
response), which makes the SSE stream self-delimiting: the client reads
events until EOF, which arrives right after the terminal event.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import (
    PortfolioError,
    PricingError,
    RegistryError,
    ReproError,
    SchedulingError,
    ServeError,
    ValuationError,
)
from repro.serve.auth import RateLimiter, token_matches
from repro.serve.config import ServerConfig
from repro.serve.dashboard import DASHBOARD_HTML
from repro.serve.parse import finite_number
from repro.serve.service import PricingService
from repro.serve.sse import format_sse

__all__ = ["ReproServer", "build_parser", "main"]

#: exception types a request body can legitimately trigger -> HTTP 400
_BAD_REQUEST_ERRORS = (
    ServeError,
    RegistryError,
    PricingError,
    ValuationError,
    PortfolioError,
    SchedulingError,
)

_AUTH_EXEMPT = {"/", "/healthz", "/v1/stats"}


class _PayloadTooLarge(Exception):
    """Body over ``max_body_bytes`` -> HTTP 413 (not a plain bad request)."""


def _refuse_constant(literal: str) -> Any:
    """``json.loads`` hook: NaN / Infinity is refused before anything is priced or enqueued."""
    raise ServeError(f"request body holds the non-finite number {literal}")


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server.service``."""

    server_version = "repro-serve"
    # Each response closes its connection; SSE relies on that to delimit
    # the event stream without chunked encoding.
    protocol_version = "HTTP/1.0"

    # -- plumbing -------------------------------------------------------------
    @property
    def service(self) -> PricingService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def limiter(self) -> RateLimiter:
        return self.server.limiter  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.service.config.verbose:
            super().log_message(format, *args)

    def _path_only(self) -> str:
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def _send_json(self, status: int, payload: Any, **headers: str) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name.replace("_", "-"), value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **headers: str) -> None:
        self._send_json(status, {"error": message}, **headers)

    def _presented_token(self) -> str | None:
        auth = self.headers.get("Authorization")
        if auth and auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return self.headers.get("X-Auth-Token")

    def _authorized(self, path: str) -> bool:
        if path in _AUTH_EXEMPT:
            return True
        if token_matches(self.service.config.auth_token, self._presented_token()):
            return True
        self.service.count("auth_failures")
        self._error(401, "missing or invalid auth token")
        return False

    def _rate_limited(self) -> bool:
        allowed, retry_after = self.limiter.allow(self.client_address[0])
        if allowed:
            return False
        self.service.count("rate_limited")
        self._error(429, "rate limit exceeded", Retry_After=f"{retry_after:.3f}")
        return True

    def _read_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        if not header.isdecimal():  # a sign is refused too: "-5"
            raise ServeError(f"Content-Length must be a non-negative integer, got {header!r}")
        length = int(header)
        if length > self.service.config.max_body_bytes:
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.service.config.max_body_bytes} byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServeError("request body must be a JSON object")
        try:
            return json.loads(raw, parse_constant=_refuse_constant)
        except json.JSONDecodeError as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from None

    # -- verbs ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self._path_only()
        self.service.count("requests")
        if not self._authorized(path):
            return
        try:
            if path == "/":
                body = DASHBOARD_HTML.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif path == "/healthz":
                self._send_json(200, self.service.healthz())
            elif path == "/v1/stats":
                self._send_json(200, self.service.stats())
            elif path.startswith("/v1/jobs/"):
                self._get_job(path.removeprefix("/v1/jobs/"))
            elif path.startswith("/v1/stream/"):
                self._stream_job(path.removeprefix("/v1/stream/"))
            else:
                self._error(404, f"no such endpoint: {path}")
        except BrokenPipeError:  # client went away mid-response
            pass
        except Exception as exc:  # noqa: BLE001 - a handler must not kill the server
            self._safe_500(exc)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self._path_only()
        self.service.count("requests")
        if not self._authorized(path):
            return
        if path in ("/v1/price", "/v1/greeks", "/v1/run") and self._rate_limited():
            return
        try:
            if path == "/v1/price":
                self._send_json(200, self.service.price_single(self._read_body()))
            elif path == "/v1/greeks":
                self._send_json(200, self.service.greeks_single(self._read_body()))
            elif path == "/v1/run":
                self._submit_run()
            elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                job_id = path.removeprefix("/v1/jobs/").removesuffix("/cancel")
                record = self.service.cancel_job(job_id)
                if record is None:
                    self._error(404, f"unknown job: {job_id}")
                else:
                    self._send_json(200, record.snapshot(include_result=False))
            elif path == "/v1/shutdown":
                self._send_json(200, {"status": "stopping"})
                self.server.request_stop()  # type: ignore[attr-defined]
            else:
                self._error(404, f"no such endpoint: {path}")
        except _PayloadTooLarge as exc:
            self._error(413, str(exc))
        except _BAD_REQUEST_ERRORS as exc:
            self._error(400, str(exc))
        except BrokenPipeError:
            pass
        except Exception as exc:  # noqa: BLE001 - a handler must not kill the server
            self._safe_500(exc)

    def _safe_500(self, exc: Exception) -> None:
        try:
            self._error(500, f"{type(exc).__name__}: {exc}")
        except OSError:
            pass

    # -- endpoint bodies ------------------------------------------------------
    def _submit_run(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        timeout = None
        if body.get("wait"):  # validated before the run is enqueued
            timeout = finite_number(body.get("timeout", 300.0), "timeout")
            if timeout <= 0:
                raise ServeError(f"timeout must be > 0, got {timeout!r}")
        record = self.service.submit_run(body)
        if timeout is not None and not record.wait_terminal(timeout=timeout):
            self._send_json(202, record.snapshot(include_result=False))
            return
        self._send_json(202 if not record.terminal else 200, record.snapshot())

    def _get_job(self, job_id: str) -> None:
        record = self.service.jobs.get(job_id)
        if record is None:
            self._error(404, f"unknown job: {job_id}")
        else:
            self._send_json(200, record.snapshot())

    def _stream_job(self, job_id: str) -> None:
        record = self.service.jobs.get(job_id)
        if record is None:
            self._error(404, f"unknown job: {job_id}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        cursor = 0
        try:
            while True:
                # sample the state BEFORE draining: progress events precede
                # the terminal transition, so a True flag here guarantees the
                # drain below saw every tick the run will ever produce
                finished = record.terminal
                events, cursor = record.events_since(cursor)
                for offset, event in enumerate(events, start=cursor - len(events)):
                    self.wfile.write(
                        format_sse(event, event="progress", event_id=offset)
                    )
                if finished:
                    # one final event named after the job's resting state
                    self.wfile.write(
                        format_sse(
                            record.snapshot(include_result=False),
                            event=record.state,
                        )
                    )
                    self.wfile.flush()
                    return
                self.wfile.flush()
                record.wait_event(cursor, timeout=1.0)
        except (BrokenPipeError, ConnectionResetError):
            pass  # streamer disconnected; the job runs on


class ReproServer:
    """The bound daemon: HTTP server + pricing service, one object.

    Construction binds the socket (so ``port=0`` resolves to a real
    ephemeral port immediately); :meth:`start` warms the backend and serves
    in a daemon thread, :meth:`serve_forever` does the same in the calling
    thread.  Either way :meth:`stop` is idempotent and tears down both the
    HTTP side and the worker pool.
    """

    def __init__(self, config: ServerConfig | None = None, **overrides: Any):
        if config is None:
            config = ServerConfig(**overrides)
        elif overrides:
            raise ServeError("pass either a ServerConfig or keyword overrides")
        self.config = config
        self.service = PricingService(config)
        self._httpd = ThreadingHTTPServer((config.host, config.port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.limiter = RateLimiter(  # type: ignore[attr-defined]
            config.rate_limit, config.rate_burst
        )
        self._httpd.request_stop = self._request_stop  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._serving = threading.Event()
        self._stopped = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _serve(self) -> None:
        self._serving.set()
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ReproServer":
        """Warm the backend and serve in a background thread."""
        if self._thread is None:
            self.service.start()
            self._thread = threading.Thread(
                target=self._serve, name="repro-serve-http", daemon=True
            )
            self._thread.start()
            self._serving.wait(timeout=5.0)
        return self

    def serve_forever(self) -> None:
        """Warm the backend and serve in the calling thread (CLI mode)."""
        self.service.start()
        self._serve()

    def _request_stop(self) -> None:
        # shutdown() must come from another thread -- it blocks until the
        # serve_forever loop (which is busy answering us) notices.
        threading.Thread(target=self.stop, name="repro-serve-stop", daemon=True).start()

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._serving.is_set():
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.service.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-lived pricing daemon: warm backend, shared result "
        "cache, HTTP + SSE API, live dashboard.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=9632, help="TCP port (0 picks a free one)"
    )
    parser.add_argument(
        "--backend",
        default="local",
        help="execution backend: local, multiprocessing or remote",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker count (spawned backends)"
    )
    parser.add_argument(
        "--hosts",
        default=None,
        help="comma-separated host:port list of running repro-worker processes "
        "(remote backend; omit to spawn a loopback pool)",
    )
    parser.add_argument("--cache-dir", default=None, help="on-disk result cache")
    parser.add_argument(
        "--cache-entries", type=int, default=4096, help="in-memory cache bound"
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help="shared secret required on API requests "
        "(default: $REPRO_SERVE_TOKEN if set)",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="per-client requests/second on pricing endpoints (0 disables)",
    )
    parser.add_argument(
        "--rate-burst", type=int, default=20, help="token-bucket burst capacity"
    )
    parser.add_argument(
        "--keepalive",
        type=float,
        default=0.0,
        help="seconds between idle PING probes of remote workers (0 disables)",
    )
    parser.add_argument(
        "--worker-secret",
        default=None,
        help="shared secret of the worker handshake (remote backend; "
        "default: $REPRO_WORKER_SECRET if set)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-serve`` console script; bad options are one
    ``error: ...`` line on stderr and exit code 2, as for ``repro-bench``."""
    args = build_parser().parse_args(argv)
    try:
        server = ReproServer(ServerConfig(
            host=args.host,
            port=args.port,
            backend=args.backend,
            n_workers=args.workers,
            hosts=tuple(h.strip() for h in args.hosts.split(",")) if args.hosts else (),
            cache_dir=args.cache_dir,
            cache_entries=args.cache_entries,
            auth_token=args.auth_token or os.environ.get("REPRO_SERVE_TOKEN") or None,
            rate_limit=args.rate_limit,
            rate_burst=args.rate_burst,
            keepalive_interval=args.keepalive,
            worker_secret=(
                args.worker_secret or os.environ.get("REPRO_WORKER_SECRET") or None
            )
            if args.backend == "remote"
            else None,
            verbose=args.verbose,
        ))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"repro-serve listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests of the ``repro-serve`` daemon over real HTTP.

One module-scoped server (local backend, auth enabled) carries most tests;
rate limiting and cancellation get their own short-lived instances.  The
centerpiece is the acceptance path: an authed ``POST /v1/run`` whose SSE
stream shows incremental progress and whose prices are bit-identical to an
in-process ``ValuationSession.run``, followed by an identical request that
is answered entirely from the shared cache without touching workers.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import ValuationSession
from repro.core.portfolio import Portfolio, Position
from repro.serve import ReproServer, ServerConfig
from repro.serve.service import PricingService
from tests.oracles import serial_greeks

TOKEN = "test-secret"


def _position_body(strike: float, **extra) -> dict:
    return {
        "model": "BlackScholes1D",
        "model_params": {"spot": 100.0, "rate": 0.05, "volatility": 0.2},
        "option": "CallEuro",
        "option_params": {"strike": strike, "maturity": 1.0},
        "method": "CF_Call",
        "label": f"call_{strike:g}",
        **extra,
    }


def _slow_position_body(strike: float) -> dict:
    body = _position_body(strike)
    body["method"] = "MC_European"
    body["method_params"] = {"n_paths": 120_000, "seed": int(strike)}
    return body


def _portfolio(strikes: list[float]) -> Portfolio:
    from repro.serve.parse import problem_from_request

    portfolio = Portfolio(name="reference")
    for strike in strikes:
        problem = problem_from_request(_position_body(strike))
        portfolio.add(
            Position(problem=problem, label=problem.label or f"call_{strike:g}")
        )
    return portfolio


def _request(url: str, data=None, token: str | None = TOKEN, method=None):
    headers = {}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    body = json.dumps(data).encode() if data is not None else None
    request = urllib.request.Request(
        url, data=body, headers=headers, method=method or ("POST" if body else "GET")
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _read_sse(url: str, token: str | None = TOKEN) -> list[tuple[str, dict]]:
    """Read one SSE stream to EOF; returns ``(event_name, payload)`` pairs."""
    headers = {"Authorization": f"Bearer {token}"} if token else {}
    request = urllib.request.Request(url, headers=headers)
    events, name = [], "message"
    with urllib.request.urlopen(request, timeout=120) as response:
        assert response.headers["Content-Type"].startswith("text/event-stream")
        for raw in response:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                name = line[len("event: ") :]
            elif line.startswith("data: "):
                events.append((name, json.loads(line[len("data: ") :])))
                name = "message"
    return events


@pytest.fixture(scope="module")
def server():
    config = ServerConfig(port=0, backend="local", n_workers=2, auth_token=TOKEN)
    with ReproServer(config) as running:
        yield running


class TestOpenEndpoints:
    def test_healthz_without_auth(self, server):
        status, body = _request(server.url + "/healthz", token=None)
        assert status == 200
        assert body["status"] == "ok"
        assert body["backend"] == "local"

    def test_stats_without_auth(self, server):
        status, body = _request(server.url + "/v1/stats", token=None)
        assert status == 200
        assert set(body) >= {"jobs", "requests", "cache", "workers", "queue_depth"}

    def test_dashboard_without_auth(self, server):
        with urllib.request.urlopen(server.url + "/", timeout=10) as response:
            assert response.status == 200
            html = response.read().decode()
        assert "repro-serve" in html and "/v1/stats" in html


class TestAuth:
    @pytest.mark.parametrize(
        "path,payload",
        [
            ("/v1/price", {}),
            ("/v1/run", {}),
            ("/v1/jobs/000001-feedface", None),
            ("/v1/stream/000001-feedface", None),
        ],
    )
    def test_data_endpoints_require_token(self, server, path, payload):
        status, body = _request(server.url + path, payload, token=None)
        assert status == 401
        assert "token" in body["error"]

    def test_wrong_token_rejected(self, server):
        status, _ = _request(server.url + "/v1/price", {}, token="wrong")
        assert status == 401

    def test_x_auth_token_header_accepted(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs/unknown", headers={"X-Auth-Token": TOKEN}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404  # authorized, then not found


class TestErrors:
    def test_unknown_endpoint_404(self, server):
        assert _request(server.url + "/v1/nope", {"x": 1})[0] == 404
        assert _request(server.url + "/v2/price", token=None)[0] == 401

    @pytest.mark.parametrize(
        ("data", "length", "message"),
        [
            (b"{not json", None, "not valid JSON"),
            # int() on the header used to answer HTTP 500
            (b"{}", "abc", "Content-Length must be a non-negative integer"),
            (b"{}", "-5", "Content-Length must be a non-negative integer"),
            # json.loads admits these; the position was priced first, refused after
            (json.dumps(_position_body(100.0, quantity=float("nan"))).encode(), None,
             "non-finite number NaN"),
            (b'{"model_params": {"spot": -Infinity}}', None, "non-finite number -Infinity"),
            # 1e999 is a number to the JSON grammar, so parse_constant never sees
            # it; it overflows to inf and used to reach the model
            (json.dumps(_position_body(100.0)).replace("0.2", "1e999").encode(), None,
             "parameter 'volatility' must be finite"),
        ],
    )
    def test_malformed_json_400(self, server, data, length, message):
        headers = {"Authorization": f"Bearer {TOKEN}"}
        if length is not None:
            headers["Content-Length"] = length
        request = urllib.request.Request(server.url + "/v1/price", data=data, headers=headers)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert message in json.loads(excinfo.value.read())["error"]

    @pytest.mark.parametrize(
        ("changes", "named"),
        [
            ({"model": "NotAModel"}, "NotAModel"),
            # constructor failures used to escape as HTTP 500
            ({"model_params": {"spot": "abc", "rate": 0.05, "volatility": 0.2}}, "model_params"),
            ({"option_params": {"strike": 100.0, "maturity": 1.0, "colour": 3}}, "option_params"),
            ({"method": "MC_European", "method_params": {"n_paths": "many"}}, "method_params"),
            # used to price -- and cache -- as seed 1
            ({"method": "MC_European", "method_params": {"seed": 1.5}},
             "seed must be an int, got 1.5"),
        ],
    )
    def test_invalid_problem_400(self, server, changes, named):
        status, body = _request(server.url + "/v1/price", _position_body(100.0, **changes))
        assert status == 400
        assert named in body["error"]

    def test_an_integral_float_count_is_its_int(self, server):
        def mc(seed):
            return _position_body(100.0, method="MC_European",
                                  method_params={"n_paths": 2e3, "seed": seed})

        (_, as_float), (_, as_int) = (_request(server.url + "/v1/price", mc(seed))
                                      for seed in (1.0, 1))
        assert as_float["digest"] == as_int["digest"]
        assert as_float["price"] == as_int["price"]

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("priority", "high", "positions[1].priority"),
            ("quantity", "two", "positions[1].quantity"),
            # the body reader refuses the literal before any field is looked at
            ("priority", float("nan"), "non-finite number NaN"),
            ("quantity", float("inf"), "non-finite number Infinity"),
        ],
    )
    def test_non_finite_position_numbers_400(self, server, field, value, message):
        # a bare float() surfaced the strings as HTTP 500 and admitted NaN
        # (which json.loads accepts) into the priority queue
        run_body = {
            "positions": [_position_body(50.0), _position_body(51.0, **{field: value})]
        }
        status, body = _request(server.url + "/v1/run", run_body)
        assert status == 400
        assert message in body["error"]

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"priority": "urgent"}, "priority must be a finite number"),
            # a bare float() answered 500 for the string and waited on NaN
            ({"wait": True, "timeout": "soon"}, "timeout must be a finite number"),
            ({"wait": True, "timeout": float("nan")}, "non-finite number NaN"),
            # /v1/run used to enqueue this one
            ({"positions": [_position_body(50.0, model_params={
                "spot": float("nan"), "rate": 0.05, "volatility": 0.2})]},
             "non-finite number NaN"),
            ({"wait": True, "timeout": 0}, "timeout must be > 0"),
        ],
    )
    def test_non_finite_request_numbers_400(self, server, fields, message):
        def submitted() -> int:
            return _request(server.url + "/v1/stats")[1]["requests"].get("runs_submitted", 0)

        before = submitted()
        run_body = {"positions": [_position_body(50.0)], **fields}
        status, body = _request(server.url + "/v1/run", run_body)
        assert status == 400
        assert message in body["error"]
        # refused before anything was enqueued
        assert submitted() == before

    def test_oversized_body_413(self):
        config = ServerConfig(port=0, max_body_bytes=512)
        with ReproServer(config) as small:
            status, body = _request(
                small.url + "/v1/price", {"padding": "x" * 2048}, token=None
            )
        assert status == 413
        assert "byte limit" in body["error"]

    def test_unknown_job_404(self, server):
        assert _request(server.url + "/v1/jobs/000999-00000000")[0] == 404
        assert _request(server.url + "/v1/stream/000999-00000000")[0] == 404
        assert (
            _request(server.url + "/v1/jobs/000999-00000000/cancel", {})[0] == 404
        )


class TestPriceEndpoint:
    def test_miss_then_hit(self, server):
        body = _position_body(83.0)
        status, first = _request(server.url + "/v1/price", body)
        assert status == 200
        assert first["cache_hit"] is False
        status, second = _request(server.url + "/v1/price", body)
        assert status == 200
        assert second["cache_hit"] is True
        assert second["price"] == first["price"]
        assert second["digest"] == first["digest"]

    def test_price_matches_direct_compute(self, server):
        from repro.serve.parse import problem_from_request

        body = _position_body(97.0)
        _, response = _request(server.url + "/v1/price", body)
        assert response["price"] == problem_from_request(body).compute().price


class TestGreeksEndpoint:
    def test_full_ladder_with_theta(self, server):
        body = _position_body(100.0)
        body["method"] = "MC_European"
        body["method_params"] = {"n_paths": 20_000, "seed": 7}
        status, report = _request(server.url + "/v1/greeks", body)
        assert status == 200
        assert "engine" not in report
        assert 0.0 < report["delta"] < 1.0
        assert report["gamma"] > 0.0
        assert report["vega"] > 0.0
        assert report["theta"] < 0.0  # long vanilla call decays

    def test_matches_serial_oracle_bit_for_bit(self, server):
        from repro.serve.parse import problem_from_request

        body = _position_body(104.0)
        body["method"] = "MC_European"
        body["method_params"] = {"n_paths": 20_000, "seed": 3}
        _, report = _request(server.url + "/v1/greeks", {**body, "spot_bump": 0.02})
        problem = problem_from_request(body)
        serial = serial_greeks(
            problem.model, problem.product, problem.method, spot_bump=0.02
        )
        for key, value in serial.as_dict().items():
            assert report[key] == value

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("spot_bump", 0),  # was a ZeroDivisionError -> 500
            ("vol_bump", 0),
            ("rate_bump", 0),
            ("spot_bump", "abc"),  # was a bare float() ValueError -> 500
            ("vol_bump", [1]),  # ... TypeError -> 500
            ("rate_bump", float("inf")),
            ("theta_bump", float("nan")),
        ],
    )
    def test_unusable_bump_400(self, server, name, value):
        status, response = _request(
            server.url + "/v1/greeks", _position_body(100.0, **{name: value})
        )
        assert status == 400
        # the literals NaN / Infinity never reach the field checks
        literal = isinstance(value, float)
        assert ("non-finite number" if literal else name) in response["error"]

    def test_requires_auth(self, server):
        status, _ = _request(
            server.url + "/v1/greeks", _position_body(100.0), token=None
        )
        assert status == 401

    def test_counter_visible_in_stats(self, server):
        _, stats = _request(server.url + "/v1/stats", token=None)
        assert stats["requests"]["greek_ladders"] >= 2


class TestRunLifecycle:
    def test_acceptance_path(self, server):
        """run -> SSE progress -> bit-identical prices -> cached re-run."""
        strikes = [91.0, 96.0, 101.0, 106.0, 111.0]
        run_body = {"positions": [_position_body(strike) for strike in strikes]}

        status, submitted = _request(server.url + "/v1/run", run_body)
        assert status in (200, 202)
        job_id = submitted["job"]

        events = _read_sse(server.url + f"/v1/stream/{job_id}")
        names = [name for name, _ in events]
        progress = [payload for name, payload in events if name == "progress"]
        # incremental StreamProgress: one tick per position, done counts rising
        assert len(progress) == len(strikes)
        assert [tick["done"] for tick in progress] == list(range(1, len(strikes) + 1))
        assert all(tick["total"] == len(strikes) for tick in progress)
        assert names[-1] == "done"

        status, record = _request(server.url + f"/v1/jobs/{job_id}")
        assert status == 200 and record["state"] == "done"
        result = record["result"]

        # bit-identical to an in-process session over the same positions
        reference = ValuationSession(backend="local", n_workers=2).run(
            _portfolio(strikes)
        )
        assert result["prices"] == {
            str(job): price for job, price in reference.prices().items()
        }
        assert result["errors"] == {}

        # an identical second run is answered from the shared cache: the
        # campaign collapses to the "cache" pseudo-scheduler (no worker ran)
        hits_before = _request(server.url + "/v1/stats", token=None)[1]["cache"]["hits"]
        status, rerun = _request(server.url + "/v1/run", {**run_body, "wait": True})
        assert status == 200
        assert rerun["state"] == "done"
        assert rerun["result"]["scheduler"] == "cache"
        assert rerun["result"]["prices"] == result["prices"]

        stats = _request(server.url + "/v1/stats", token=None)[1]
        assert stats["cache"]["hits"] >= hits_before + len(strikes)
        assert stats["requests"]["cache_only_runs"] >= 1

    def test_wait_returns_completed_snapshot(self, server):
        run_body = {
            "positions": [_position_body(strike) for strike in (71.0, 76.0)],
            "wait": True,
        }
        status, record = _request(server.url + "/v1/run", run_body)
        assert status == 200
        assert record["state"] == "done"
        assert len(record["result"]["prices"]) == 2
        assert record["result"]["value"] is not None

    def test_per_position_priorities_use_priority_scheduler(self, server):
        run_body = {
            "positions": [
                _position_body(61.0 + index, priority=index) for index in range(3)
            ],
            "wait": True,
        }
        _, record = _request(server.url + "/v1/run", run_body)
        assert record["state"] == "done"
        assert record["result"]["scheduler"] == "priority"

    def test_batch_with_priorities_rejected(self, server):
        run_body = {
            "positions": [_position_body(51.0, priority=1)],
            "batch": True,
        }
        status, body = _request(server.url + "/v1/run", run_body)
        assert status == 400
        assert "batch" in body["error"]

    def test_run_with_failing_position_reports_errors(self, server):
        # Heston + closed-form Black-Scholes pricer: parses cleanly, fails at
        # compute time with IncompatibleMethodError (a per-position error)
        bad = _position_body(41.0)
        bad["model"] = "Heston1D"
        bad["model_params"] = {
            "spot": 100.0,
            "rate": 0.03,
            "v0": 0.04,
            "kappa": 2.0,
            "theta": 0.04,
            "sigma_v": 0.4,
            "rho": -0.7,
        }
        status, record = _request(
            server.url + "/v1/run",
            {"positions": [_position_body(42.0), bad], "wait": True},
        )
        assert status == 200
        assert record["state"] == "done"
        assert list(record["result"]["errors"]) == ["1"]
        assert record["result"]["value"] is None


class TestCancellation:
    def test_cancel_running_job_over_http(self):
        config = ServerConfig(port=0, backend="local", n_workers=1)
        with ReproServer(config) as server:
            run_body = {
                "positions": [_slow_position_body(60.0 + index) for index in range(8)]
            }
            _, submitted = _request(server.url + "/v1/run", run_body, token=None)
            job_id = submitted["job"]

            events: list[tuple[str, dict]] = []
            streamer = threading.Thread(
                target=lambda: events.extend(
                    _read_sse(server.url + f"/v1/stream/{job_id}", token=None)
                )
            )
            streamer.start()
            status, body = _request(
                server.url + f"/v1/jobs/{job_id}/cancel", {}, token=None
            )
            assert status == 200
            streamer.join(timeout=120)
            assert not streamer.is_alive()

            _, record = _request(server.url + f"/v1/jobs/{job_id}", token=None)
            assert record["state"] == "cancelled"
            # the SSE stream ended with the cancelled terminal event
            assert events and events[-1][0] == "cancelled"
            # every position resolves with exactly one tick -- priced or
            # withdrawn -- and cooperative cancel withdrew at least one
            progress = [payload for name, payload in events if name == "progress"]
            assert len(progress) == 8
            priced = [tick for tick in progress if not tick["cancelled"]]
            assert len(priced) < 8
            assert all(tick["price"] is None for tick in progress if tick["cancelled"])

    def test_cancel_queued_job_withdraws_it(self):
        # no started executor: the job can never leave the queue
        service = PricingService(ServerConfig(port=0))
        record = service.submit_run({"positions": [_position_body(33.0)]})
        assert record.state == "queued"
        cancelled = service.cancel_job(record.id)
        assert cancelled is record
        assert record.state == "cancelled"
        assert service.stats()["requests"]["runs_cancelled"] == 1


class TestRateLimit:
    def test_429_with_retry_after(self):
        config = ServerConfig(port=0, rate_limit=1.0, rate_burst=2)
        with ReproServer(config) as server:
            body = _position_body(123.0)
            codes = []
            retry_after = None
            for _ in range(4):
                try:
                    request = urllib.request.Request(
                        server.url + "/v1/price", data=json.dumps(body).encode()
                    )
                    with urllib.request.urlopen(request, timeout=10) as response:
                        codes.append(response.status)
                except urllib.error.HTTPError as error:
                    codes.append(error.code)
                    retry_after = error.headers.get("Retry-After")
            assert codes.count(200) == 2
            assert codes.count(429) == 2
            assert retry_after is not None and float(retry_after) > 0
            stats = _request(server.url + "/v1/stats", token=None)[1]
            assert stats["requests"]["rate_limited"] == 2
            # stats and healthz stay reachable while the client is throttled
            assert _request(server.url + "/healthz", token=None)[0] == 200


class TestShutdownEndpoint:
    def test_shutdown_stops_the_server(self):
        server = ReproServer(ServerConfig(port=0)).start()
        status, body = _request(server.url + "/v1/shutdown", {}, token=None)
        assert status == 200 and body["status"] == "stopping"
        deadline = threading.Event()
        for _ in range(100):
            try:
                _request(server.url + "/healthz", token=None)
            except (urllib.error.URLError, ConnectionError, OSError):
                break
            deadline.wait(0.1)
        else:
            pytest.fail("server still answering after /v1/shutdown")
        server.stop()  # idempotent

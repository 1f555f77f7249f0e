"""Tests of :mod:`repro.serve.config` (daemon configuration validation)."""

from __future__ import annotations

import pytest

from repro.errors import ReproError, ServeError
from repro.serve import SERVABLE_BACKENDS, ServerConfig


class TestServerConfig:
    def test_defaults_are_valid(self):
        config = ServerConfig()
        assert config.backend == "local"
        assert config.auth_token is None
        assert config.rate_limit == 0.0

    @pytest.mark.parametrize("backend", SERVABLE_BACKENDS)
    def test_every_servable_backend_accepted(self, backend):
        hosts = ("localhost:9631",) if backend == "remote" else ()
        assert ServerConfig(backend=backend, hosts=hosts).backend == backend

    def test_simulated_backend_rejected(self):
        # the simulated cluster prices nothing; serving it would be a lie
        with pytest.raises(ServeError, match="simulated"):
            ServerConfig(backend="simulated")

    def test_the_sequential_alias_is_not_servable(self):
        with pytest.raises(ServeError, match="'sequential' cannot be served"):
            ServerConfig(backend="sequential")

    def test_serve_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            ServerConfig(backend="nope")

    def test_hosts_normalized_to_tuple(self):
        config = ServerConfig(backend="remote", hosts=["h1:9631", "h2:9632"])
        assert config.hosts == ("h1:9631", "h2:9632")

    def test_hosts_require_remote_backend(self):
        with pytest.raises(ServeError, match="remote"):
            ServerConfig(backend="local", hosts=("h1:9631",))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"rate_limit": -1.0},
            {"rate_burst": 0},
            {"keepalive_interval": -5.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServerConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            # a NaN rate used to switch limiting off (``nan > 0`` is false)
            ("rate_limit", float("nan")),
            ("rate_limit", float("inf")),
            ("rate_limit", "10"),
            # a NaN interval used to switch the keepalive monitor off
            ("keepalive_interval", float("nan")),
            ("keepalive_interval", float("inf")),
            ("n_workers", 2.5),
            ("n_workers", True),
            ("rate_burst", 2.5),
            ("rate_burst", True),
            # used to fail later, inside PricingService, as a PricingError
            ("cache_entries", 0),
            ("cache_entries", -1),
            # used to make every request a 413
            ("max_body_bytes", -5),
            ("max_body_bytes", 0),
            ("max_events_per_job", 0),
        ],
    )
    def test_every_number_is_checked_and_named(self, field, value):
        with pytest.raises(ServeError, match=field):
            ServerConfig(**{field: value})

    @pytest.mark.parametrize("field", ["rate_limit", "keepalive_interval"])
    def test_zero_still_disables_a_rate_or_an_interval(self, field):
        assert getattr(ServerConfig(**{field: 0}), field) == 0

    def test_frozen(self):
        config = ServerConfig()
        with pytest.raises(AttributeError):
            config.port = 80


class TestCommandLine:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--rate-limit", "nan"], "rate_limit"),
            (["--rate-burst", "0"], "rate_burst"),
            (["--keepalive", "inf"], "keepalive_interval"),
            (["--workers", "0"], "n_workers"),
            (["--cache-entries", "0"], "cache_entries"),
            (["--backend", "simulated"], "simulated"),
        ],
    )
    def test_bad_options_are_one_error_line_and_exit_2(self, capsys, argv, field):
        from repro.serve.app import main

        assert main(["--port", "0", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and field in lines[0]

"""Package-level tests: version, exception hierarchy, CLI parser, public API."""

from __future__ import annotations

import pytest

import repro
from repro import errors
from repro.cli import build_parser


class TestVersion:
    def test_version_exposed(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(part.isdigit() for part in parts[:2])

    def test_pyproject_version_matches(self):
        from pathlib import Path

        pyproject = Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        if not pyproject.exists():  # installed from a wheel
            pytest.skip("source tree not available")
        assert f'version = "{repro.__version__}"' in pyproject.read_text()


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in errors.__dict__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not errors.ReproError:
                if obj.__module__ == "repro.errors":
                    assert issubclass(obj, errors.ReproError), name

    def test_catching_the_base_class(self):
        from repro.pricing import PricingProblem

        with pytest.raises(errors.ReproError):
            PricingProblem().set_model("NoSuchModel")

    def test_specific_errors_are_distinct(self):
        assert not issubclass(errors.PricingError, errors.ClusterError)
        assert issubclass(errors.IncompatibleMethodError, errors.PricingError)
        assert issubclass(errors.CollectTimeoutError, errors.ClusterError)


class TestCLIParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, type(parser._subparsers._group_actions[0]))
        )
        commands = set(subparsers.choices)
        assert {"list", "price", "table1", "table2", "table3", "run"} <= commands

    def test_price_defaults(self):
        args = build_parser().parse_args(["price"])
        assert args.model == "BlackScholes1D"
        assert args.spot == 100.0

    def test_table_accepts_cpu_list(self):
        args = build_parser().parse_args(["table3", "--cpus", "2", "16", "256"])
        assert args.cpus == [2, 16, 256]


class TestPublicAPI:
    def test_core_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_pricing_exports(self):
        import repro.pricing as pricing

        for name in pricing.__all__:
            assert hasattr(pricing, name), name

    def test_cluster_exports(self):
        import repro.cluster as cluster

        for name in cluster.__all__:
            assert hasattr(cluster, name), name

    def test_serial_exports(self):
        import repro.serial as serial

        for name in serial.__all__:
            assert hasattr(serial, name), name

    def test_code_only_tests_reach_lives_in_tests(self):
        # the chaos proxy, the non-regression checker and the implied-vol
        # inversion are test code
        import importlib

        from repro.core import regression
        from repro.pricing import analytics

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.cluster.chaos")
        assert not hasattr(regression, "RegressionSuite")
        assert not hasattr(analytics, "bs_implied_volatility")

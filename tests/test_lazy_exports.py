"""Tests of the lazy top-level ``repro`` namespace (PEP 562 ``__getattr__``)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestLazyNamespace:
    def test_all_advertised_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_dir_covers_lazy_names(self):
        listing = dir(repro)
        for name in ("ValuationSession", "PricingProblem", "Portfolio", "RunReport"):
            assert name in listing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            repro.frobnicate

    def test_facade_and_engine_are_the_canonical_objects(self):
        from repro.api.session import ValuationSession
        from repro.pricing.engine import PricingProblem

        assert repro.ValuationSession is ValuationSession
        assert repro.PricingProblem is PricingProblem

    def test_errors_subpackage_attribute(self):
        assert repro.errors.ReproError is not None

    def test_import_repro_stays_light(self):
        """``import repro`` must not drag in the heavy subpackages."""
        code = (
            "import sys, repro; "
            "heavy = [m for m in sys.modules "
            " if m.startswith(('repro.pricing', 'repro.cluster', 'repro.core', 'repro.api'))]; "
            "print(','.join(heavy) or 'CLEAN')"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        assert result.stdout.strip() == "CLEAN"

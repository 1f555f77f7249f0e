"""Shared helpers of the benchmark harness.

Every benchmark regenerates one of the paper's tables (or an ablation) on the
simulated cluster and times the regeneration with ``pytest-benchmark``; the
paper's tables are compared with the published numbers of
``repro.core.paper_reference`` (``bench_paper_tables.py``), the ablations
write their text tables to ``benchmarks/results/``.

Benchmarks emit machine-readable ``BENCH_<name>.json`` files
(:func:`write_bench_json`) with wall times, speedups and cache hit rates, so
the performance trajectory of the repository can be tracked from PR to PR by
diffing the committed JSON.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(name: str, content: str) -> Path:
    """Write a regenerated table to the results directory."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content + "\n")
    return path


def write_bench_json(name: str, payload: dict[str, Any]) -> Path:
    """Write a machine-readable ``BENCH_<name>.json`` to the results directory.

    ``payload`` must be JSON-serializable; a small environment stanza
    (python/platform) is added so numbers from different machines are
    distinguishable when the files are diffed across PRs.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    document = {
        "benchmark": name,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        **payload,
    }
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path

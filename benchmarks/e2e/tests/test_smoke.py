"""One ``--smoke --trace`` run of the whole suite: schema, spans, hygiene."""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from benchmarks.e2e import bench
from benchmarks.e2e.layers import OTHER_SPANS, REPLAY_STAGES
from benchmarks.e2e.workloads import WORKLOADS


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(Path(bench.__file__)), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


def test_every_declared_metric_is_present_with_its_unit(suite):
    contract = bench.load_contract()
    assert sorted(suite["workloads"]) == sorted(w["name"] for w in contract["workloads"])
    assert sorted(suite["workloads"]) == sorted(WORKLOADS)
    for record in suite["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            assert set(record[section]) == {m["name"] for m in contract[section]}
            for metric in contract[section]:
                entry = record[section][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))


def test_prices_verify_and_nothing_leaks(suite):
    for record in suite["workloads"].values():
        assert record["correct"] and record["traced"]["correct"]
        assert record["failed_fraction"] == 0 and record["price_mismatches"] == 0
        for hygiene in (record["hygiene"], record["traced"]["hygiene"]):
            assert hygiene == {"leaked_processes": 0, "leaked_shm_segments": 0}


def test_environment_block(suite):
    environment = suite["environment"]
    assert environment["nproc"] >= 2 and environment["n_workers"] == 2
    assert set(environment["blas_threads"].values()) == {"1"}
    for key in ("python", "numpy", "scipy", "seed", "profile"):
        assert environment[key] is not None
    assert all(record["sizes"] for record in suite["workloads"].values())


def test_each_span_appears_exactly_once_per_workload(suite):
    expected = Counter([name for name, _ in REPLAY_STAGES] + list(OTHER_SPANS))
    for name, record in suite["workloads"].items():
        trace = json.loads(Path(record["traced"]["trace_file"]).read_text())
        events = trace["traceEvents"]
        assert Counter(event["name"] for event in events) == expected, name
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
            assert event["args"]["workload"] == name
            assert event["args"]["parent"] in (None, "replay")

"""compare.py on synthetic result files."""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e import compare

CONTRACT = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
]}


def _doc(samples, failed_fraction=0.0, mismatches=0):
    import statistics

    return {"workloads": {"w": {
        "metrics": {"wall_s": {"value": statistics.median(samples), "samples": list(samples)}},
        "failed_fraction": failed_fraction, "price_mismatches": mismatches,
    }}}


def _status(a, b, **kwargs):
    rows = compare.compare(_doc(a), _doc(b, **kwargs), CONTRACT)
    return {row["metric"]: row["status"] for row in rows}


def test_within_bound_is_ok():
    assert _status([1.00, 1.01, 1.02], [1.05, 1.06, 1.07])["wall_s"] == "ok"


def test_beyond_bound_is_regressed():
    assert _status([1.00, 1.01, 1.02], [1.20, 1.21, 1.22])["wall_s"] == "regressed"


def test_improvement_is_ok():
    assert _status([1.00, 1.01, 1.02], [0.50, 0.51, 0.52])["wall_s"] == "ok"


def test_wide_spread_is_unresolved():
    assert _status([0.8, 1.0, 1.3], [0.9, 1.0, 1.2])["wall_s"] == "unresolved"


def test_wide_spread_but_every_repeat_better_is_ok():
    assert _status([0.8, 1.0, 1.3], [0.5, 0.6, 0.7])["wall_s"] == "ok"


def test_spread_of_single_sample_is_zero():
    assert compare.spread([3.0]) == 0.0


@pytest.mark.parametrize("kwargs", [{"failed_fraction": 0.01}, {"mismatches": 1}])
def test_any_rise_of_a_zero_bound_count_is_regressed(kwargs):
    statuses = _status([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], **kwargs)
    assert "regressed" in statuses.values()
    assert statuses["wall_s"] == "ok"


def test_raw_times_get_a_row_under_their_own_bound():
    def document(wall):
        doc = _doc([1.0, 1.0, 1.0])
        doc["workloads"]["w"]["times"] = {
            "cpu_s_total": {"value": wall, "unit": "s", "samples": [wall] * 3}}
        return doc

    rows = compare.compare(document(2.0), document(2.0 * (1 + 2 * compare.TIMES_BOUND)), CONTRACT)
    assert {row["metric"]: row["status"] for row in rows}["cpu_s_total"] == "regressed"
    rows = compare.compare(document(2.0), document(2.1), CONTRACT)
    assert {row["metric"]: row["status"] for row in rows}["cpu_s_total"] == "ok"


def test_workload_missing_on_one_side_is_skipped():
    other = {"workloads": {}}
    assert compare.compare(_doc([1.0, 1.0]), other, CONTRACT) == []


def test_main_exit_code_and_table(tmp_path, capsys):
    """Against the real BENCHMARK.json: exit 1 only when a row regressed."""
    contract = json.loads((compare.ROOT / "BENCHMARK.json").read_text())

    def document(scale):
        record = {"failed_fraction": 0.0, "price_mismatches": 0, "metrics": {
            metric["name"]: {"value": scale, "samples": [scale] * 3}
            for metric in contract["end_to_end"]
        }}
        return {"workloads": {"toy_cf_mp": record}}

    a, same, slow = (tmp_path / name for name in ("a.json", "same.json", "slow.json"))
    a.write_text(json.dumps(document(1.0)))
    same.write_text(json.dumps(document(1.01)))
    slow.write_text(json.dumps(document(2.0)))
    assert compare.main([str(a), str(same)]) == 0
    assert "0 regressed" in capsys.readouterr().out
    assert compare.main([str(a), str(slow)]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([str(a)]) == 2

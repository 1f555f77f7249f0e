"""Compare two result files of ``benchmarks.e2e.bench`` under its own bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per end-to-end metric x workload: both medians, the ratio B/A (A is
the base), and a verdict under the bound ``BENCHMARK.json`` fixes for the
metric.  The raw times every run reports beside them (``wall_s``,
``master_cpu_us_per_position``, ``cpu_s_total``) get a row each too, under
``TIMES_BOUND``:

* ``ok`` -- B is no worse than A by more than the bound;
* ``regressed`` -- it is;
* ``unresolved`` -- the run-to-run spread of either side (distance between
  the quartiles of its timed repeats, as a share of their median) is wider
  than the bound, so the two medians cannot be told apart -- unless every
  repeat of B reads better than every repeat of A, which is ``ok``.

``failed_fraction`` and ``price_mismatches`` have a bound of zero: any rise
is ``regressed``.  Exit code 1 when any row is ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent.parent

#: reported beside the metrics; must never rise
ZERO_BOUND_KEYS = ("failed_fraction", "price_mismatches")

#: bound of the raw times, which ``BENCHMARK.json`` does not declare: they
#: follow the box's speed, so only a large worsening can be told from drift
TIMES_BOUND = 0.25


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 samples)."""
    if len(samples) < 2:
        return 0.0
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(samples))


def verdict(base: dict[str, Any], other: dict[str, Any], bound: float, better: str) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = base.get("samples", [base["value"]]), other.get("samples", [other["value"]])
    if max(spread(a), spread(b)) > bound:
        all_better = max(sign * x for x in b) < min(sign * x for x in a)
        return "ok" if all_better else "unresolved"
    worse_by = sign * (other["value"] - base["value"]) / abs(base["value"])
    return "regressed" if worse_by > bound else "ok"


def compare(base: dict[str, Any], other: dict[str, Any],
            contract: dict[str, Any]) -> list[dict[str, Any]]:
    """Rows for every workload present in both documents."""
    rows = []
    for name, a in base["workloads"].items():
        b = other["workloads"].get(name)
        if b is None:
            continue
        sections = [("times", {"name": key, "unit": entry["unit"], "better": "lower",
                               "bound": TIMES_BOUND}) for key, entry in a.get("times", {}).items()]
        sections += [("metrics", metric) for metric in contract["end_to_end"]]
        for section, metric in sections:
            key = metric["name"]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "a": a[section][key]["value"], "b": b[section][key]["value"],
                "bound": metric["bound"],
                "status": verdict(a[section][key], b[section][key],
                                  metric["bound"], metric["better"]),
            })
        for key in ZERO_BOUND_KEYS:
            rows.append({
                "workload": name, "metric": key, "unit": "", "a": a[key], "b": b[key],
                "bound": 0.0, "status": "regressed" if b[key] > a[key] else "ok",
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, other = (json.loads(Path(path).read_text()) for path in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, other, contract)
    print(f"{'workload':<16} {'metric':<27} {'A':>12} {'B':>12} {'B/A':>8}  "
          f"{'bound':>5}  verdict   (base: A = {argv[0]})")
    for row in rows:
        ratio = f"{row['b'] / row['a']:8.3f}" if row["a"] else f"{'-':>8}"
        print(f"{row['workload']:<16} {row['metric']:<27} {row['a']:>12.6g} {row['b']:>12.6g} "
              f"{ratio}  {row['bound']:>5.2f}  {row['status']}")
    counts = {status: sum(row["status"] == status for row in rows)
              for status in ("ok", "regressed", "unresolved")}
    print(", ".join(f"{count} {status}" for status, count in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end, wall-clock, layer-attributed benchmark of the pricing pipeline.

One command runs the named workloads on real backends, prints every metric
by name with its unit, checks the prices and writes one JSON result::

    PYTHONPATH=src python -m benchmarks.e2e.bench [--seed N] [--workload NAME]
                                                  [--trace] [--smoke]

(``python3 benchmarks/e2e/bench.py ...`` works too and needs no PYTHONPATH.)

Without ``--workload`` the whole suite runs and ``--trace`` *adds* the traced
run to each workload.  With ``--workload`` one run is made -- untraced, or
the traced one with ``--trace 1`` -- and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; this is
the form ``BENCHMARK.json``'s command is driven in.

Every workload runs in its own fresh subprocess (clean ``ru_maxrss``, no
warm state leaking between workloads); when it exits the parent checks that
it left no process and no shared-memory segment behind.  The metric
dictionary, the load-shape rules and how to read a trace are in README.md.
"""

from __future__ import annotations

import os

# pinned before numpy is imported and inherited by every worker: unpinned, BLAS
# threads fight the worker processes for the two cores and the benchmark
# measures the OS scheduler instead of the program
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

RESULTS_DIR = HERE / "results"
#: a workload subprocess that runs longer than this is killed (contract: 180 s)
CHILD_TIMEOUT_S = 170.0
MIN_CORES = 2


def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int, smoke: bool) -> dict[str, Any]:
    import numpy
    import scipy

    from benchmarks.e2e.workloads import N_WORKERS

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # the driver's checkout is not a git repository
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": sha,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "n_workers": N_WORKERS,
        "seed": seed,
        "profile": "smoke" if smoke else "full",
    }


# -- the child: one workload, one run, in this process --------------------------------


def child_main(args: argparse.Namespace) -> int:
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        from benchmarks.e2e.layers import run_traced

        record = run_traced(workload, args.seed, args.smoke,
                            RESULTS_DIR / f"trace_{workload.name}.json")
    else:
        from benchmarks.e2e.harness import run_end_to_end

        record = run_end_to_end(workload, args.seed, args.seconds, args.smoke)
    print(json.dumps(record))
    return 0


# -- the parent: subprocess per workload, hygiene, printing ---------------------------


def _session_survivors(session_id: int) -> list[int]:
    """Pids still alive in the child's session (it led its own)."""
    survivors = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            fields = Path(stat).read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were looking
        if int(fields[3]) == session_id and fields[0] != "Z":
            survivors.append(int(stat.split("/")[2]))
    return survivors


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict[str, Any]:
    """Run one workload in a fresh subprocess and check what it left behind."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    # a fixed hash seed takes str-hash randomisation out of the run-to-run spread
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                             env={**os.environ, "PYTHONHASHSEED": "0"},
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S:.0f} s")
    finally:
        time.sleep(0.05)  # daemonic workers die with the child, not before it
        leaked = _session_survivors(child.pid)
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        segments = glob.glob(f"/dev/shm/rshm{child.pid}[a-z]*")
        for segment in segments:
            os.unlink(segment)
    if child.returncode != 0:
        raise SystemExit(f"{name}: workload subprocess exited with code {child.returncode}")
    record = json.loads(stdout.strip().splitlines()[-1])
    record["hygiene"] = {"leaked_processes": len(leaked), "leaked_shm_segments": len(segments)}
    record["correct"] = bool(record["correct"]) and not leaked and not segments
    return record


def attach_units(record: dict[str, Any], declared: list[dict[str, Any]]) -> dict[str, Any]:
    """``{name: {"value", "unit"}}`` for exactly the metrics ``BENCHMARK.json`` declares."""
    measured = record["metrics"]
    names = [metric["name"] for metric in declared]
    if set(names) != set(measured):
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: missing "
            f"{sorted(set(names) - set(measured))}, undeclared {sorted(set(measured) - set(names))}"
        )
    out = {}
    for metric in declared:
        value = measured[metric["name"]]
        value = value["value"] if isinstance(value, dict) else value
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def print_metrics(workload: str, metrics: dict[str, Any]) -> None:
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        line = f"  {workload:<16} {name:<{width}} = {metric['value']:.6g} {metric['unit']}"
        if metric.get("n", 1) > 1:
            line += f"   (min {metric['min']:.6g}, max {metric['max']:.6g}, n={metric['n']})"
        print(line)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # names and reasons come from the contract: the parent of a workload
    # subprocess never imports numpy or the program
    contract = load_contract()
    reasons = {workload["name"]: workload["why"] for workload in contract["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(reasons), default=None,
                        help="run one workload and end with the one-line JSON result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-repeat budget per workload (default: run_seconds "
                             "of BENCHMARK.json; 0 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics and trace_<workload>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size, one repeat")
    parser.add_argument("--out", type=Path, default=None,
                        help="suite result file (default: results/e2e_<profile>.json)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(contract["run_seconds"])
    if args.child:
        return child_main(args)
    if len(os.sched_getaffinity(0)) < MIN_CORES:
        print(f"refusing to run: wall-clock workloads with {contract['command']} need "
              f">= {MIN_CORES} cores", file=sys.stderr)
        return 2

    if args.workload is not None:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.smoke)
        declared = contract["per_layer" if args.trace else "end_to_end"]
        metrics = attach_units(record, declared)
        print_metrics(args.workload,
                      metrics if args.trace else {**record["times"], **record["metrics"]})
        print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": metrics}))
        return 0 if record["correct"] else 1

    document: dict[str, Any] = {
        "benchmark": "e2e",
        "environment": environment(args.seed, args.smoke),
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for name, why in reasons.items():
        print(f"{name}: {why}")
        record = run_workload(name, args.seed, args.seconds, False, args.smoke)
        record["end_to_end"] = attach_units(record, contract["end_to_end"])
        print_metrics(name, {**record["times"], **record["metrics"]})
        for key in ("failed_fraction", "price_mismatches"):
            print(f"  {name:<16} {key} = {record[key]}")
        if args.trace:
            traced = run_workload(name, args.seed, args.seconds, True, args.smoke)
            record["per_layer"] = attach_units(traced, contract["per_layer"])
            record["traced"] = {key: traced[key] for key in
                                ("correct", "mismatched_runs", "spans", "trace_file", "hygiene")}
            record["correct"] = record["correct"] and traced["correct"]
            print_metrics(name, record["per_layer"])
        document["workloads"][name] = record
    out = args.out or RESULTS_DIR / f"e2e_{document['environment']['profile']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {out}")
    bad = [name for name, record in document["workloads"].items() if not record["correct"]]
    if bad:
        print(f"FAIL: incorrect prices, failed positions or leaks on {bad}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

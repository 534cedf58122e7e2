"""Steadiness evidence: repeat the benchmark with different seeds.

Runs ``perfbench/run.py`` ``--runs`` times per workload (seeds 1..N by
default), one run at a time, and reports for every end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread -- the interquartile distance as a share of the median --
next to the metric's bound from ``BENCHMARK.json``.  Before each run it
times a fixed pure-Python loop (``host_probe_s``), so drift in the
host's own speed shows beside the metrics it moves::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.common import quartile_spread  # noqa: E402


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now."""
    started = time.perf_counter()
    total = 0
    for i in range(5_000_000):
        total += i * i
    return time.perf_counter() - started


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = time.perf_counter() - started
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        # re-running some workloads keeps the others' evidence
        with open(args.out, encoding="utf-8") as handle:
            report = json.load(handle)
    report.update(
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}",
        runs=args.runs,
        seconds=args.seconds,
    )
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        walls, probes, failed = [], [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            probes.append(host_probe())
            result = run_once(workload, seed, args.seconds)
            failed += result["failed"] + (0 if result["correct"] else 1)
            walls.append(result["run_wall_s"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: host_probe_s={probes[-1]:.3f}, "
                  + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
                  flush=True)
        summary = {}
        for name, series in values.items():
            stats = quartile_spread(series)
            stats["bound"] = bounds[name]
            stats["within_third_of_bound"] = stats["spread"] < bounds[name] / 3
            stats["values"] = series
            summary[name] = stats
            print(f"  {name}: median {stats['median']:.5g} spread {stats['spread']:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        report["workloads"][workload] = {
            "finished": time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime()),
            "failed": failed,
            "max_run_wall_s": max(walls),
            "host_probe_s": quartile_spread(probes) | {"values": probes},
            "metrics": summary,
        }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

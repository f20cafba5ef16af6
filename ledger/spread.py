"""Run workloads untraced over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 ledger/spread.py                      # every workload, seeds 1-5
    python3 ledger/spread.py --workloads scan --seeds 1-10

For every workload and every metric of its result lines it prints the
median of the runs with its unit, and the interquartile distance as a
share of the median (quartiles as ``statistics.quantiles(values, n=4)``
places them) next to the bound ``BENCHMARK.json`` gives the metric.
Each run is untraced and measures ``run_seconds`` of ``BENCHMARK.json``.
Runs are sequential; the exit code is 1 if any run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import relative_spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def sweep(workload: str, seeds, seconds: int, bounds: dict) -> int:
    """Run ``workload`` once per seed and print its table; return the
    number of failed runs."""
    values: dict = {}
    units: dict = {}
    failed_runs = 0
    for seed in seeds:
        done = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            failed_runs += 1
            print(f"{workload} seed {seed}: failed run (exit {done.returncode})", file=sys.stderr)
            if len(lines) > 1:
                print(lines[-2], file=sys.stderr)
        metrics = result.get("metrics", {})
        for name, entry in metrics.items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
        print(
            f"{workload} seed {seed}: "
            + " ".join(f"{name}={entry['value']:.4g}" for name, entry in metrics.items()),
            flush=True,
        )
    print(f"{workload:<22} {'median':>12} {'unit':<6} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        bound = bounds.get(name)
        print(
            f"{name:<22} {statistics.median(series):>12.5g} {units[name]:<6} "
            f"{relative_spread(series):>8.3f} {'' if bound is None else bound:>6}"
        )
    return failed_runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="scan,served_mix,write_mix")
    parser.add_argument("--seeds", default="1-5")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    seconds = config["run_seconds"]
    bounds = {entry["name"]: entry.get("bound") for entry in config["end_to_end"]}
    failed_runs = 0
    for workload in args.workloads.split(","):
        failed_runs += sweep(workload, parse_seeds(args.seeds), seconds, bounds)
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

The spread is (Q3 - Q1) / median over the runs, the figure the bounds
in ``BENCHMARK.json`` are judged against.  Run from the repository
root::

    python3 perfbench/steadiness.py --workload served_mix --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchstats import quartile_spread  # noqa: E402


def _seeds(text: str):
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5",
                        help="range 'a-b' or comma list (default 1-5)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {metric["name"]: metric.get("bound")
              for metric in spec["end_to_end"]}

    values = {}
    for seed in _seeds(args.seeds):
        command = [*spec["command"], "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                              text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
        print(f"{name:32} {statistics.median(series):14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
        print("    " + " ".join(f"{value:.6g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())

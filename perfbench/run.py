#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload served_mix --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` additionally records layer spans and reports the per-layer
metrics instead.  Human-readable lines (including the metric names of
the design, with sample counts) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only for a correct run.  See
``perfbench/DESIGN.md`` for what each workload loads and why.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search_sweep", "served_mix")
#: Hard stop for a hung run (the benchmark must end within 180 s).
DEADLINE_S = 170


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds(modules, src: Path, repeats: int) -> float:
    """Median time a fresh interpreter takes to import ``modules``."""
    import statistics
    import subprocess

    code = ("import importlib, sys, time\n"
            "start = time.perf_counter()\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "print(time.perf_counter() - start)\n")
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code, *modules], capture_output=True,
            text=True, timeout=60, check=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _on_deadline(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)

    from benchstats import error_rate
    from common import (END_TO_END, IMPORT_REPEATS, PER_LAYER, Context,
                        peak_rss_mb, workdir_for)
    from procs import Children, end_stragglers
    from spans import Tracer

    workload = importlib.import_module(args.workload)
    import_s = _import_seconds(workload.MODULES, src, IMPORT_REPEATS)
    for module in workload.MODULES:
        importlib.import_module(module)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    children = Children()
    workdir = workdir_for(ROOT)
    ctx = Context(root=ROOT, workdir=workdir, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  import_s=import_s, tracer=tracer, children=children)
    try:
        outcome = workload.run(ctx)
    finally:
        children.stop_all()
        stragglers = end_stragglers()
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    if stragglers:
        outcome.problems.append(
            f"child processes outlived the run: {stragglers}")

    if args.trace:
        tracer.write(str(ROOT / ".perfbench" /
                         f"spans-{args.workload}-seed{args.seed}.jsonl"))
        catalogue, values = PER_LAYER, outcome.per_layer
    else:
        outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
        catalogue, values = END_TO_END, outcome.end_to_end
    missing = [name for name, _ in catalogue if name not in values]
    if args.trace:
        # A layer this workload bypasses did no work.
        values.update({name: 0.0 for name in missing})
    elif missing:
        outcome.problems.append(f"end-to-end metrics not measured: {missing}")

    for line in outcome.notes:
        print(line)
    if outcome.attempted:
        rate = error_rate(outcome.failed, outcome.attempted)
        print(f"error_rate = {rate:.6f} "
              f"({outcome.failed} of {outcome.attempted} ops)")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    correct = (not outcome.problems and outcome.failed == 0
               and outcome.attempted > 0)
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in catalogue},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

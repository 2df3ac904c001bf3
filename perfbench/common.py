"""Shared pieces of the benchmark: metric catalogue, run context, results.

Every workload prints the same metric names (``BENCHMARK.json`` asks
for every end-to-end metric from every untraced run and every per-layer
metric from every traced run); what an "op" is differs per workload and is
recorded in ``DESIGN.md``.  A layer a workload bypasses reads 0.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from benchstats import attribution_gap, percentile, ratio, self_times
from spans import GLUE_SPANS, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from procs import Children

#: End-to-end metrics: (name, unit).  Reported by untraced runs.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("throughput_per_s", "1/s"),
    ("pred_error_pct", "%"),
    ("best_iter_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (name, unit).  Reported by traced runs.
PER_LAYER = (
    ("emulate.busy_s", "s"),
    ("emulate.trace_events", "count"),
    ("collate.busy_s", "s"),
    ("collate.dedup_ratio", "ratio"),
    ("lower.busy_s", "s"),
    ("estimate.busy_s", "s"),
    ("annotate.busy_s", "s"),
    ("replay.busy_s", "s"),
    ("replay.events", "count"),
    ("replay.events_per_s", "1/s"),
    ("replay.folded_share", "ratio"),
    ("pipeline.unattributed_s", "s"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.bytes", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("cache.prediction_hits", "count"),
    ("cache.memory_hits", "count"),
    ("cache.store_hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("backend.evaluate_s", "s"),
    ("backend.idle_share", "ratio"),
    ("backend.ship_bytes", "bytes"),
    ("backend.resyncs", "count"),
    ("backend.fallbacks", "count"),
    ("search.ask_tell_s", "s"),
    ("search.executed", "count"),
    ("search.pruned", "count"),
    ("search.cached", "count"),
    ("search.invalid", "count"),
    ("search.useful_ratio", "ratio"),
    ("server.rtt_s", "s"),
    ("server.overhead_s", "s"),
    ("server.batches", "count"),
    ("server.jobs_per_batch", "count"),
    ("server.coalesced_jobs", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.attribution_gap_share", "ratio"),
)

#: Compute layers measured by in-process spans.
COMPUTE_LAYERS = ("emulate", "collate", "lower", "estimate", "annotate",
                  "replay")

#: Largest accepted |(sum of the compute layers' busy_s +
#: pipeline.unattributed_s) - trial wall| / trial wall over the traced
#: trials.
ATTRIBUTION_TOLERANCE = 0.02

#: Setups measured per run, unless a workload's setup is long;
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fresh-interpreter imports timed per run; their median is part of
#: ``setup_s``.
IMPORT_REPEATS = 9

#: The search both registered workloads run: Maya-Search with CMA over
#: ``default_search_space`` for gpt-small on v100-8 with the analytical
#: estimator, a fixed budget and concurrency.
CLUSTER = "v100-8"
MODEL = "gpt-small"
GLOBAL_BATCH = 64
ESTIMATOR = "analytical"
BUDGET = 40
CONCURRENCY = 8
#: The run's seed widens the model vocabulary by this many tokens per
#: step: every seed predicts fresh (never cached) jobs, and the searches
#: take the same trajectory through recipes of the same cost.
VOCAB_STEP = 8
VOCAB_STEPS = 16


@dataclass
class Context:
    """What a workload needs to run: inputs, budget and shared services."""

    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool
    import_s: float
    tracer: Optional[Tracer]
    children: "Children"


@dataclass
class Outcome:
    """What a workload measured and how many of its ops went wrong."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Human-readable lines printed above the result line.
    notes: List[str] = field(default_factory=list)
    #: Failed self-checks (not ops): any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def timings(self, ops: Sequence[float], rate: float, label: str,
                rate_label: str, where: str) -> None:
        """Record p50/p90 of op latencies and a rate, and print them with
        their sample counts."""
        p50, count, _ = percentile(ops, 50)
        p90, _, beyond = percentile(ops, 90)
        self.end_to_end["latency_p50_s"] = p50
        self.end_to_end["latency_p90_s"] = p90
        self.end_to_end["throughput_per_s"] = rate
        self.note(f"{label}_p50_s = {p50:.6f} s ({where}, n={count})")
        self.note(f"{label}_p90_s = {p90:.6f} s ({where}, n={count}, "
                  f"{beyond} samples beyond)")
        self.note(f"{rate_label} = {rate:.4f} 1/s")


def setup_seconds(import_s: float, samples: Sequence[float]) -> float:
    """Import time (the median of fresh-interpreter imports) plus the
    median of the repeated setups."""
    return import_s + statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def seeded_model(seed: int):
    """The workloads' model, its vocabulary widened by the run's seed."""
    from repro.workloads import get_transformer

    base = get_transformer(MODEL)
    return dataclasses.replace(
        base, vocab_size=base.vocab_size + VOCAB_STEP * (seed % VOCAB_STEPS))


def run_search(service, model, cluster, seed: int, space=None):
    """One Maya-Search (CMA) of ``model`` evaluated through ``service``."""
    from repro.search import MayaSearch, MayaTrialEvaluator

    evaluator = MayaTrialEvaluator(model, cluster, GLOBAL_BATCH,
                                   service=service)
    return MayaSearch(
        evaluator, algorithm="cma", space=space,
        world_size=cluster.world_size, global_batch_size=GLOBAL_BATCH,
        num_layers=model.num_layers, num_heads=model.num_heads,
        gpus_per_node=cluster.gpus_per_node, seed=seed,
        concurrency=CONCURRENCY).run(budget=BUDGET)


def compute_layer_metrics(tracer: Tracer,
                          op_walls: Dict[object, float]) -> Dict[str, float]:
    """Per-trial compute-layer metrics from traced ops of one trial each.

    ``op_walls`` maps each traced op to the wall time the workload
    measured around it, independently of the spans.  The attribution gap
    compares what the reported metrics account for with those walls.
    """
    spans = [span for span in tracer.spans if span[5] in op_walls]
    selfs = self_times(spans)
    trials = max(len(op_walls), 1)
    metrics = {f"{layer}.busy_s": selfs.get(layer, 0.0) / trials
               for layer in COMPUTE_LAYERS}
    metrics["pipeline.unattributed_s"] = sum(
        selfs.get(name, 0.0) for name in GLUE_SPANS) / trials
    counters: Dict[str, float] = {}
    for op in op_walls:
        for name, value in tracer.counters.get(op, {}).items():
            counters[name] = counters.get(name, 0.0) + value
    metrics["emulate.trace_events"] = (
        counters.get("emulate.trace_events", 0.0) / trials)
    metrics["collate.dedup_ratio"] = ratio(
        counters.get("collate.traces_out", 0.0),
        counters.get("collate.traces_in", 0.0))
    events = counters.get("replay.events", 0.0)
    metrics["replay.events"] = events / trials
    metrics["replay.events_per_s"] = ratio(events, selfs.get("replay", 0.0))
    metrics["replay.folded_share"] = ratio(
        counters.get("replay.folded_iterations", 0.0),
        counters.get("replay.iterations", 0.0))
    attributed = (sum(metrics[f"{layer}.busy_s"] for layer in COMPUTE_LAYERS)
                  + metrics["pipeline.unattributed_s"])
    metrics["trace.attribution_gap_share"] = (attribution_gap(
        attributed * trials, sum(op_walls.values())) if op_walls else 0.0)
    return metrics


def traced_trials(tracer: Tracer, outcome: "Outcome", cluster, jobs,
                  matches: Callable[[object, object], bool]
                  ) -> Dict[str, float]:
    """Compute-layer metrics from ``jobs`` predicted cold in this process.

    Each job is predicted twice, each time through a fresh serial
    ``PredictionService``: untraced, then traced inside an op timed from
    outside.  The two predictions must be equal, and
    ``matches(job, result)`` must accept them.  Adds
    ``trace.overhead_share``, the traced over the untraced wall minus 1.
    """
    from repro.service import PredictionService

    def predict(job):
        with PredictionService(cluster=cluster, estimator_mode=ESTIMATOR,
                               backend="serial") as service:
            return service.predict(job)

    walls, untraced_s = {}, 0.0
    for index, job in enumerate(jobs):
        outcome.attempted += 1
        start = time.perf_counter()
        plain = predict(job)
        untraced_s += time.perf_counter() - start
        op = ("trial", index)
        tracer.active = True
        try:
            start = time.perf_counter()
            with tracer.op(op):
                traced = predict(job)
            walls[op] = time.perf_counter() - start
        finally:
            tracer.active = False
        if (prediction_key(plain) != prediction_key(traced)
                or not matches(job, plain)):
            outcome.failed += 1
            outcome.note(f"in-process {job.recipe.short_name()} differs "
                         f"from the workload's or the traced prediction")
    metrics = compute_layer_metrics(tracer, walls)
    metrics["trace.overhead_share"] = sum(walls.values()) / untraced_s - 1.0
    return metrics


def cache_layer_metrics(stats: Dict[str, float]) -> Dict[str, float]:
    """Per-layer cache metrics from a ``cache_stats()`` dictionary."""
    return {
        "cache.prediction_hits": stats.get("prediction_hits", 0),
        "cache.memory_hits": stats.get("memory_hits", 0),
        "cache.store_hits": stats.get("store_hits", 0),
        "cache.misses": stats.get("artifact_misses", 0),
        "cache.hit_ratio": ratio(stats.get("hits", 0),
                                 stats.get("lookups", 0)),
    }


def check_attribution(outcome: Outcome, tracer: Tracer) -> None:
    """Fail the run if the layer metrics miss the trial wall time."""
    gap = outcome.per_layer.get("trace.attribution_gap_share", 0.0)
    outcome.note(f"span attribution gap = {gap:.5f} (tolerance "
                 f"{ATTRIBUTION_TOLERANCE}; {tracer.strays} spans recorded "
                 f"off their op's thread)")
    if gap > ATTRIBUTION_TOLERANCE:
        outcome.problems.append(
            f"layer self times miss the trial wall time by {gap:.2%} "
            f"(> {ATTRIBUTION_TOLERANCE:.0%})")


def prediction_key(result) -> tuple:
    """Every predicted quantity of a result, for exact comparison."""
    return (result.iteration_time, result.total_time,
            result.communication_time, result.peak_memory_bytes, result.oom)


def pct_error(predicted: float, measured: float) -> float:
    return abs(predicted - measured) / measured * 100.0


def workdir_for(root: Path) -> Path:
    path = root / ".perfbench" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path

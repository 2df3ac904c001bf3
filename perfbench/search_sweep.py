"""search_sweep: one Maya-Search run on a two-worker persistent pool.

CMA over ``default_search_space`` for gpt-small on v100-8 (global batch
64, analytical estimator) with a fixed budget and search seed.  A trial
costs milliseconds in the engine, so the search runner, pruning, the
prediction-cache dedup and the pool's dispatch, shipping and merge set
the wall time.  An op is one whole search on a fresh pool; building
and warming the service is setup (the pool forks its workers on the
first batch, inside the search).  Every search must match a
serial-backend run of the same search (best recipe, cache accounting
and trial statuses).
"""

from __future__ import annotations

import multiprocessing.connection
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

from benchstats import idle_share, ratio
from common import (
    BUDGET,
    CLUSTER,
    ESTIMATOR,
    GLOBAL_BATCH,
    SETUP_REPEATS,
    Context,
    Outcome,
    cache_layer_metrics,
    check_attribution,
    pct_error,
    run_search,
    seeded_model,
    setup_seconds,
    traced_trials,
)

MODULES = (
    "repro.hardware",
    "repro.search",
    "repro.service",
    "repro.testbed",
    "repro.workloads",
)

SEARCH_SEED = 0
WORKERS = 2
#: A run makes one search per this many seconds of its measuring time (a
#: search takes about that long on the 2-vCPU reference host), so every
#: run of a given length measures the same number of searches.
SEARCH_S = 1.6
#: Best recipes checked against the testbed for ``pred_error_pct``.
TOP_K = 5


@dataclass
class _PoolTotals:
    """Pool-side counters summed over the traced searches."""

    ship_bytes: int = 0
    worker_busy_s: float = 0.0
    resyncs: int = 0
    fallbacks: int = 0
    #: The last traced search (its statuses and cache accounting are the
    #: same for every search of a run).
    result: object = None


@contextmanager
def counting_sent_bytes(totals: _PoolTotals):
    """Count bytes this process writes to pool pipes while active."""
    connection = multiprocessing.connection.Connection
    original = connection._send_bytes

    def _send_bytes(self, buf):
        totals.ship_bytes += len(buf)
        return original(self, buf)

    connection._send_bytes = _send_bytes
    try:
        yield
    finally:
        connection._send_bytes = original


def _signature(result):
    best = result.best
    return ((best.recipe.signature(), best.iteration_time) if best else None,
            dict(result.cache_stats), dict(result.status_counts))


def run(ctx: Context) -> Outcome:
    from repro.hardware import get_cluster
    from repro.service import PredictionService
    from repro.testbed import Testbed
    from repro.workloads import TransformerTrainingJob

    outcome = Outcome()
    tracer = ctx.tracer
    cluster = get_cluster(CLUSTER)
    model = seeded_model(ctx.seed)

    def make_service(backend):
        start = time.perf_counter()
        service = PredictionService(
            cluster=cluster, estimator_mode=ESTIMATOR, backend=backend,
            max_workers=WORKERS if backend == "persistent" else 1)
        service.warm()
        return service, time.perf_counter() - start

    def search(service):
        """Run the search; return (result, wall seconds)."""
        start = time.perf_counter()
        result = run_search(service, model, cluster, SEARCH_SEED)
        return result, time.perf_counter() - start

    # The serial reference run of the same search, outside timed regions.
    service, _ = make_service("serial")
    with service:
        reference, _ = search(service)
    expected = _signature(reference)

    setups, latencies = [], []
    walls = {}
    totals = _PoolTotals()
    searches = max(SETUP_REPEATS, round(ctx.seconds / SEARCH_S))
    for _ in range(searches):
        service, setup = make_service("persistent")
        setups.append(setup)
        outcome.attempted += 1
        if not ctx.trace:
            with service:
                result, elapsed = search(service)
            latencies.append(elapsed)
            if _signature(result) != expected:
                outcome.failed += 1
                outcome.note("persistent search differs from the serial run")
            continue

        op = ("search", len(walls))
        with service, counting_sent_bytes(totals):
            tracer.active = True
            try:
                start = time.perf_counter()
                with tracer.op(op):
                    traced, _ = search(service)
                walls[op] = time.perf_counter() - start
            finally:
                tracer.active = False
            sync = dict(service.backend_impl.sync_stats)
            resilience = service.resilience_stats()
        totals.worker_busy_s += sum(sum(trial.stage_times.values())
                                    for trial in traced.history)
        totals.resyncs += sync.get("full_syncs", 0)
        totals.fallbacks += resilience.get("parent_evaluations", 0)
        totals.result = traced
        if _signature(traced) != expected:
            outcome.failed += 1
            outcome.note("traced search differs from the serial run")

    outcome.end_to_end["setup_s"] = setup_seconds(ctx.import_s, setups)
    if ctx.trace:
        outcome.per_layer.update(_layer_metrics(
            ctx, outcome, cluster, model, reference, walls, totals))
        check_attribution(outcome, tracer)
        return outcome

    # Every search of the run counts; throughput is proposals searched
    # per second of search time.
    outcome.timings(latencies, BUDGET * len(latencies) / sum(latencies),
                    "search", "proposals_per_s", "every search of the run")
    outcome.note(f"search_s = {outcome.end_to_end['latency_p50_s']:.6f} s")
    best = reference.best
    outcome.end_to_end["best_iter_s"] = best.iteration_time
    outcome.note(f"best_iter_s = {best.iteration_time:.9f} s "
                 f"({best.recipe.short_name()})")
    # Fidelity of the best recipes against the testbed, untimed.
    testbed = Testbed(cluster)
    top = reference.top(TOP_K)
    errors = [pct_error(trial.iteration_time, testbed.measure(
        TransformerTrainingJob(model, trial.recipe, cluster,
                               global_batch_size=GLOBAL_BATCH)).iteration_time)
              for trial in top]
    outcome.end_to_end["pred_error_pct"] = statistics.fmean(errors)
    outcome.note(f"pred_error_pct = {statistics.fmean(errors):.4f} % "
                 f"(mean over the {len(top)} best recipes)")
    return outcome


def _layer_metrics(ctx, outcome, cluster, model, reference, walls, totals):
    from repro.workloads import TransformerTrainingJob

    tracer = ctx.tracer
    search_spans = [span for span in tracer.spans if span[5] in walls]
    searches = max(len(walls), 1)

    def span_total(name):
        return sum(end - start for _, span_name, start, end, _, _
                   in search_spans if span_name == name)

    evaluate_s = span_total("backend.evaluate") / searches
    run_s = span_total("search.run")
    # The runner's own time: search.run minus the batches it evaluated.
    ask_tell_s = (run_s - span_total("search.evaluate_many")) / searches
    status = totals.result.status_counts
    metrics = {
        "backend.evaluate_s": evaluate_s,
        "backend.idle_share": idle_share(totals.worker_busy_s / searches,
                                         WORKERS, evaluate_s),
        "backend.ship_bytes": totals.ship_bytes / searches,
        "backend.resyncs": totals.resyncs / searches,
        "backend.fallbacks": totals.fallbacks / searches,
        "search.ask_tell_s": ask_tell_s,
        "search.executed": status.get("executed", 0),
        "search.pruned": status.get("skipped", 0),
        "search.cached": status.get("cached", 0),
        "search.invalid": status.get("invalid", 0),
        "search.useful_ratio": ratio(status.get("executed", 0),
                                     totals.result.samples_used),
    }
    metrics.update(cache_layer_metrics(totals.result.cache_stats))

    # Compute layers: the trials the search executed, predicted cold in
    # this process (pool workers run the pipeline where spans cannot
    # reach); each must repeat the search's prediction.
    executed = {trial.recipe: trial for trial in reference.history
                if trial.status == "executed"}
    jobs = [TransformerTrainingJob(model, recipe, cluster,
                                   global_batch_size=GLOBAL_BATCH)
            for recipe in executed]

    def matches(job, result):
        trial = executed[job.recipe]
        return ((result.iteration_time, result.oom, result.peak_memory_bytes)
                == (trial.iteration_time, trial.oom, trial.peak_memory_bytes))

    metrics.update(traced_trials(tracer, outcome, cluster, jobs, matches))
    return metrics

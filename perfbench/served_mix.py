"""served_mix: two search clients against a ``repro serve`` process.

The traffic is the request stream Maya-Search itself sends to a server:
each client runs the searches of ``SEARCHES`` through a
``MayaTrialEvaluator`` over a ``PredictionClient``, one ``predict_many``
request per batch of proposals.  Both clients run the same searches and
start each one together, like two tuning jobs sharing one server; a
``compiled=True`` search explores the space of the eager search before
it with ``torch.compile`` on.  The searches, not a guessed mix, decide
what the server sees:

* proposals the server answered before (for the other client or in an
  earlier search) are prediction-cache hits, and the same job asked by
  both clients in one dispatch round is coalesced;
* compiled siblings of earlier jobs hit the artifact cache's memory tier;
* the jobs of the search the setup ran into the store hit its store tier;
* the rest miss and write to the store.

The server runs with the serial backend, a disk store and its default
cache size.  A repetition starts a fresh server on a copy of the store
the setup populated (so the memory tier starts empty) and runs every
search once; the server start is setup.  An op is one request.  Every
served result must equal a local ``PredictionService.predict`` of the
same job.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import threading
import time

from benchstats import ratio
from common import (
    CLUSTER,
    ESTIMATOR,
    GLOBAL_BATCH,
    SETUP_REPEATS,
    Context,
    Outcome,
    cache_layer_metrics,
    check_attribution,
    pct_error,
    prediction_key,
    run_search,
    seeded_model,
    setup_seconds,
    traced_trials,
)

MODULES = (
    "repro.hardware",
    "repro.search",
    "repro.search.space",
    "repro.service",
    "repro.service.server",
    "repro.testbed",
    "repro.workloads",
)

CLIENTS = 2
#: (CMA seed, compiled) of the searches every client runs, in order.
SEARCHES = ((0, False), (0, True), (2, False), (2, True), (4, False),
            (4, True))
#: Seed of the search the setup runs into the store.
POPULATE_SEED = 0
SERVER_START_TIMEOUT_S = 60.0
#: How long a client waits for the other one at the start of a search.
BARRIER_TIMEOUT_S = 60.0
#: A run makes one repetition of the searches per this many seconds of
#: its measuring time (a repetition takes about that long on the 2-vCPU
#: reference host), so every run of a given length measures the same
#: number of repetitions.
REPETITION_S = 5.0
#: Served jobs predicted in-process (traced and untraced) by a traced run.
TRACED_TRIALS = 24


def search_space(compiled: bool):
    from repro.search.space import ConfigurationSpace, default_search_space

    base = default_search_space()
    return ConfigurationSpace(knobs=base.knobs,
                              fixed=dict(base.fixed, compiled=compiled))


def _timed_client(address: str, log: list):
    """A ``PredictionClient`` that records every ``predict_many`` call as
    (jobs, results or the exception raised, seconds)."""
    from repro.service.server import PredictionClient

    class TimedClient(PredictionClient):
        def predict_many(self, jobs):
            jobs = list(jobs)
            start = time.perf_counter()
            try:
                results = super().predict_many(jobs)
            except Exception as exc:
                log.append((jobs, exc, time.perf_counter() - start))
                raise
            log.append((jobs, results, time.perf_counter() - start))
            return results

    return TimedClient(address)


def _start_server(ctx: Context, store_dir, index: int):
    """Spawn ``repro serve``; return (process, address, seconds to listen)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    src = str(ctx.root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    log_path = ctx.workdir / f"server-{index}.log"
    start = time.perf_counter()
    proc = ctx.children.spawn(
        [sys.executable, "-m", "repro", "serve", "--cluster", CLUSTER,
         "--estimator", ESTIMATOR, "--backend", "serial",
         "--store-dir", str(store_dir), "--host", "127.0.0.1", "--port", "0"],
        log_path, env=env, cwd=ctx.root)
    deadline = start + SERVER_START_TIMEOUT_S
    while True:
        text = log_path.read_text(errors="replace")
        for line in text.splitlines():
            if "listening on" in line:
                return (proc, line.strip().rsplit(" ", 1)[-1],
                        time.perf_counter() - start)
        if proc.poll() is not None or time.perf_counter() > deadline:
            raise RuntimeError(f"prediction server did not start: {text!r}")
        time.sleep(0.002)


def _stop_server(ctx: Context, proc, address) -> None:
    from repro.service.server import PredictionClient

    try:
        PredictionClient(address, reconnect_attempts=0).shutdown_server()
    except (ConnectionError, OSError):
        pass
    ctx.children.stop(proc)


def _serve_searches(address, model, cluster):
    """Run ``SEARCHES`` from every client at once.

    Returns (one (requests of all clients, seconds) pair per search,
    search results of client 0, client failures).
    """
    logs = [[] for _ in range(CLIENTS)]
    #: search index -> [(client, first request, end request, start, end)]
    marks = [[] for _ in SEARCHES]
    results, failures = [], []
    barrier = threading.Barrier(CLIENTS)

    def client_loop(client):
        log = logs[client]
        try:
            with _timed_client(address, log) as remote:
                for index, (seed, compiled) in enumerate(SEARCHES):
                    barrier.wait(timeout=BARRIER_TIMEOUT_S)
                    first, start = len(log), time.perf_counter()
                    result = run_search(remote, model, cluster, seed,
                                        search_space(compiled))
                    marks[index].append((client, first, len(log), start,
                                         time.perf_counter()))
                    if client == 0:
                        results.append(result)
        except Exception as exc:  # noqa: BLE001 - reported as a problem
            failures.append(f"client {client}: {exc!r}")
            barrier.abort()

    # Daemon threads: a client blocked on a dead server cannot hold the
    # process open past its deadline.
    threads = [threading.Thread(target=client_loop, args=(client,),
                                name=f"client-{client}", daemon=True)
               for client in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    searches = []
    for search_marks in marks:
        requests = [request
                    for client, first, end, _, _ in sorted(search_marks)
                    for request in logs[client][first:end]]
        seconds = (max(mark[4] for mark in search_marks)
                   - min(mark[3] for mark in search_marks)
                   if search_marks else 0.0)
        searches.append((requests, seconds))
    return searches, results, failures


def run(ctx: Context) -> Outcome:
    from repro.hardware import get_cluster
    from repro.service import PredictionService
    from repro.service.server import PredictionClient
    from repro.testbed import Testbed
    from repro.workloads import TransformerTrainingJob

    outcome = Outcome()
    tracer = ctx.tracer
    cluster = get_cluster(CLUSTER)
    model = seeded_model(ctx.seed)

    def job_for(recipe):
        return TransformerTrainingJob(model, recipe, cluster,
                                      global_batch_size=GLOBAL_BATCH)

    def store_service(store_dir):
        return PredictionService(cluster=cluster, estimator_mode=ESTIMATOR,
                                 backend="serial", store_dir=str(store_dir))

    # Setup: one search into the store (traced runs time its store puts).
    pristine = ctx.workdir / "store"
    if tracer is not None:
        tracer.active = True
    try:
        with store_service(pristine) as populate:
            populated = run_search(populate, model, cluster, POPULATE_SEED)
    finally:
        if tracer is not None:
            tracer.active = False

    # Measured window: repetitions of the same searches, each on a fresh
    # server over a copy of the populated store.
    setups, repetitions, served_searches, stats = [], [], None, None
    for index in range(max(SETUP_REPEATS,
                           round(ctx.seconds / REPETITION_S))):
        store_dir = ctx.workdir / f"store-{index}"
        shutil.copytree(pristine, store_dir)
        proc, address, elapsed = _start_server(ctx, store_dir, index)
        setups.append(elapsed)
        try:
            searches, results, failures = _serve_searches(
                address, model, cluster)
            with PredictionClient(address) as remote:
                stats = remote.stats()
        finally:
            _stop_server(ctx, proc, address)
            shutil.rmtree(store_dir, ignore_errors=True)
        repetitions.append(searches)
        served_searches = served_searches or results
        outcome.problems.extend(failures)
    outcome.end_to_end["setup_s"] = setup_seconds(ctx.import_s, setups)

    # Every served result must equal a local prediction of the same job;
    # the local service caches nothing, so each reference starts cold.
    with PredictionService(cluster=cluster, estimator_mode=ESTIMATOR,
                           backend="serial", enable_cache=False) as local:
        reference = {}

        def reference_of(recipe):
            if recipe not in reference:
                reference[recipe] = prediction_key(
                    local.predict(job_for(recipe)))
            return reference[recipe]

        for jobs, answer, _ in (request for searches in repetitions
                                for requests, _ in searches
                                for request in requests):
            outcome.attempted += 1
            if isinstance(answer, Exception):
                outcome.failed += 1
                outcome.note(f"request of {len(jobs)} jobs failed: "
                             f"{answer!r}")
            elif ([prediction_key(result) for result in answer]
                  != [reference_of(job.recipe) for job in jobs]):
                outcome.failed += 1
                outcome.note(f"a request of {len(jobs)} jobs differs from "
                             f"local predictions")
        if ctx.trace:
            last = [request for requests, _ in repetitions[-1]
                    for request in requests]
            outcome.per_layer.update(_layer_metrics(
                ctx, outcome, cluster, stats, last,
                list(reference), populated, job_for, reference_of,
                store_service, pristine))
            check_attribution(outcome, tracer)
            return outcome

    # Every repetition sends the same requests in the same order.  The
    # host's speed drifts over seconds and interference only slows work
    # down, so, as ``timeit`` does with repeats, each request is measured
    # by its fastest repetition.  Throughput is the whole run's: every
    # request over the summed search walls.
    latencies = [min(request[2] for request in same)
                 for runs in zip(*repetitions)
                 for same in zip(*(requests for requests, _ in runs))]
    served = [(len(requests), wall) for searches in repetitions
              for requests, wall in searches]
    outcome.timings(
        latencies, sum(count for count, _ in served)
        / sum(wall for _, wall in served), "request", "requests_per_s",
        f"fastest of {len(repetitions)} repetitions of each request of "
        f"{len(SEARCHES)} searches")
    # Fidelity of every feasible served recipe against the testbed, untimed.
    predicted = {}
    for result in served_searches:
        for trial in result.history:
            if trial.status == "executed" and trial.feasible:
                predicted[trial.recipe] = trial.iteration_time
    testbed = Testbed(cluster)
    errors = [pct_error(value, testbed.measure(job_for(recipe)).iteration_time)
              for recipe, value in predicted.items()]
    outcome.end_to_end["pred_error_pct"] = statistics.fmean(errors)
    outcome.note(f"pred_error_pct = {statistics.fmean(errors):.4f} % "
                 f"(mean over {len(errors)} feasible served recipes)")
    best = min(predicted.items(), key=lambda item: item[1])
    outcome.end_to_end["best_iter_s"] = best[1]
    outcome.note(f"best_iter_s = {best[1]:.9f} s ({best[0].short_name()})")
    return outcome


def _layer_metrics(ctx, outcome, cluster, stats, requests, served,
                   populated, job_for, reference_of, store_service,
                   pristine):
    tracer = ctx.tracer
    server = stats["server"]
    throughput = stats["throughput"]
    store = stats["store"] or {}
    counters = store.get("counters", {})
    latencies = [seconds for _, _, seconds in requests]
    metrics = {
        "server.rtt_s": statistics.median(latencies),
        "server.overhead_s": statistics.fmean(latencies) - ratio(
            throughput["batch_wall_s"], throughput["batches"]),
        "server.batches": server["batches"],
        "server.jobs_per_batch": ratio(server["jobs"], server["batches"]),
        "server.coalesced_jobs": server["coalesced_jobs"],
        "store.bytes": store.get("total_bytes", 0),
        "store.hit_ratio": ratio(counters.get("hits", 0),
                                 counters.get("gets", 0)),
    }
    metrics.update(cache_layer_metrics(stats["cache"]))

    # Store reads in-process: the populated jobs read back from the
    # store by a fresh service.
    tracer.active = True
    try:
        with store_service(pristine) as reader:
            for trial in populated.history:
                if trial.status != "executed":
                    continue
                outcome.attempted += 1
                if (prediction_key(reader.predict(job_for(trial.recipe)))
                        != reference_of(trial.recipe)):
                    outcome.failed += 1
                    outcome.note(f"store-read {trial.recipe.short_name()} "
                                 f"differs from a local prediction")
    finally:
        tracer.active = False
    for name in ("store.get", "store.put"):
        durations = [end - start for _, span_name, start, end, _, _
                     in tracer.spans if span_name == name]
        metrics[name + "_s"] = (statistics.fmean(durations) if durations
                                else 0.0)

    # Compute layers: served jobs predicted cold in-process.
    metrics.update(traced_trials(
        tracer, outcome, cluster,
        [job_for(recipe) for recipe in served[:TRACED_TRIALS]],
        lambda job, result: prediction_key(result)
        == reference_of(job.recipe)))
    return metrics

"""Self-tests for the benchmark's own arithmetic (no model runs).

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchstats import (  # noqa: E402
    attribution_gap,
    error_rate,
    idle_share,
    percentile,
    quartile_spread,
    self_times,
)
from common import COMPUTE_LAYERS, compute_layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402


class TestPercentile:
    def test_median_of_odd_count_is_middle_sample(self):
        value, samples, beyond = percentile([5.0, 1.0, 3.0], 50)
        assert (value, samples, beyond) == (3.0, 3, 1)

    def test_interpolates_between_samples(self):
        value, samples, _ = percentile([1.0, 2.0, 3.0, 4.0], 50)
        assert value == pytest.approx(2.5)
        assert samples == 4

    def test_p90_counts_samples_beyond(self):
        data = list(range(1, 101))
        value, samples, beyond = percentile(data, 90)
        assert value == pytest.approx(90.1)
        assert samples == 100
        assert beyond == 10

    def test_agrees_with_statistics_median(self):
        data = [0.3, 0.9, 0.1, 0.4, 0.7, 0.2]
        assert percentile(data, 50)[0] == pytest.approx(
            statistics.median(data))

    def test_single_sample(self):
        assert percentile([2.0], 90) == (2.0, 1, 0)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


def test_quartile_spread_matches_definition():
    data = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(data, n=4)
    assert quartile_spread(data) == pytest.approx(
        (q3 - q1) / statistics.median(data))
    assert quartile_spread([3.0, 3.0, 3.0]) == 0.0


class TestSelfTime:
    # (id, name, start, end, parent, op)
    SPANS = [
        (0, "op", 0.0, 10.0, None, "a"),
        (1, "pipeline", 1.0, 9.0, 0, "a"),
        (2, "replay", 2.0, 6.0, 1, "a"),
        (3, "annotate", 2.5, 3.5, 2, "a"),
        (4, "estimate", 6.5, 7.0, 1, "a"),
        (5, "estimate", 7.0, 8.0, 1, "a"),
    ]

    def test_self_time_subtracts_direct_children(self):
        selfs = self_times(self.SPANS)
        assert selfs["op"] == pytest.approx(2.0)
        assert selfs["pipeline"] == pytest.approx(8.0 - 4.0 - 0.5 - 1.0)
        assert selfs["replay"] == pytest.approx(3.0)
        assert selfs["annotate"] == pytest.approx(1.0)
        assert selfs["estimate"] == pytest.approx(1.5)

    def test_gap_is_zero_when_self_times_cover_the_wall(self):
        selfs = self_times(self.SPANS)
        assert attribution_gap(sum(selfs.values()), 10.0) == pytest.approx(0)

    def test_escaped_span_shows_as_gap(self):
        # A span counted under the op but outside its root adds time.
        spans = self.SPANS + [(6, "collate", 11.0, 12.0, None, "a")]
        selfs = self_times(spans)
        assert attribution_gap(sum(selfs.values()), 10.0) == pytest.approx(
            0.1)

    def test_tracer_records_nested_calls(self):
        tracer = Tracer()
        tracer.active = True

        def leaf():
            time.sleep(0.002)

        def middle():
            tracer.call("leaf", None, leaf, (), {})
            tracer.call("leaf", None, leaf, (), {})

        start = time.perf_counter()
        with tracer.op(7):
            tracer.call("middle", None, middle, (), {})
        wall = time.perf_counter() - start
        names = sorted(span[1] for span in tracer.spans)
        assert names == ["leaf", "leaf", "middle", "op"]
        assert all(span[5] == 7 for span in tracer.spans)
        parents = {span[0]: span[4] for span in tracer.spans}
        by_name = {span[1]: span[0] for span in tracer.spans}
        assert parents[by_name["middle"]] == by_name["op"]
        selfs = self_times(tracer.spans)
        assert selfs["leaf"] >= 0.004
        assert attribution_gap(sum(selfs.values()), wall) < 0.05

    def test_reported_layers_account_for_the_trial_wall(self):
        tracer = Tracer()
        tracer.active = True

        def replay():
            time.sleep(0.004)

        def pipeline():
            tracer.call("replay", None, replay, (), {})

        start = time.perf_counter()
        with tracer.op("t"):
            tracer.call("pipeline", None, pipeline, (), {})
        metrics = compute_layer_metrics(
            tracer, {"t": time.perf_counter() - start})
        assert metrics["replay.busy_s"] >= 0.004
        assert metrics["trace.attribution_gap_share"] < 0.05

    def test_span_of_an_unreported_layer_shows_as_gap(self):
        # Time in a span no reported metric covers is missing from the
        # layer metrics, so they no longer add up to the wall.
        tracer = Tracer()
        tracer.active = True
        start = time.perf_counter()
        with tracer.op("t"):
            tracer.call("store.get", None, time.sleep, (0.02,), {})
        metrics = compute_layer_metrics(
            tracer, {"t": time.perf_counter() - start})
        assert metrics["trace.attribution_gap_share"] > 0.5

    def test_span_on_another_thread_shows_as_gap(self):
        # A layer call made off the op's thread while the op is open is
        # recorded against that op (not dropped), so the layer metrics
        # exceed the op's wall time.
        tracer = Tracer()
        tracer.active = True

        def replay():
            time.sleep(0.02)

        def off_thread():
            tracer.call("replay", None, replay, (), {})

        start = time.perf_counter()
        with tracer.op("t"):
            worker = threading.Thread(target=off_thread)
            worker.start()
            worker.join()
        wall = time.perf_counter() - start
        assert tracer.strays == 1
        assert all(span[5] == "t" for span in tracer.spans)
        metrics = compute_layer_metrics(tracer, {"t": wall})
        assert sum(metrics[f"{layer}.busy_s"]
                   for layer in COMPUTE_LAYERS) >= 0.02
        assert metrics["trace.attribution_gap_share"] > 0.5

    def test_inactive_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.op(1):
            pass
        assert tracer.spans == []


class TestIdleShare:
    def test_fully_busy_pool(self):
        assert idle_share(worker_busy_s=4.0, width=2,
                          evaluate_s=2.0) == pytest.approx(0.0)

    def test_quarter_busy_pool(self):
        assert idle_share(worker_busy_s=1.0, width=2,
                          evaluate_s=2.0) == pytest.approx(0.75)

    def test_no_evaluation_means_no_idle_capacity(self):
        assert idle_share(0.0, 2, 0.0) == 0.0

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            idle_share(1.0, 0, 1.0)


class TestErrorRate:
    def test_ratio_of_failed_to_attempted(self):
        assert error_rate(1, 4) == pytest.approx(0.25)
        assert error_rate(0, 10) == 0.0

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            error_rate(0, 0)
        with pytest.raises(ValueError):
            error_rate(5, 4)
        with pytest.raises(ValueError):
            error_rate(-1, 4)

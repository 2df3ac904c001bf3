"""Arithmetic behind the benchmark's metrics.

Pure functions over plain numbers and span tuples, so the self-tests in
``perfbench/tests`` can check them without running a model.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, Sequence, Tuple

#: A recorded span: (span id, name, start, end, parent span id or None,
#: op id or None).  Times are ``time.perf_counter()`` seconds.
Span = Tuple[int, str, float, float, object, object]


def percentile(values: Sequence[float], q: float) -> Tuple[float, int, int]:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Returns ``(value, samples, beyond)``: the sample count, and how many
    samples lie strictly above the value.  A tail percentile is only
    trustworthy with about ten samples beyond it, so callers print both.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    data = sorted(values)
    position = (len(data) - 1) * q / 100.0
    low = int(math.floor(position))
    high = min(low + 1, len(data) - 1)
    value = data[low] + (data[high] - data[low]) * (position - low)
    beyond = sum(1 for sample in data if sample > value)
    return value, len(data), beyond


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives."""
    if len(values) < 2:
        raise ValueError("spread needs at least two samples")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Spans of one thread nest strictly, so the children never
    overlap each other and the subtraction is exact.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


def attribution_gap(attributed_s: float, wall_s: float) -> float:
    """|time the layer metrics account for - wall| / wall.

    ``attributed_s`` is the reported layer self times plus the
    unattributed glue, summed over the ops; ``wall_s`` is the ops' wall
    time measured around them.  Self times telescope to the wall when
    every span nests inside its op's root on the op's thread; a span of a
    layer that runs on another thread, or time spent in a span no
    reported metric covers, shows up as a gap.
    """
    if wall_s <= 0:
        raise ValueError("wall time must be positive")
    return abs(attributed_s - wall_s) / wall_s


def idle_share(worker_busy_s: float, width: int, evaluate_s: float) -> float:
    """1 - worker busy time / (pool width x time spent evaluating).

    ``worker_busy_s`` is the sum of the pipeline stage times the workers
    report; the rest of the pool's capacity went to dispatch, shipping,
    merging and waiting.  With no evaluation time there is no capacity to
    be idle, so the share is 0.
    """
    if width < 1:
        raise ValueError("pool width must be at least 1")
    if evaluate_s <= 0:
        return 0.0
    return 1.0 - worker_busy_s / (width * evaluate_s)


def error_rate(failed: int, attempted: int) -> float:
    """Failed, refused or wrong operations over operations attempted."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0

"""Pure helpers of the benchmark: percentiles, span arithmetic, outcomes.

Nothing here imports the program under test, so ``perfbench/test_stats.py``
exercises these helpers without building a trainer or a gateway.

Spans are plain tuples ``(name, start, end, parent)``: ``parent`` is the
index of the enclosing span in the same list, or ``-1`` for a root.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise a handful of outliers would set its value.
MIN_BEYOND = 10

Span = Tuple[str, float, float, int]


def nearest_rank(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile by nearest rank, and how many samples exceed it.

    Nearest rank returns a measured sample, never an interpolation
    between two. The count beyond is the number of samples ranked after
    the selected one.
    """
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    index = max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)
    return ordered[index], len(ordered) - 1 - index


def percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` with fewer than ``min_beyond`` samples beyond it."""
    value, beyond = nearest_rank(values, q)
    return value if beyond >= min_beyond else None


def highest_percentile(
    values: Sequence[float],
    candidates: Iterable[float] = (99.9, 99.0, 90.0, 50.0),
    min_beyond: int = MIN_BEYOND,
) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest candidate percentile that is reportable."""
    for q in sorted(candidates, reverse=True):
        value = percentile(values, q, min_beyond)
        if value is not None:
            return q, value
    return None


def with_failures(latencies: Sequence[float], failed: int) -> List[float]:
    """Latencies with each failed request counted as infinitely slow.

    A refused, timed-out or failed request never answered in time, so it
    ranks above every answered one instead of dropping out of the sample.
    """
    return list(latencies) + [math.inf] * failed


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (``statistics.quantiles``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# ----------------------------------------------------------------------
# request outcomes
# ----------------------------------------------------------------------
def is_failure(reply: Optional[Mapping]) -> bool:
    """Whether a request outcome counts as failed.

    ``None`` stands for a request that got no reply in time or whose
    connection failed; a reply counts only when the gateway says ``ok``
    (``BUSY`` refusals and ``TIMEOUT`` answers are failures).
    """
    return reply is None or not reply.get("ok", False)


def failed_ratio(outcomes: Sequence[Optional[Mapping]]) -> float:
    """Failed requests over attempted requests."""
    if not outcomes:
        raise ValueError("no requests attempted")
    return sum(is_failure(reply) for reply in outcomes) / len(outcomes)


def open_loop_timings(due: float, written: float, replied: float) -> Tuple[float, float]:
    """``(latency, lateness)`` of one open-loop request.

    Latency runs from when the request was *due*, not from when it was
    written: a generator or session that fell behind delays every later
    request, and that wait belongs to the latency the user sees.
    Lateness is how long after its due time the request was written.
    """
    return replied - due, written - due


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if b > lo and a < hi)
    total, reach = 0.0, lo
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        kids.setdefault(span[3], []).append(index)
    return kids


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover."""
    kids = children_of(spans)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        parts = [(spans[k][1], spans[k][2]) for k in kids.get(index, ())]
        out.append((end - start) - covered((start, end), parts))
    return out


def unattributed_fraction(spans: Sequence[Span], roots: Sequence[int]) -> float:
    """Share of the roots' wall-clock that none of their direct children covers."""
    kids = children_of(spans)
    total = gap = 0.0
    for root in roots:
        _, start, end, _ = spans[root]
        parts = [(spans[k][1], spans[k][2]) for k in kids.get(root, ())]
        total += end - start
        gap += (end - start) - covered((start, end), parts)
    return gap / total if total > 0 else 0.0


def outermost(spans: Sequence[Span], name: str) -> List[int]:
    """Indices of spans called ``name`` with no ancestor of the same name."""
    picked = []
    for index, span in enumerate(spans):
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            picked.append(index)
    return picked


def layer_totals(spans: Sequence[Span]) -> Dict[str, Tuple[float, float, int]]:
    """Per span name: (inclusive seconds, self seconds, calls), outermost calls only.

    Inclusive time counts each name once even when it recurses; self
    time sums every span of the name, so nested layers are not counted
    twice either way.
    """
    selfs = self_times(spans)
    out: Dict[str, Tuple[float, float, int]] = {}
    for name in sorted({span[0] for span in spans}):
        tops = outermost(spans, name)
        inclusive = sum(spans[i][2] - spans[i][1] for i in tops)
        own = sum(selfs[i] for i, span in enumerate(spans) if span[0] == name)
        out[name] = (inclusive, own, len(tops))
    return out

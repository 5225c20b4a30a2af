"""Tests of the benchmark's pure helpers (no trainer, no gateway).

    python -m pytest perfbench
"""

import math

import pytest

from perfbench.stats import (
    failed_ratio,
    highest_percentile,
    is_failure,
    layer_totals,
    nearest_rank,
    open_loop_timings,
    percentile,
    quartile_spread,
    self_times,
    unattributed_fraction,
    with_failures,
)


class TestPercentiles:
    def test_nearest_rank_returns_a_sample_and_the_count_beyond(self):
        values = [float(v) for v in range(1, 101)]  # 1..100
        assert nearest_rank(values, 50.0) == (50.0, 50)
        assert nearest_rank(values, 90.0) == (90.0, 10)
        assert nearest_rank(values, 99.0) == (99.0, 1)

    def test_percentile_needs_ten_samples_beyond(self):
        values = [float(v) for v in range(100)]
        assert percentile(values, 90.0) == 89.0  # 10 samples beyond
        assert percentile(values, 91.0) is None  # only 9 beyond
        assert percentile(values, 99.0) is None

    def test_p99_becomes_reportable_at_a_thousand_samples(self):
        assert percentile([1.0] * 999, 99.0) is None
        assert percentile([1.0] * 1000, 99.0) == 1.0

    def test_highest_percentile_steps_down_to_a_reportable_one(self):
        values = [float(v) for v in range(200)]
        assert highest_percentile(values) == (90.0, 179.0)
        assert highest_percentile(values[:25]) == (50.0, 12.0)
        assert highest_percentile([1.0] * 5) is None

    def test_quartile_spread_is_a_share_of_the_median(self):
        assert quartile_spread([10.0] * 10) == 0.0
        assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


class TestFailures:
    def test_refused_and_timed_out_requests_count_as_failed(self):
        outcomes = [
            {"ok": True},
            {"ok": False, "error": "BUSY"},
            {"ok": False, "error": "TIMEOUT"},
            None,  # no reply in time / transport error
        ]
        assert [is_failure(o) for o in outcomes] == [False, True, True, True]
        assert failed_ratio(outcomes) == 0.75

    def test_failed_requests_rank_above_every_answered_one(self):
        latencies = with_failures([float(v) for v in range(1000)], failed=20)
        assert percentile(latencies, 50.0) == 509.0
        assert math.isinf(percentile(latencies, 99.0))

    def test_failed_ratio_needs_attempts(self):
        with pytest.raises(ValueError):
            failed_ratio([])


class TestOpenLoop:
    def test_latency_runs_from_due_time_not_send_time(self):
        # Due at 1.0, written late at 1.5 (generator or session stall),
        # answered at 1.6: the user waited 0.6 s, not 0.1 s.
        latency, lateness = open_loop_timings(due=1.0, written=1.5, replied=1.6)
        assert latency == pytest.approx(0.6)
        assert lateness == pytest.approx(0.5)

    def test_on_time_request_has_no_lateness(self):
        assert open_loop_timings(due=2.0, written=2.0, replied=2.25) == (0.25, 0.0)


class TestSpans:
    # root [0, 10] -> a [1, 4] -> a.x [2, 3]; root -> b [3, 6] overlapping a
    SPANS = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        assert self_times(self.SPANS) == pytest.approx([5.0, 2.0, 1.0, 3.0])

    def test_children_outside_the_parent_are_clipped(self):
        spans = [("p", 0.0, 2.0, -1), ("c", 1.0, 5.0, 0)]
        assert self_times(spans) == pytest.approx([1.0, 4.0])

    def test_unattributed_fraction_is_the_gap_under_the_roots(self):
        assert unattributed_fraction(self.SPANS, [0]) == pytest.approx(0.5)
        assert unattributed_fraction([("r", 0.0, 1.0, -1)], [0]) == 1.0

    def test_layer_totals_count_recursive_calls_once(self):
        spans = [
            ("op", 0.0, 10.0, -1),
            ("f", 1.0, 9.0, 0),
            ("f", 2.0, 5.0, 1),  # f calls itself
            ("g", 6.0, 7.0, 1),
        ]
        totals = layer_totals(spans)
        assert totals["f"] == pytest.approx((8.0, 7.0, 1))
        assert totals["g"] == pytest.approx((1.0, 1.0, 1))
        assert totals["op"] == pytest.approx((10.0, 2.0, 1))

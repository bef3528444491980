"""Tests for metrics, statistics and reporting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import PeerRecord, cdf_points, gini
from repro.analysis.reporting import format_series, format_table
from repro.analysis.stats import (
    Summary,
    confidence_interval_95,
    km_median,
    mean,
    percentile,
    stddev,
    summarize,
)


def record(**overrides):
    defaults = dict(
        peer_id="L1", kind="leecher", capacity_kbps=800.0,
        join_time=0.0, finish_time=100.0, leave_time=100.0,
        kb_uploaded=1024.0, kb_downloaded=2048.0,
        pieces_uploaded=4, pieces_downloaded=8, pieces_completed=8,
        utilization=0.8)
    defaults.update(overrides)
    return PeerRecord(**defaults)


class TestPeerRecord:
    def test_completion_time(self):
        assert record(join_time=10.0,  # simlint: disable=SL004 -- exact deterministic timestamp is the assertion
                      finish_time=60.0).completion_time == 50.0
        assert record(finish_time=None).completion_time is None
        assert not record(finish_time=None).completed

    def test_fairness_factor(self):
        assert record().fairness_factor == 2.0
        assert record(pieces_uploaded=0).fairness_factor is None

    def test_throughput(self):
        assert record().throughput_kbps(100.0) == \
            pytest.approx(2048 * 8 / 100)
        assert record().throughput_kbps(0.0) == 0.0


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0
        assert mean([]) == 0.0

    def test_stddev(self):
        assert stddev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(
            2.138, rel=1e-3)
        assert stddev([5]) == 0.0

    def test_ci95(self):
        values = [10.0] * 30
        assert confidence_interval_95(values) == 0.0
        assert confidence_interval_95([1.0]) == 0.0

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0, None])
        assert isinstance(s, Summary)
        assert s.mean == 2.0
        assert s.n == 3
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert summarize([None, None]) is None
        assert "n=3" in str(s)
        assert s.n_missing == 1

    def test_summarize_drops_nan_like_none(self):
        """A seed whose statistic is NaN (e.g. nobody in the steady
        state finished) must not turn the mean into NaN."""
        s = summarize([10.0, float("nan"), 20.0, None])
        assert s.mean == 15.0
        assert s.n == 2
        assert s.n_missing == 2
        assert summarize([float("nan")]) is None
        assert summarize([1.0]).n_missing == 0

    def test_km_median_without_censoring_is_middle_finisher(self):
        # ceil(n/2)-th finish: 3rd of 5, 2nd of 4
        assert km_median([5.0, 1.0, 3.0, 2.0, 4.0], stop_time=10.0) == 3.0
        assert km_median([4.0, 1.0, 3.0, 2.0], stop_time=10.0) == 2.0
        assert km_median([7.0], stop_time=10.0) == 7.0

    def test_km_median_censored_by_hand(self):
        """Five peers; run stops at 40 s.  Durations: A 10, E 20,
        B 30 finished; D joined at 25 and is censored at 15; C is
        censored at 40.  S(10) = 4/5; the censoring at 15 leaves three
        at risk, so S(20) = 4/5 * 2/3 = 0.533 and S(30) = 0.267: the
        median is 30 s, where the finishers-only median says 20 s."""
        finish = [10.0, 30.0, None, None, 20.0]
        start = [0.0, 0.0, 0.0, 25.0, 0.0]
        assert km_median(finish, stop_time=40.0, start_times=start) == 30.0

    def test_km_median_none_when_curve_never_reaches_half(self):
        # one of three finished: S stays at 2/3
        assert km_median([10.0, None, None], stop_time=50.0) is None
        assert km_median([], stop_time=50.0) is None

    def test_percentile(self):
        xs = [1, 2, 3, 4, 5]
        assert percentile(xs, 0) == 1
        assert percentile(xs, 50) == 3
        assert percentile(xs, 100) == 5
        assert percentile(xs, 25) == 2.0
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile(xs, 120)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=2, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_mean_between_min_max(self, values):
        m = mean(values)
        assert min(values) - 1e-6 <= m <= max(values) + 1e-6


class TestCdfAndGini:
    def test_cdf_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)),
                          (2.0, pytest.approx(2 / 3)),
                          (3.0, pytest.approx(1.0))]
        assert cdf_points([]) == []

    def test_gini_equal_is_zero(self):
        assert gini([5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_gini_concentrated_is_high(self):
        assert gini([0.0, 0.0, 0.0, 100.0]) > 0.7

    def test_gini_empty_and_zero(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0]) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6),
                    min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_gini_bounds(self, values):
        g = gini(values)
        assert -1e-9 <= g <= 1.0


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (30, None)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "-" in lines[3]
        assert "30" in text and "2.5" in text and "-" in text

    def test_format_series(self):
        text = format_series("s", [(1.0, 2.0)], "x", "y")
        assert "s" in text and "[x -> y]" in text

    def test_float_formatting(self):
        text = format_table(["v"], [(0.000123,), (12345.6,), (0.0,)])
        assert "0.000123" in text
        assert "12346" in text

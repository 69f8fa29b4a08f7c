"""Histogram.percentile edge-case audit (property-based).

The bucket-interpolated estimator backs every serving SLO figure and the
per-window p99 panels, so its invariants are pinned here: estimates never
leave the observed value range, the extremes are exact, and the estimate
is monotone in ``q``.
"""

import pytest

from repro.errors import TelemetryError
from repro.obs.html import _cell_percentile
from repro.telemetry.registry import DEFAULT_BUCKETS, Histogram
from repro.telemetry.windows import WindowedSeries

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

VALUES = st.lists(
    st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
    min_size=1,
    max_size=60,
)
QS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def build(values, bounds=DEFAULT_BUCKETS):
    h = Histogram(bounds=bounds)
    for v in values:
        h.observe(v)
    return h


class TestEdgeCases:
    def test_empty_histogram_reads_zero(self):
        assert Histogram().percentile(50.0) == 0.0

    def test_rejects_out_of_range_q(self):
        h = build([1.0])
        for q in (-0.1, 100.1):
            with pytest.raises(TelemetryError):
                h.percentile(q)

    def test_single_value_is_every_percentile(self):
        h = build([3.7])
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert h.percentile(q) == 3.7

    def test_all_values_in_the_overflow_bucket(self):
        top = DEFAULT_BUCKETS[-1]
        h = build([top * 2, top * 3])
        assert top * 2 <= h.percentile(50.0) <= top * 3
        assert h.percentile(100.0) == top * 3

    def test_identical_values_collapse_the_bucket(self):
        h = build([8.0] * 10)
        assert h.percentile(50.0) == 8.0

    def test_value_on_a_bucket_bound_lands_right(self):
        # bisect_right: bucket i holds [bounds[i-1], bounds[i]), so a
        # value exactly on a bound starts the next bucket.
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts == [0, 1, 0]


class TestProperties:
    @settings(deadline=None, max_examples=200)
    @given(VALUES, QS)
    def test_estimate_stays_in_the_observed_range(self, values, q):
        h = build(values)
        p = h.percentile(q)
        assert min(values) <= p <= max(values)

    @settings(deadline=None, max_examples=200)
    @given(VALUES)
    def test_extremes_are_exact(self, values):
        h = build(values)
        assert h.percentile(0.0) == min(values)
        assert h.percentile(100.0) == max(values)

    @settings(deadline=None, max_examples=200)
    @given(VALUES, QS, QS)
    def test_monotone_in_q(self, values, q1, q2):
        h = build(values)
        lo, hi = sorted((q1, q2))
        assert h.percentile(lo) <= h.percentile(hi)

    @settings(deadline=None, max_examples=100)
    @given(VALUES)
    def test_median_brackets_the_true_median_bucket(self, values):
        # The estimate must land in (or on the edge of) the bucket that
        # contains the true rank — interpolation never jumps a bucket.
        h = build(values)
        ordered = sorted(values)
        true_median = ordered[(len(ordered) - 1) // 2]
        p = h.percentile(50.0)
        import bisect

        true_bucket = bisect.bisect_right(DEFAULT_BUCKETS, true_median)
        est_bucket = bisect.bisect_right(DEFAULT_BUCKETS, p)
        assert abs(est_bucket - true_bucket) <= 1


class TestOneEstimator:
    """Histogram, windowed series and the HTML report's exported-cell
    view all run :func:`bucket_percentile` — so they agree exactly."""

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
            max_size=60,
        ),
        st.lists(
            st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
            min_size=1,
            max_size=12,
            unique=True,
        ).map(lambda b: tuple(sorted(b))),
        QS,
    )
    def test_three_paths_agree(self, values, bounds, q):
        h = build(values, bounds)
        series = WindowedSeries(window=10.0, bounds=bounds)
        for v in values:
            series.observe(0.0, v)
        exported = series.as_dict()
        cells = exported["cells"]
        expected = h.percentile(q)
        assert series.percentile(0, q) == expected
        if values:
            assert _cell_percentile(exported["bounds"], cells["0"], q) == expected
        else:
            assert expected == 0.0 and cells == {}

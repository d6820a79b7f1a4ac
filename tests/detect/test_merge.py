"""Sketch merging: merge(A, B) must match one sketch fed A ++ B.

Property-based (Hypothesis): Histogram and RateCounter merges are *exact*
(integer counts), SummaryDigest matches to float tolerance (parallel
Welford), and P2Quantile merges are tolerance-bounded against the true
pooled quantile.  Plus the incompatible-sketch error paths: mismatched
bounds/windows/quantiles must raise rather than silently blend.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.histogram import Histogram
from repro.detect.quantiles import P2Quantile
from repro.detect.streaming import RateCounter, SummaryDigest
from repro.detect.windows import SlidingWindow

values = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
value_lists = st.lists(values, max_size=200)


# -- Histogram: exact ------------------------------------------------------


@given(a=value_lists, b=value_lists)
def test_histogram_merge_matches_concatenated_stream(a, b):
    left = Histogram(-100.0, 100.0, 16)
    left.update_many(a)
    right = Histogram(-100.0, 100.0, 16)
    right.update_many(b)
    reference = Histogram(-100.0, 100.0, 16)
    reference.update_many(a + b)

    merged = left.merge(right)
    assert merged is left  # chains
    assert merged.counts == reference.counts
    assert merged.underflow == reference.underflow
    assert merged.overflow == reference.overflow
    assert merged.total == reference.total


@given(a=value_lists, b=value_lists,
       q=st.floats(min_value=0.0, max_value=1.0))
def test_histogram_merged_quantile_equals_concatenated_quantile(a, b, q):
    # Quantiles come straight off the counts, so the merged estimate is
    # *identical* to the single-sketch estimate — not just close.
    left = Histogram(0.0, 50.0, 10)
    left.update_many(a)
    right = Histogram(0.0, 50.0, 10)
    right.update_many(b)
    reference = Histogram(0.0, 50.0, 10)
    reference.update_many(a + b)
    merged = left.merge(right)
    got, want = merged.quantile(q), reference.quantile(q)
    assert (math.isnan(got) and math.isnan(want)) or got == want


def test_histogram_incompatible_bounds_raise():
    base = Histogram(0.0, 10.0, 4)
    for other in (Histogram(0.0, 20.0, 4), Histogram(1.0, 10.0, 4),
                  Histogram(0.0, 10.0, 8), object()):
        with pytest.raises(ValueError, match="incompatible|merge"):
            base.merge(other)


# -- RateCounter: exact ----------------------------------------------------

times = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000), st.booleans()),
    max_size=120,
).map(lambda events: sorted(events, key=lambda e: e[0]))


@given(a=times, b=times)
def test_rate_counter_merge_matches_concatenated_stream(a, b):
    window = 1_000
    left = RateCounter(window)
    for t, hit in a:
        left.observe(t, hit)
    right = RateCounter(window)
    for t, hit in b:
        right.observe(t, hit)
    reference = RateCounter(window)
    for t, hit in sorted(a + b, key=lambda e: e[0]):
        reference.observe(t, hit)

    merged = left.merge(right)
    assert merged is left
    now = max([t for t, _ in a + b], default=0)
    assert merged.count(now) == reference.count(now)
    assert merged.rate(now) == reference.rate(now)


def test_rate_counter_merge_ties_take_own_events_first():
    left = RateCounter(1_000)
    for t, hit in ((5, True), (5, True), (9, False)):
        left.observe(t, hit)
    right = RateCounter(1_000)
    for t, hit in ((1, False), (5, False), (9, True)):
        right.observe(t, hit)
    mirror = RateCounter(1_000).merge(right).merge(left)

    assert left.merge(right).to_json()["events"] == [
        [1, 0], [5, 1], [5, 1], [5, 0], [9, 0], [9, 1]]
    assert mirror.to_json()["events"] == [
        [1, 0], [5, 0], [5, 1], [5, 1], [9, 1], [9, 0]]


def test_rate_counter_window_mismatch_raises():
    with pytest.raises(ValueError, match="window"):
        RateCounter(1000).merge(RateCounter(500))
    with pytest.raises(ValueError):
        RateCounter(1000).merge(object())


# -- SummaryDigest: float-tolerance ----------------------------------------


@given(a=value_lists, b=value_lists)
def test_summary_digest_merge_matches_concatenated_stream(a, b):
    left = SummaryDigest.from_values(a)
    right = SummaryDigest.from_values(b)
    reference = SummaryDigest.from_values(a + b)

    merged = left.merge(right)
    assert merged is left
    assert merged.count == reference.count
    if reference.count:
        assert math.isclose(merged.mean, reference.mean,
                            rel_tol=1e-9, abs_tol=1e-6)
        if reference.count > 1:
            assert math.isclose(merged.variance, reference.variance,
                                rel_tol=1e-6, abs_tol=1e-3)
        else:
            assert math.isnan(merged.variance)
        assert merged.min == reference.min
        assert merged.max == reference.max


def test_summary_digest_merge_rejects_other_types():
    with pytest.raises(ValueError):
        SummaryDigest().merge(object())


def test_sliding_window_summary_feeds_digest():
    window = SlidingWindow(size=4)
    for value in (1.0, 2.0, 3.0, 4.0, 5.0):
        window.update(value)
    summary = window.summary()
    assert summary.count == 4  # only the windowed tail
    assert summary.min == 2.0 and summary.max == 5.0
    assert math.isclose(summary.mean, 3.5)


# -- P2Quantile: tolerance-bounded -----------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       split=st.floats(min_value=0.1, max_value=0.9))
def test_p2_merge_tracks_pooled_quantile(seed, split):
    import random

    rng = random.Random(seed)
    samples = [rng.gauss(100.0, 25.0) for _ in range(600)]
    cut = int(len(samples) * split)

    left = P2Quantile(0.95)
    for value in samples[:cut]:
        left.update(value)
    right = P2Quantile(0.95)
    for value in samples[cut:]:
        right.update(value)
    merged = left.merge(right)

    exact = sorted(samples)[int(0.95 * len(samples))]
    spread = max(samples) - min(samples)
    # P² itself is an approximation; the merge must stay in the same
    # neighbourhood of the true pooled quantile (10% of the sample spread
    # is far tighter than the estimator's own worst case yet loose enough
    # to be seed-stable).
    assert abs(merged.value - exact) <= 0.10 * spread


@given(a=value_lists, b=value_lists)
def test_p2_merge_handles_tiny_sides_exactly(a, b):
    # Below the 5-sample initialization threshold P² stores raw samples, so
    # merging two tiny sketches must be exact: the median of the pooled
    # samples, with no marker interpolation involved.
    left = P2Quantile(0.5)
    for value in a[:3]:
        left.update(value)
    right = P2Quantile(0.5)
    for value in b[:2]:
        right.update(value)
    merged = left.merge(right)
    pooled = sorted(a[:3] + b[:2])
    if len(pooled) < 5:
        reference = P2Quantile(0.5)
        for value in sorted(pooled):
            reference.update(value)
        got, want = merged.value, reference.value
        assert (math.isnan(got) and math.isnan(want)) or \
            math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_p2_quantile_mismatch_raises():
    with pytest.raises(ValueError, match="quantile|q"):
        P2Quantile(0.95).merge(P2Quantile(0.5))
    with pytest.raises(ValueError):
        P2Quantile(0.95).merge(object())

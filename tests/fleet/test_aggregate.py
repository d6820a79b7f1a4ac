"""HostDigest/FleetDigest: observation, merging, and fleet-wide rates."""

import math
import pickle

import pytest

from repro.fleet.aggregate import (
    LATENCY_BINS,
    FleetDigest,
    HostDigest,
    latency_histogram,
)
from repro.sim.units import SECOND


def make_digest(host_id, round_index=0, violations=0, inconclusive=0,
                latencies=(), time_ns=1 * SECOND):
    digest = HostDigest(host_id, round_index, time_ns, version=1)
    digest.checks = 1
    digest.violations = violations
    digest.inconclusive = inconclusive
    for index, latency in enumerate(latencies):
        digest.observe_io(time_ns - len(latencies) + index, latency,
                          false_submit=False, predicted_fast=True)
    return digest


def test_observe_io_updates_counters_and_sketches():
    digest = HostDigest(3, 0, 0, version=1)
    digest.observe_io(10, 100.0, false_submit=True, predicted_fast=True)
    digest.observe_io(20, 200.0, false_submit=False, predicted_fast=True)
    digest.observe_io(30, 300.0, false_submit=True, predicted_fast=False)
    assert digest.completed_ios == 3
    assert digest.model_submits == 2
    # false submits only count where the model predicted fast.
    assert digest.false_submits == 1
    assert digest.latency.total == 3
    assert digest.latency_summary.count == 3
    assert digest.latency_summary.min == 100.0


def test_host_digest_to_dict_is_json_friendly():
    import json

    digest = make_digest(1, latencies=[100.0, 200.0])
    out = digest.to_dict()
    json.dumps(out)  # must not raise
    assert out["host_id"] == 1
    assert out["completed_ios"] == 2
    assert out["latency"]["count"] == 2


def test_fleet_digest_merges_hosts_and_rates():
    fleet = FleetDigest(round_ns=1 * SECOND)
    fleet.merge_host(make_digest(0, violations=1, latencies=[100.0]))
    fleet.merge_host(make_digest(1, violations=0, latencies=[300.0]))
    fleet.merge_host(make_digest(0, round_index=1, violations=1,
                                 inconclusive=0, latencies=[200.0],
                                 time_ns=2 * SECOND))
    assert fleet.hosts == {0, 1}
    assert fleet.host_rounds == 3
    assert fleet.host_seconds() == 3.0
    assert fleet.violations == 2
    assert fleet.violation_rate() == pytest.approx(2 / 3)
    assert fleet.completed_ios == 3
    assert fleet.last_time_ns == 2 * SECOND


def test_fleet_digest_merge_fleet_level():
    a = FleetDigest(round_ns=1 * SECOND)
    a.merge_host(make_digest(0, violations=1, latencies=[100.0]))
    b = FleetDigest(round_ns=1 * SECOND)
    b.merge_host(make_digest(1, inconclusive=1, latencies=[200.0, 400.0]))

    reference = FleetDigest(round_ns=1 * SECOND)
    reference.merge_host(make_digest(0, violations=1, latencies=[100.0]))
    reference.merge_host(make_digest(1, inconclusive=1,
                                     latencies=[200.0, 400.0]))

    merged = a.merge(b)
    assert merged is a
    assert merged.to_dict() == reference.to_dict()


def test_fleet_digest_round_mismatch_raises():
    with pytest.raises(ValueError, match="round_ns"):
        FleetDigest(round_ns=1 * SECOND).merge(
            FleetDigest(round_ns=2 * SECOND))


def test_empty_fleet_digest_rates_are_defined():
    fleet = FleetDigest()
    assert fleet.violation_rate() == 0.0
    assert fleet.inconclusive_rate() == 0.0
    assert fleet.false_submit_fraction() == 0.0
    assert math.isnan(fleet.p95_us())
    assert fleet.to_dict()["latency_p95_us"] is None


def test_inconclusive_rate_counts_blind_checks():
    fleet = FleetDigest(round_ns=1 * SECOND)
    fleet.merge_host(make_digest(0, inconclusive=1))
    fleet.merge_host(make_digest(1))
    assert fleet.inconclusive_rate() == pytest.approx(0.5)


def test_latency_histogram_bounds_are_shared():
    # Digest sketches must be mutually mergeable by construction.
    a, b = latency_histogram(), latency_histogram()
    assert a.compatible_with(b)


def test_digest_size_is_independent_of_io_count():
    # One round's digest ships as a row and through the shard pipe; its
    # size must not grow with the I/Os it summarizes.  Only the widths of
    # the numbers in it may change, so allow a fixed slack of a few bytes
    # per histogram bin.
    def sizes(ios):
        digest = HostDigest(0, 0, 1 * SECOND, version=1)
        for index in range(ios):
            digest.observe_io(index * 1000, 50.0 + (index * 37) % 2900,
                              index % 7 == 0, True)
        return (len(digest.to_row()["sketches"]),
                len(pickle.dumps(digest)))

    small, large = sizes(10), sizes(10_000)
    slack = 3 * LATENCY_BINS
    assert large[0] <= small[0] + slack
    assert large[1] <= small[1] + slack

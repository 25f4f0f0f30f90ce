"""End-of-run invariants of the one report builder.

``build_sharded_cluster_report`` backs every serving entry, so its
conservation checks run on every simulation: the latency source counts
exactly the chips' served total, and no unit is busy longer than its
capacity over the chip's active span.  Forged per-chip counters prove
each check fires and names the chip and the values.
"""

import pytest

from repro.arch.energy import EnergyModel
from repro.cluster import ShardChipStats, build_sharded_cluster_report
from repro.serve import LatencySketch
from repro.serve.report import ServedRequest

MODEL = "model4"


def forged(name="chip3", served=1, busy_s=0.5, capacity=1, started_s=0.0):
    return ShardChipStats(
        name=name, kind="standard", models=(MODEL,),
        requests_served=served, mean_batch_size=1.0,
        busy_s={"dense_core": busy_s}, capacity={"dense_core": capacity},
        dynamic_energy_pj=0.0, started_s=started_s, accepting=True,
        drained_s=None,
    )


def record(index, finish_s=1.0):
    return ServedRequest(index, MODEL, 0.0, 0.0, finish_s, 1, chip="chip3")


def build(chips, *, requests=None, latency=None, horizon_s=1.0):
    return build_sharded_cluster_report(
        chips, 0, {}, [], latency or LatencySketch(), LatencySketch(),
        offered_rps=0.0, horizon_s=horizon_s, policy="round_robin",
        queue_capacity=None, initial_chips=len(chips), scaling_events=[],
        energy=EnergyModel(), num_shards=1, window_s=None, windows=[],
        requests=requests,
    )


class TestServedCount:
    def test_consistent_records_pass(self):
        report = build([forged(served=2)], requests=(record(0), record(1)))
        assert report.served == 2

    def test_record_count_mismatch_raises(self):
        with pytest.raises(
            RuntimeError, match=r"records count 2 != 3 served .*\(chip3 3\)"
        ):
            build([forged(served=3)], requests=(record(0), record(1)))

    def test_sketch_count_mismatch_raises(self):
        sketch = LatencySketch()
        sketch.add(0.001)
        chips = [forged("chip0", served=1), forged("chip1", served=1)]
        with pytest.raises(
            RuntimeError, match=r"sketch count 1 != 2 .*\(chip0 1, chip1 1\)"
        ):
            build(chips, latency=sketch)


class TestBusyWithinCapacity:
    def test_overfull_unit_raises_naming_the_chip(self):
        with pytest.raises(RuntimeError, match=r"chip chip3: dense_core busy 1\.5"):
            build([forged(busy_s=1.5)], requests=(record(0),))

    def test_span_starts_when_the_chip_was_added(self):
        with pytest.raises(RuntimeError, match="active span 0.5"):
            build([forged(busy_s=0.75, started_s=0.5)], requests=(record(0),))

    def test_capacity_scales_the_bound(self):
        report = build(
            [forged(busy_s=1.5, capacity=2)], requests=(record(0),)
        )
        assert report.chips["chip3"].utilization["dense_core"] == 0.75

    def test_rounding_slack_is_tolerated(self):
        report = build([forged(busy_s=1.0 + 1e-12)], requests=(record(0),))
        assert report.chips["chip3"].utilization["dense_core"] > 1.0

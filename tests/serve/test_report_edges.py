"""Percentile edge cases: empty completion lists and single-sample streams
return well-defined reports instead of raising (regression tests)."""

import json

import pytest

from repro.arch.energy import EnergyModel
from repro.arch.engine import Engine, EngineRun
from repro.cluster import ShardChipStats, build_sharded_cluster_report
from repro.serve import (
    LatencySketch,
    Request,
    SchedulerConfig,
    latency_stats,
    simulate_serving,
)
from repro.serve.report import ServedRequest

MODEL = "model4"


def empty_run():
    return EngineRun.capture(Engine())


class TestLatencyStats:
    def test_empty_samples(self):
        stats = latency_stats([])
        assert stats.count == 0
        assert stats.mean_ms == 0.0
        assert stats.max_ms == 0.0
        assert set(stats.percentiles_ms) == {"p50", "p90", "p95", "p99"}
        assert all(v == 0.0 for v in stats.percentiles_ms.values())

    def test_single_sample_reports_it_at_every_percentile(self):
        stats = latency_stats([0.002])
        assert stats.count == 1
        assert stats.mean_ms == pytest.approx(2.0)
        assert stats.max_ms == pytest.approx(2.0)
        assert all(
            v == pytest.approx(2.0) for v in stats.percentiles_ms.values()
        )

    def test_percentiles_monotone(self):
        stats = latency_stats([0.001, 0.002, 0.010])
        p = stats.percentiles_ms
        assert p["p50"] <= p["p90"] <= p["p95"] <= p["p99"] <= stats.max_ms


def chip_stats(served, busy_s=0.0):
    return ShardChipStats(
        name="chip0", kind="standard", models=(MODEL,),
        requests_served=served, mean_batch_size=float(bool(served)),
        busy_s={"dense_core": busy_s}, capacity={"dense_core": 1},
        dynamic_energy_pj=1.0 if served else 0.0,
        started_s=0.0, accepting=True, drained_s=None,
    )


def record_report(requests, horizon_s):
    """The record path of the one report builder (one-shard entries)."""
    return build_sharded_cluster_report(
        [chip_stats(len(requests))], 0, {}, [], LatencySketch(),
        LatencySketch(), offered_rps=0.0, horizon_s=horizon_s,
        policy="round_robin", queue_capacity=None, initial_chips=1,
        scaling_events=[], energy=EnergyModel(), num_shards=1,
        window_s=None, windows=[], requests=tuple(requests),
        run=empty_run(),
    )


class TestBuildReportEdges:
    def test_empty_completion_list(self):
        report = record_report([], horizon_s=0.0)
        assert report.num_requests == 0
        assert report.throughput_rps == 0.0
        assert report.latency_mean_ms == 0.0
        assert report.queue_wait_mean_ms == 0.0
        assert report.energy_per_request_mj == 0.0
        json.dumps(report.to_dict(), allow_nan=False)

    def test_single_completion(self):
        served = [ServedRequest(0, MODEL, 0.0, 0.0, 0.004, 1, chip="chip0")]
        report = record_report(served, horizon_s=0.004)
        assert report.num_requests == 1
        assert report.latency_percentiles_ms["p50"] == pytest.approx(4.0)
        assert report.latency_percentiles_ms["p99"] == pytest.approx(4.0)
        assert report.throughput_rps == pytest.approx(1 / 0.004)
        json.dumps(report.to_dict(), allow_nan=False)


class TestSimulateEdges:
    def test_empty_stream(self):
        report = simulate_serving([], SchedulerConfig())
        assert report.num_requests == 0
        json.dumps(report.to_dict(), allow_nan=False)

    def test_single_request_stream(self):
        report = simulate_serving(
            [Request(index=0, model=MODEL, arrival_s=0.0)], SchedulerConfig()
        )
        assert report.num_requests == 1
        assert report.offered_rps == 0.0  # zero-span stream: no rate
        p = report.latency_percentiles_ms
        assert p["p50"] == pytest.approx(p["p99"])
        json.dumps(report.to_dict(), allow_nan=False)

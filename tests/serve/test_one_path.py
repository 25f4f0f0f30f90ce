"""``simulate_serving`` is the one-chip case of the cluster coordinator.

A lone chip is ``chip0`` of a one-chip ``standard`` fleet: its records,
engine resources, tenant blocks and scheduler counters come out of the
same shard and report builder as every cluster run.
"""

import pytest

from repro import obs
from repro.cluster import chip_config, homogeneous_fleet, simulate_cluster
from repro.serve import (
    Request,
    SchedulerConfig,
    TenantSpec,
    assign_priorities,
    assign_tenants,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)

MODEL = "model4"


def stream(n=40, rate=5000.0, seed=0):
    return poisson_arrivals(n, rate, MODEL, seed=seed)


class TestTenantBlock:
    def test_untagged_stream_reports_no_tenants(self):
        report = simulate_serving(stream(), SchedulerConfig(max_inflight=2))
        assert report.tenant_service_s == {}
        assert "tenants" not in report.to_dict()

    def test_tagged_stream_reports_declared_tenants(self):
        tagged = assign_tenants(stream(), "gold:3+silver:1", seed=0)
        report = simulate_serving(
            tagged,
            SchedulerConfig(max_batch=2, max_inflight=2, mode="continuous"),
            tenants=(TenantSpec("gold", 3.0), TenantSpec("silver", 1.0)),
        )
        blocks = report.to_dict()["tenants"]
        assert set(blocks) == {"gold", "silver"}
        assert sum(b["service_share"] for b in blocks.values()) == (
            pytest.approx(1.0)
        )

    def test_quotas_are_not_a_lone_chip_front_door(self):
        tagged = assign_tenants(stream(), "gold:1", seed=0)
        report = simulate_serving(
            tagged, SchedulerConfig(), tenants=(TenantSpec("gold", quota=1),)
        )
        assert report.num_requests == len(tagged)


class TestSchedulerCounters:
    def test_registry_counts_what_the_report_counts(self):
        requests = assign_priorities(
            stream(120, 9000.0, seed=3), "0:0.8+1:0.2", seed=3
        )
        config = SchedulerConfig(max_batch=4, max_inflight=2, mode="continuous")
        obs.enable(trace=False, metrics=True)
        try:
            report = simulate_serving(requests, config)
            counters = obs.registry.to_dict()["counters"]
        finally:
            obs.disable()
            obs.registry.reset()
        assert report.preemptions > 0
        assert report.continuous_joins > 0
        assert counters["serve.preemptions"]["value"] == report.preemptions
        assert (
            counters["serve.continuous_joins"]["value"]
            == report.continuous_joins
        )


class TestChipNaming:
    def test_records_name_chip0(self):
        report = simulate_serving(stream(), SchedulerConfig(max_inflight=2))
        assert report.requests
        assert {r.chip for r in report.requests} == {"chip0"}

    def test_timeline_resources_are_chip0_prefixed(self):
        report = simulate_serving(
            stream(10), SchedulerConfig(max_inflight=2), record_timeline=True
        )
        assert report.run.timeline
        assert all(e.resource.startswith("chip0.") for e in report.run.timeline)
        assert all(name.startswith("chip0.") for name in report.run.resource_stats)
        assert not any("." in unit for unit in report.utilization)


class TestExplicitProfiles:
    def test_explicit_profiles_take_precedence(self):
        kind = "sparse_heavy"
        profiles = {MODEL: request_profile(MODEL, config=chip_config(kind))}
        requests = stream(60, 4000.0, seed=1)
        config = SchedulerConfig(max_batch=2, max_inflight=2)
        single = simulate_serving(requests, config, profiles=profiles)
        cluster = simulate_cluster(
            requests, homogeneous_fleet(1, kind), config
        )
        default = simulate_serving(requests, config)

        def times(report):
            return [(r.index, r.start_s, r.finish_s) for r in report.requests]

        assert times(single) == times(cluster)
        assert times(single) != times(default)

    def test_custom_model_needs_no_compilation(self):
        profile = request_profile(MODEL)
        requests = [Request(index=0, model="custom", arrival_s=0.0)]
        report = simulate_serving(
            requests, SchedulerConfig(), profiles={"custom": profile}
        )
        assert report.num_requests == 1

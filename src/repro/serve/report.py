"""Serving-level results: per-request records and aggregate statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch.engine.timeline import EngineRun
from .sketch import LatencySketch

__all__ = [
    "LatencyStats",
    "ServedRequest",
    "ServingReport",
    "latency_stats",
    "slo_block",
]

PERCENTILES = (50, 90, 95, 99)


def slo_block(latencies_s, slo_ms: float) -> dict:
    """The canonical SLO summary block quoted in reports.

    Accepts raw samples or a :class:`~repro.serve.sketch.LatencySketch`
    (same seam as :func:`latency_stats`): attainment is the CDF at the
    objective, violations the complementary count.  An empty sample set
    reports zero attainment — "no data" must not read as "SLO met".
    """
    if isinstance(latencies_s, LatencySketch):
        count = latencies_s.count
        attainment = latencies_s.cdf(slo_ms * 1e-3) if count else 0.0
    else:
        samples = np.asarray(latencies_s, dtype=float)
        count = int(samples.size)
        attainment = (
            float((samples <= slo_ms * 1e-3).mean()) if count else 0.0
        )
    return {
        "slo_ms": float(slo_ms),
        "attainment": attainment,
        "violations": int(round((1.0 - attainment) * count)),
    }


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of one latency sample set (seconds in, ms out).

    Shared by the single-chip :class:`ServingReport` and the cluster
    reports.  Degenerate inputs are well-defined rather than errors: an
    empty sample set reports all-zero statistics (a fully-shed stream is a
    legitimate simulation outcome), and a single sample reports that value
    at every percentile.
    """

    count: int
    mean_ms: float
    max_ms: float
    percentiles_ms: dict[str, float]


def latency_stats(
    latencies_s: "np.ndarray | list[float] | LatencySketch",
) -> LatencyStats:
    """Summarize a latency sample set; safe on empty and single samples.

    Accepts either raw samples (exact percentiles) or a streaming
    :class:`~repro.serve.sketch.LatencySketch` (bounded-error
    percentiles, exact count/mean/max) — the seam the sharded cluster
    simulation uses so fleet-scale runs never hold full latency lists.
    """
    if isinstance(latencies_s, LatencySketch):
        sketch, count = latencies_s, latencies_s.count
    else:
        samples = np.asarray(latencies_s, dtype=float)
        sketch, count = None, int(samples.size)
    if count == 0:
        return LatencyStats(
            count=0,
            mean_ms=0.0,
            max_ms=0.0,
            percentiles_ms={f"p{p}": 0.0 for p in PERCENTILES},
        )
    if sketch is not None:
        return LatencyStats(
            count=count,
            mean_ms=sketch.mean_s * 1e3,
            max_ms=sketch.max_s * 1e3,
            percentiles_ms={
                f"p{p}": sketch.percentile(p) * 1e3 for p in PERCENTILES
            },
        )
    values = np.percentile(samples, PERCENTILES)
    return LatencyStats(
        count=count,
        mean_ms=float(samples.mean()) * 1e3,
        max_ms=float(samples.max()) * 1e3,
        percentiles_ms={
            f"p{p}": float(v) * 1e3 for p, v in zip(PERCENTILES, values)
        },
    )


@dataclass(frozen=True)
class ServedRequest:
    """One request's life cycle through the serving simulator."""

    index: int
    model: str
    arrival_s: float
    start_s: float       # dispatch time (batch formed, chip slot granted)
    finish_s: float
    batch_size: int      # continuous mode: largest group the request ran in
    chip: str = ""       # serving chip name ("chip0" under simulate_serving)
    tenant: str = ""     # owning tenant ("" for single-tenant streams)
    priority: int = 0    # scheduling tier
    preemptions: int = 0  # times displaced at a stage boundary (continuous)

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.arrival_s


@dataclass
class ServingReport:
    """Aggregate view of one single-chip serving simulation (read off the
    one-chip cluster report by :func:`~repro.serve.simulate_serving`)."""

    num_requests: int
    offered_rps: float           # arrival rate of the generated stream
    horizon_s: float             # last completion time
    throughput_rps: float
    latency_percentiles_ms: dict[str, float]
    latency_mean_ms: float
    latency_max_ms: float
    queue_wait_mean_ms: float
    mean_batch_size: float
    utilization: dict[str, float]
    dynamic_energy_mj: float
    static_energy_mj: float
    policy: str
    max_batch: int
    max_inflight: int
    mode: str = "static"
    preemptions: int = 0         # continuous: priority displacements
    continuous_joins: int = 0    # continuous: merges into in-flight cohorts
    tenant_service_s: dict[str, float] = field(default_factory=dict)
    requests: tuple[ServedRequest, ...] = field(default_factory=tuple, repr=False)
    run: EngineRun | None = field(default=None, repr=False)

    @property
    def energy_per_request_mj(self) -> float:
        if not self.num_requests:
            return 0.0
        return (self.dynamic_energy_mj + self.static_energy_mj) / self.num_requests

    def to_dict(self) -> dict:
        """JSON-ready payload (drops the raw request list and timeline)."""
        payload = {
            "num_requests": self.num_requests,
            "offered_rps": self.offered_rps,
            "horizon_s": self.horizon_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "mean": self.latency_mean_ms,
                "max": self.latency_max_ms,
                **self.latency_percentiles_ms,
            },
            "queue_wait_mean_ms": self.queue_wait_mean_ms,
            "mean_batch_size": self.mean_batch_size,
            "utilization": dict(self.utilization),
            "energy_mj": {
                "dynamic": self.dynamic_energy_mj,
                "static": self.static_energy_mj,
                "per_request": self.energy_per_request_mj,
            },
            "scheduler": {
                "policy": self.policy,
                "max_batch": self.max_batch,
                "max_inflight": self.max_inflight,
                "mode": self.mode,
                "preemptions": self.preemptions,
                "continuous_joins": self.continuous_joins,
            },
        }
        if self.tenant_service_s:
            total = sum(self.tenant_service_s.values())
            payload["tenants"] = {
                tenant: {
                    "service_s": service,
                    "service_share": service / total if total > 0 else 0.0,
                }
                for tenant, service in sorted(self.tenant_service_s.items())
            }
        return payload


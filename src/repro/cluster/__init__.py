"""Multi-chip cluster serving: Bishop fleets in shards, advanced in windows.

One simulator: a coordinator advances shards of the fleet window by
window.  :func:`simulate_cluster` is one shard with exact per-request
records; :func:`simulate_cluster_sharded` runs K shards on sketches.

``fleet``
    Chip kinds (standard / sparse-heavy / dense-heavy), model placement,
    fleet parsing.
``routing``
    Front-end policies: round-robin, least-outstanding-work,
    sparsity-aware affinity.
``admission``
    Bounded per-chip queues and load shedding.
``autoscale``
    Queue-pressure autoscaler parameters and scaling events.
``sharding``
    :class:`ShardState` and the window coordinator (shard routing,
    autoscaler loop, SLO and alert monitors).
``simulate``
    :class:`ClusterSimulation`: the whole fleet as one inline shard.
``report``
    Fleet-aggregate and per-chip statistics, reusing the serving layer's
    percentile machinery.

Registered experiments: ``cluster_scaling_curve``,
``cluster_routing_ablation``, ``cluster_multitenant_fairness``,
``cluster_planet_scale`` and ``cluster_sharding_bench`` (see
``repro.harness.experiments``); docs/CLUSTER.md describes the fleet
model, routing policies, and autoscaler semantics.
"""

from .admission import (
    AdmissionConfig,
    ShedRecord,
    TenantAdmission,
    eligible_chips,
)
from .autoscale import AutoscaleConfig, ScalingEvent
from .fleet import (
    CHIP_KINDS,
    ChipSpec,
    FleetSpec,
    chip_config,
    fleet_capacity_rps,
    homogeneous_fleet,
    load_chip_kinds,
    parse_fleet,
    register_chip_kind,
)
from .report import (
    ChipReport,
    ClusterReport,
    ShardChipStats,
    WindowStats,
    build_sharded_cluster_report,
    tenant_report,
)
from .routing import (
    POLICIES,
    LeastOutstanding,
    RoundRobin,
    RoutingPolicy,
    SparsityAffinity,
    make_policy,
)
from .sharding import (
    SHARD_POLICIES,
    ShardInit,
    ShardState,
    ShardingConfig,
    WindowDigest,
    partition_fleet,
    simulate_cluster_sharded,
)
from .simulate import ClusterSimulation, simulate_cluster

__all__ = [
    "AdmissionConfig",
    "AutoscaleConfig",
    "CHIP_KINDS",
    "ChipReport",
    "ChipSpec",
    "ClusterReport",
    "ClusterSimulation",
    "FleetSpec",
    "LeastOutstanding",
    "POLICIES",
    "RoundRobin",
    "RoutingPolicy",
    "SHARD_POLICIES",
    "ScalingEvent",
    "ShardChipStats",
    "ShardInit",
    "ShardState",
    "ShardingConfig",
    "ShedRecord",
    "SparsityAffinity",
    "TenantAdmission",
    "WindowDigest",
    "WindowStats",
    "build_sharded_cluster_report",
    "chip_config",
    "eligible_chips",
    "fleet_capacity_rps",
    "homogeneous_fleet",
    "load_chip_kinds",
    "make_policy",
    "parse_fleet",
    "partition_fleet",
    "register_chip_kind",
    "simulate_cluster",
    "simulate_cluster_sharded",
    "tenant_report",
]

"""The cluster simulation entry: N Bishop chips behind a front-end router.

:class:`ClusterSimulation` runs the window coordinator of
:mod:`repro.cluster.sharding` with the whole fleet in **one inline
shard**: one engine clock, a router that sees every chip, and each
chip's :class:`~repro.serve.simulate.ChipServer` dispatching exactly as
the single-chip simulator does (the N=1 special case).  The window is
the autoscale interval, or one window spanning the arrival stream.
Unlike :func:`~repro.cluster.simulate_cluster_sharded`, this entry keeps
exact per-request records, the ``ShedRecord`` list, and the engine run.
"""

from __future__ import annotations

from .. import obs
from ..arch.energy import EnergyModel
from ..serve.scheduler import SchedulerConfig
from ..serve.workload import Request, TenantSpec
from .admission import AdmissionConfig
from .autoscale import AutoscaleConfig
from .fleet import FleetSpec
from .report import ClusterReport
from .routing import RoutingPolicy
from .sharding import _coordinate

__all__ = ["ClusterSimulation", "simulate_cluster"]


class ClusterSimulation:
    """A fleet of Bishop chips serving one arrival stream.

    Parameters
    ----------
    fleet:
        The chips: kinds and model placement (``repro.cluster.fleet``).
    scheduler:
        Per-chip dispatch policy, identical semantics to single-chip
        serving (``max_batch`` / ``max_inflight``).
    policy:
        Routing policy name (``round_robin`` / ``least_work`` /
        ``sparsity``) or a :class:`RoutingPolicy` instance.
    admission:
        Bounded-queue admission control; default unbounded.
    autoscale:
        Reactive replica scaling; default off (fixed fleet).
    bs_t / bs_n / seed:
        Bundle shape and trace seed for per-chip model profiles; ``seed``
        also only enters workload generation upstream, so one seed
        reproduces the whole experiment.
    passes:
        Compiler pass spec for the per-chip programs (``"all"`` /
        ``"none"`` / ``"packing+stratify+schedule"`` …); chips of the
        same kind share one compiled program through the program cache.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        scheduler: SchedulerConfig | None = None,
        policy: str | RoutingPolicy = "least_work",
        admission: AdmissionConfig | None = None,
        autoscale: AutoscaleConfig | None = None,
        *,
        bs_t: int = 2,
        bs_n: int = 4,
        seed: int = 0,
        energy: EnergyModel | None = None,
        record_timeline: bool = False,
        passes: str | None = None,
        tenants: tuple[TenantSpec, ...] = (),
    ):
        self.fleet = fleet
        self.scheduler = scheduler or SchedulerConfig()
        self.policy = policy
        self.admission = admission or AdmissionConfig()
        self.tenants = tuple(tenants)
        self.autoscale = autoscale
        self.bs_t = bs_t
        self.bs_n = bs_n
        self.seed = seed
        self.passes = passes
        self.energy = energy or EnergyModel()
        self.record_timeline = record_timeline

    def run(self, requests: list[Request]) -> ClusterReport:
        """Serve ``requests`` on the fleet; returns the cluster report."""
        with obs.span(
            "cluster.run", cat="cluster",
            chips=len(self.fleet), requests=len(requests),
        ):
            return _coordinate(
                requests, self.fleet, self.scheduler, self.policy,
                self.admission, self.autoscale, None, self.energy,
                bs_t=self.bs_t, bs_n=self.bs_n, seed=self.seed,
                passes=self.passes, tenants=self.tenants,
                record_timeline=self.record_timeline,
            )


def simulate_cluster(
    requests: list[Request],
    fleet: FleetSpec,
    scheduler: SchedulerConfig | None = None,
    policy: str | RoutingPolicy = "least_work",
    admission: AdmissionConfig | None = None,
    autoscale: AutoscaleConfig | None = None,
    *,
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
    energy: EnergyModel | None = None,
    record_timeline: bool = False,
    passes: str | None = None,
    tenants: tuple[TenantSpec, ...] = (),
) -> ClusterReport:
    """One-call form of :class:`ClusterSimulation` (mirrors
    :func:`repro.serve.simulate_serving`)."""
    return ClusterSimulation(
        fleet,
        scheduler,
        policy,
        admission,
        autoscale,
        bs_t=bs_t,
        bs_n=bs_n,
        seed=seed,
        energy=energy,
        record_timeline=record_timeline,
        passes=passes,
        tenants=tenants,
    ).run(requests)

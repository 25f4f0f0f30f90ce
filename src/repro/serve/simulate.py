"""Multi-request serving simulation on the discrete-event engine.

The serving loop of one chip is packaged as a :class:`ChipServer`: a
ready pool (optionally bounded), a dispatcher that opens a **lane** per
free inference slot, and lanes that replay one quantum at a time for the
group the :class:`~repro.serve.continuous.ContinuousBatchScheduler`
picks, contending with every other lane for the dense/sparse/attention
cores, the spike generator, and the DRAM channel.  The scheduler mode
only sizes the quantum: the whole compiled program in static mode (a
batch runs to completion), one compiled stage in continuous mode.

There is one serving path.  Every chip server is built and fed by a
shard of the cluster coordinator (:mod:`repro.cluster.sharding`), and
:func:`simulate_serving` is its one-chip case: a fleet of one
``standard`` chip (``chip0``) in one inline shard, whose cluster report
is re-read as a :class:`~repro.serve.report.ServingReport` — latency
percentiles, throughput, queue waits, per-resource utilization, and chip
energy (dynamic per work done + static over the horizon).  One chip and
a fleet therefore share one engine wiring, one report builder and one
set of end-of-run checks (served + shed == offered, sketch count ==
served, busy <= capacity x span, the stall guard).
"""

from __future__ import annotations

from dataclasses import replace

from .. import obs
from ..arch.engine.kernel import Engine, WaitFor
from ..arch.engine.machine import (
    BishopMachine,
    inference_process,
    scheduled_inference_process,
    stage_process,
)
from ..arch.engine.timeline import TimelineEntry
from ..arch.energy import EnergyModel
from .continuous import ContinuousBatchScheduler, StageEntry
from .profiles import RequestProfile
from .report import ServedRequest, ServingReport
from .scheduler import SchedulerConfig
from .workload import Request, TenantSpec

__all__ = ["ChipServer", "simulate_serving"]


class ChipServer:
    """One chip's serving loop: ready pool, dispatch, lanes.

    The server owns the mutable serving state of a single
    :class:`~repro.arch.engine.machine.BishopMachine` — the ready pool
    (optionally bounded, for admission control), the in-flight count, the
    completion counters, and the chip's dynamic energy.  A cluster shard
    builds every chip server: its router talks to it through
    :meth:`enqueue` / :meth:`has_queue_capacity` / :attr:`outstanding_s`,
    and each completion streams to the shard as a ``ServedRequest``
    through ``recorder.observe(record)``.
    """

    def __init__(
        self,
        engine: Engine,
        machine: BishopMachine,
        profiles: dict[str, RequestProfile],
        scheduler: SchedulerConfig,
        *,
        name: str,
        recorder: object,
        kind: str = "standard",
        queue_capacity: int | None = None,
        timeline: list[TimelineEntry] | None = None,
        tenants: tuple[TenantSpec, ...] = (),
    ):
        self.engine = engine
        self.machine = machine
        self.profiles = profiles
        self.scheduler = scheduler
        self.name = name
        self.kind = kind
        self.queue_capacity = queue_capacity   # validated by AdmissionConfig
        self.timeline = timeline
        self.recorder = recorder
        self.batcher = ContinuousBatchScheduler(scheduler, profiles, tenants)
        self.work = engine.gate()
        self.inflight = 0
        self.served_count = 0
        self.batch_size_weighted = 0.0   # Σ per-request batch size
        self.dynamic_energy_pj = 0.0
        self.outstanding_s = 0.0     # estimated queued + in-flight work
        self.accepting = True        # routing eligibility (autoscaler drain)
        self.closed = False          # no further arrivals will ever come
        self.started_s = engine.now  # chips added mid-run start later
        self.drained_s: float | None = None
        self._lanes = 0
        self._process = engine.spawn(
            self._schedule_loop(), name=f"{name}:scheduler"
        )

    # -- router-facing interface ------------------------------------------
    def hosts(self, model: str) -> bool:
        return model in self.profiles

    def has_queue_capacity(self) -> bool:
        return self.queue_capacity is None or self.queue_depth < self.queue_capacity

    @property
    def queue_depth(self) -> int:
        return self.batcher.queue_depth

    def service_estimate_s(self, model: str) -> float:
        """Uncontended single-request latency of ``model`` on this chip."""
        return self.profiles[model].single_latency_s

    def enqueue(self, request: Request) -> None:
        if self.closed:
            raise RuntimeError(f"chip {self.name!r} is closed")
        self.batcher.add(request)
        obs.inc("serve.admitted")
        obs.set_gauge("serve.queue_depth", self.queue_depth)
        self.outstanding_s += self.service_estimate_s(request.model)
        self.work.signal()

    def close(self) -> None:
        """No more arrivals: drain the queue, then let the scheduler exit."""
        self.closed = True
        self.work.signal()

    @property
    def idle(self) -> bool:
        return self.batcher.empty and self.inflight == 0

    # -- serving processes -------------------------------------------------
    def _schedule_loop(self):
        # Lanes are the chip's inference slots: each runs one execution
        # group at a time, re-consulting the scheduler at every quantum
        # boundary; a lane exits when the ready pool is dry and is
        # respawned on the next arrival.
        while True:
            if (
                not self.batcher.empty
                and self.inflight < self.scheduler.max_inflight
            ):
                self.inflight += 1
                lane = self._lanes
                self._lanes += 1
                name = f"{self.name}:lane{lane}"
                self.engine.spawn(self._run_lane(), name=name)
                continue
            if self.closed and self.batcher.empty:
                self._maybe_mark_drained()
                return
            yield WaitFor(self.work)

    def _maybe_mark_drained(self) -> None:
        # Fully idle after close: the dispatcher may exit while lanes are
        # still running, so the last lane also checks.
        if self.closed and self.idle and self.drained_s is None:
            self.drained_s = self.engine.now

    def _run_lane(self):
        """One inference slot.

        The lane asks the scheduler for an execution group at every
        quantum boundary (handing back its previous group, so joins,
        leaves, WFQ switches, and preemptions all happen here), replays
        exactly one quantum for the whole group, then repeats; it exits
        when the ready pool is dry.
        """
        sched = self.batcher
        group: list[StageEntry] = []
        while True:
            group, stage, preempted, joined = sched.select(group)
            for entry in preempted:
                obs.inc("serve.preemptions")
                with obs.span(
                    "serve.preempt", cat="serve",
                    request=entry.request.index,
                    priority=entry.request.priority,
                    resume_stage=entry.completed,
                    chip=self.name,
                ):
                    pass
            if joined:
                obs.inc("serve.continuous_joins", joined)
            if not group:
                break
            head = group[0]
            profile = self.profiles[head.request.model]
            size = len(group)
            for entry in group:
                if entry.start_s is None:
                    entry.start_s = self.engine.now
            if self.scheduler.continuous:
                timing = profile.timings[stage]
                label = f"{self.name}/c{head.cohort}x{size}/L{stage}.{timing.kind}"
                obs.inc("serve.stage_groups")
                yield from stage_process(
                    self.engine, self.machine, timing, label, size, self.timeline
                )
                self.dynamic_energy_pj += timing.batch_dynamic_pj(size)
            else:
                # The whole program: profiles compiled with the scheduling
                # pass replay under the depth-1 weight-prefetch schedule,
                # others layer-serially.
                process = (
                    scheduled_inference_process
                    if profile.scheduled
                    else inference_process
                )
                label = f"{self.name}/b{head.request.index}x{size}"
                yield from process(
                    self.engine, self.machine, profile.timings, label, size,
                    self.timeline,
                )
                obs.inc("serve.batches")
                obs.observe("serve.batch_size", size)
                self.dynamic_energy_pj += profile.batch_dynamic_pj(size)
            finished = sched.stage_done(group, stage, self.engine.now)
            if finished:
                self._finish_entries(finished)
                group = [e for e in group if not e.done]
        self.inflight -= 1
        self._maybe_mark_drained()
        self.work.signal()

    def _finish_entries(self, finished: list[StageEntry]) -> None:
        for entry in finished:
            request = entry.request
            record = ServedRequest(
                index=request.index,
                model=request.model,
                arrival_s=request.arrival_s,
                start_s=entry.start_s,
                finish_s=entry.finish_s,
                batch_size=entry.max_group,
                chip=self.name,
                tenant=request.tenant,
                priority=request.priority,
                preemptions=entry.preemptions,
            )
            self.served_count += 1
            self.batch_size_weighted += float(entry.max_group)
            self.recorder.observe(record)
            self.outstanding_s -= self.service_estimate_s(request.model)


def simulate_serving(
    requests: list[Request],
    scheduler: SchedulerConfig | None = None,
    profiles: dict[str, RequestProfile] | None = None,
    bs_t: int = 2,
    bs_n: int = 4,
    seed: int = 0,
    energy: EnergyModel | None = None,
    record_timeline: bool = False,
    passes: str | None = None,
    tenants: tuple[TenantSpec, ...] = (),
) -> ServingReport:
    """Serve an arrival stream on one Bishop chip; returns the report.

    The one-chip case of the cluster coordinator: a fleet of one
    ``standard`` chip named ``chip0`` in one inline recording shard, so
    records carry ``chip == "chip0"`` and the engine run's resources and
    timeline use ``chip0.<unit>`` names (``utilization`` keeps bare unit
    keys).  A lone chip has no front door: every arrival is admitted and
    tenant quotas are not enforced; tenants set the WFQ weights only.

    ``profiles`` may be passed explicitly (e.g. to serve custom task
    graphs) and then takes precedence over ``bs_t``/``bs_n``/``seed`` for
    the models it covers; by default each model's profile is compiled (and
    program-cached) from its Table-2 synthetic trace, with ``passes``
    selecting the compiler passes.  An empty stream yields an empty
    (all-zero) report rather than raising.
    """
    # Imported here: repro.cluster imports this module.
    from ..cluster.admission import AdmissionConfig
    from ..cluster.fleet import homogeneous_fleet
    from ..cluster.sharding import _coordinate

    scheduler = scheduler or SchedulerConfig()
    with obs.span(
        "serve.simulate", cat="serve",
        requests=len(requests), policy=scheduler.policy,
    ):
        cluster = _coordinate(
            requests, homogeneous_fleet(1), scheduler, "round_robin",
            AdmissionConfig(), None, None, energy or EnergyModel(),
            bs_t=bs_t, bs_n=bs_n, seed=seed, passes=passes,
            tenants=tuple(replace(spec, quota=None) for spec in tenants),
            record_timeline=record_timeline,
            profiles=profiles,
        )
    (chip,) = cluster.chips.values()
    return ServingReport(
        num_requests=cluster.served,
        offered_rps=cluster.offered_rps,
        horizon_s=cluster.horizon_s,
        throughput_rps=cluster.throughput_rps,
        latency_percentiles_ms=cluster.latency_percentiles_ms,
        latency_mean_ms=cluster.latency_mean_ms,
        latency_max_ms=cluster.latency_max_ms,
        queue_wait_mean_ms=cluster.queue_wait_mean_ms,
        mean_batch_size=chip.mean_batch_size,
        utilization=chip.utilization,
        dynamic_energy_mj=chip.dynamic_energy_mj,
        static_energy_mj=chip.static_energy_mj,
        policy=scheduler.policy,
        max_batch=scheduler.max_batch,
        max_inflight=scheduler.max_inflight,
        mode=scheduler.mode,
        preemptions=chip.preemptions,
        continuous_joins=chip.continuous_joins,
        tenant_service_s={
            tenant: block["service_s"]
            for tenant, block in cluster.tenants.items()
        },
        requests=cluster.requests,
        run=cluster.run,
    )

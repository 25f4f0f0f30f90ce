"""The benchmark's three workloads: set-up, the timed call, output checks.

Each workload is an object with three methods, run in this order by
``worker.py`` inside one fresh interpreter:

``setup(seed)``
    Builds every input from the seed (synthetic traces, cold compiles,
    capacity estimates, arrival streams).  Timed as ``setup_s``.
``run(inputs)``
    The timed simulation call(s), timed as ``run_s``.
``check(inputs, outputs)``
    Verifies the outputs and returns a :class:`Checked` record: how many
    operations were checked and how many failed, a digest of the
    simulated output, and headline simulated values.

The workloads call only public functions of the ``repro`` layers.  Spans
opened here are no-ops unless the traced run enabled telemetry, so the
timed and the traced runs execute the same code.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass, field, replace

from repro import obs
from repro.algo import ECPConfig
from repro.arch import BishopConfig
from repro.arch.energy import EnergyModel
from repro.arch.engine.machine import simulate_inference
from repro.baselines import EdgeGPU, PTBAccelerator
from repro.bundles import BundleSpec
from repro.cluster import (
    AdmissionConfig,
    ShardingConfig,
    fleet_capacity_rps,
    homogeneous_fleet,
    simulate_cluster_sharded,
)
from repro.cluster.fleet import chip_config
from repro.compiler import cache, passes
from repro.harness import synthetic
from repro.harness.endtoend import ECP_THETA
from repro.model import model_config
from repro.serve import (
    SchedulerConfig,
    assign_priorities,
    assign_tenants,
    diurnal_arrivals,
    parse_model_mix,
    parse_tenants,
    poisson_arrivals,
    request_profile,
    simulate_serving,
)
from repro.serve.profiles import profile_config

__all__ = ["Checked", "WORKLOADS"]

# Headroom for float round-off in utilization = busy / span.
_UTIL_EPS = 1e-9


@dataclass
class Checked:
    """The verdict on one run's outputs."""

    attempted: int
    failed: int
    requests: int                  # simulated requests (or inferences) completed
    digest: str
    headline: dict
    problems: list[str] = field(default_factory=list)


def _digest(payload) -> str:
    """SHA-256 of a canonical JSON rendering (floats at full precision)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# paper_grid: the Fig. 12/13 five-system comparison
# ----------------------------------------------------------------------
class PaperGrid:
    """GPU, PTB, Bishop, +BSA and +BSA+ECP on a fixed zoo subset.

    The Bishop systems run the body of ``BishopAccelerator.run_trace``
    (``compile_trace`` -> ``materialize_report`` -> ``simulate_inference``)
    so the compile layer is timed on its own; the accelerators are called
    directly, bypassing ``run_model_comparison``'s ``lru_cache``.
    """

    name = "paper_grid"
    # model4 alone keeps one repetition near 4 s, so a run holds enough
    # repetitions for a steady median (model2 alone takes ~9 s, model5 44 s).
    models = ("model4",)
    systems = ("gpu", "ptb", "bishop", "bishop_bsa", "bishop_bsa_ecp")
    spec = BundleSpec(2, 4)
    # Paper speedups over PTB and the tolerances of
    # benchmarks/test_fig12_end_to_end_latency.py.
    paper_speedups = {
        "model4": {"bishop": 3.30, "bishop_bsa": 3.81, "bishop_bsa_ecp": 4.06},
    }

    def operations(self, inputs: dict) -> int:
        return len(self.models) * len(self.systems)

    def setup(self, seed: int) -> dict:
        # Called through the module so the traced run's wrapper sees it.
        traces = {}
        for model in self.models:
            config = model_config(model)
            profile = synthetic.PROFILES[model]
            traces[model] = (
                synthetic.synthetic_trace(config, profile, self.spec, seed=seed),
                synthetic.synthetic_trace(
                    config, profile.bsa_variant(), self.spec, seed=seed
                ),
            )
        return {"traces": traces}

    def _bishop(self, trace, ecp):
        config = BishopConfig(bundle_spec=self.spec)
        energy = EnergyModel()
        program = passes.compile_trace(trace, config, energy, ecp=ecp)
        with obs.span("compiler.materialize", cat="bench"):
            report = passes.materialize_report(program)
        with obs.span("arch.simulate_inference", cat="bench"):
            report.engine_run = simulate_inference(report, config, energy)
        return report

    def run(self, inputs: dict) -> dict:
        results: dict[str, dict] = {}
        for model, (trace, trace_bsa) in inputs["traces"].items():
            theta = ECP_THETA[model]
            ecp = ECPConfig(theta_q=theta, theta_k=theta, spec=self.spec)
            calls = {
                "gpu": ("baselines.gpu", lambda: EdgeGPU().run_trace(trace)),
                "ptb": ("baselines.ptb", lambda: PTBAccelerator().run_trace(trace)),
                "bishop": ("arch.bishop", lambda: self._bishop(trace, None)),
                "bishop_bsa": ("arch.bishop", lambda: self._bishop(trace_bsa, None)),
                "bishop_bsa_ecp": ("arch.bishop", lambda: self._bishop(trace_bsa, ecp)),
            }
            row: dict[str, object] = {}
            for system, (span, call) in calls.items():
                try:
                    with obs.span(span, cat="bench", model=model, system=system):
                        report = call()
                    row[system] = (report.total_latency_s, report.total_energy_mj)
                except Exception:  # one failed (model, system) run, counted
                    traceback.print_exc(file=sys.stderr)
                    row[system] = None
            results[model] = row
        return results

    def check(self, inputs: dict, outputs: dict) -> Checked:
        failed: set[tuple[str, str]] = set()
        problems: list[str] = []
        speedups: dict[str, dict] = {}

        def fail(model: str, system: str, why: str) -> None:
            failed.add((model, system))
            problems.append(f"{model}/{system}: {why}")

        for model in self.models:
            row = outputs.get(model, {})
            latency = {}
            for system in self.systems:
                result = row.get(system)
                if result is None:
                    fail(model, system, "did not run")
                elif not all(math.isfinite(v) and v > 0 for v in result):
                    fail(model, system, f"bad latency/energy {result}")
                else:
                    latency[system] = result[0]
            if len(latency) < len(self.systems):
                continue
            speedup = {s: latency["ptb"] / latency[s] for s in self.systems}
            speedups[model] = speedup
            if speedup["bishop"] <= 1.0:
                fail(model, "bishop", f"no speedup over PTB ({speedup['bishop']:.3f})")
            if not (
                speedup["bishop"]
                <= speedup["bishop_bsa"] * 1.001
                <= speedup["bishop_bsa_ecp"] * 1.002
            ):
                for system in ("bishop_bsa", "bishop_bsa_ecp"):
                    fail(model, system, "bishop <= bsa <= bsa_ecp ordering broken")
            for system, paper in self.paper_speedups[model].items():
                if not 0.5 * paper < speedup[system] < 2.0 * paper:
                    fail(model, system, f"speedup {speedup[system]:.3f} outside"
                         f" 0.5x-2x of paper {paper}")
            gpu = latency["gpu"] / latency["bishop_bsa_ecp"]
            if not 50 < gpu < 900:
                fail(model, "gpu", f"bishop_bsa_ecp speedup over GPU {gpu:.1f}"
                     " outside (50, 900)")
        attempted = self.operations(inputs)
        return Checked(
            attempted=attempted,
            failed=len(failed),
            requests=attempted - len(failed),
            digest=_digest(outputs),
            headline={
                model: {
                    **{f"{s}_vs_ptb": speedup[s] for s in self.paper_speedups[model]},
                    "bishop_bsa_ecp_vs_gpu": speedup["bishop_bsa_ecp"] / speedup["gpu"],
                }
                for model, speedup in speedups.items()
            },
            problems=problems,
        )


# ----------------------------------------------------------------------
# Shared serving checks
# ----------------------------------------------------------------------
class _Serving:
    """Serving workloads check every offered request."""

    def operations(self, inputs: dict) -> int:
        return len(inputs["stream"])


def _utilization_problems(utilization: dict, where: str) -> list[str]:
    return [
        f"{where} utilization[{unit}] = {value!r} > 1"
        for unit, value in utilization.items()
        if not value <= 1.0 + _UTIL_EPS
    ]


# ----------------------------------------------------------------------
# fleet_diurnal: a 1,000-chip sharded fleet, uncontended
# ----------------------------------------------------------------------
class FleetDiurnal(_Serving):
    """A seeded diurnal day on a 1,000-chip ``standard`` fleet, 10 shards."""

    name = "fleet_diurnal"
    chips = 1000
    shards = 10
    num_requests = 2000
    rho_peak = 0.8
    mix = "model4"

    def setup(self, seed: int) -> dict:
        weights = parse_model_mix(self.mix)
        with obs.span("compiler.compile_model", cat="bench"):
            for model in weights:
                cache.compile_model(
                    model, chip_config("standard"), seed=seed, passes="all"
                )
        fleet = homogeneous_fleet(self.chips, "standard")
        with obs.span("cluster.capacity", cat="bench"):
            capacity = fleet_capacity_rps(fleet, weights, seed=seed, passes="all")
        peak = self.rho_peak * capacity
        with obs.span("serve.arrivals", cat="bench"):
            stream = diurnal_arrivals(
                self.num_requests, peak, weights, seed,
                period_s=self.num_requests / (0.625 * peak),
            )
        return {
            "stream": stream,
            "fleet": fleet,
            "seed": seed,
            # The cluster_planet_scale defaults: ~32 windows, SLO = 20x
            # the mean single-request service time.
            "window_s": stream[-1].arrival_s / 32.0,
            "slo_ms": 20.0 * self.chips / capacity * 1e3,
        }

    def run(self, inputs: dict):
        return simulate_cluster_sharded(
            inputs["stream"],
            inputs["fleet"],
            SchedulerConfig(max_batch=1, max_inflight=2),
            policy="least_work",
            admission=AdmissionConfig(queue_capacity=None),
            sharding=ShardingConfig(
                num_shards=self.shards, window_s=inputs["window_s"], jobs=1,
                shard_policy="least_backlog",
            ),
            seed=inputs["seed"],
            passes="all",
            slo_ms=inputs["slo_ms"],
            alerts=True,
        )

    def check(self, inputs: dict, report) -> Checked:
        offered = len(inputs["stream"])
        problems: list[str] = []
        if report.served + report.shed != offered:
            problems.append(f"served {report.served} + shed {report.shed}"
                            f" != offered {offered}")
        sketch = report.latency_sketch.count
        if sketch != report.served:
            problems.append(f"latency sketch count {sketch} != served {report.served}")
        chip_served = sum(chip.requests_served for chip in report.chips.values())
        if chip_served != report.served:
            problems.append(f"per-chip served {chip_served} != served {report.served}")
        window_totals = (
            sum(w.arrivals for w in report.windows),
            sum(w.served for w in report.windows),
            sum(w.shed for w in report.windows),
        )
        if window_totals != (offered, report.served, report.shed):
            problems.append(f"window (arrivals, served, shed) {window_totals}"
                            f" != ({offered}, {report.served}, {report.shed})")
        for name, chip in report.chips.items():
            problems += _utilization_problems(chip.utilization, name)
        # Aggregate invariants cover every request, so any breach fails them all.
        failed = offered if problems else 0
        return Checked(
            attempted=offered,
            failed=failed,
            requests=report.served,
            digest=_digest(report.to_dict()),
            headline={
                "served": report.served,
                "shed": report.shed,
                "p50_ms": report.latency_percentiles_ms["p50"],
                "p99_ms": report.latency_percentiles_ms["p99"],
                "windows": len(report.windows),
                "alerts": len(report.alerts),
            },
            problems=problems,
        )


# ----------------------------------------------------------------------
# chip_contended: one chip, continuous batching, priorities and WFQ
# ----------------------------------------------------------------------
class ChipContended(_Serving):
    """Poisson arrivals at rho 1.2 on one chip, continuous scheduler."""

    name = "chip_contended"
    num_requests = 2000
    rho = 1.2
    mix = "model2+model4"
    priorities = "0:0.8+1:0.2"
    tenants = "gold:3+silver:1"
    scheduler = SchedulerConfig(max_batch=4, max_inflight=2, mode="continuous")

    def setup(self, seed: int) -> dict:
        weights = parse_model_mix(self.mix)
        with obs.span("compiler.compile_model", cat="bench"):
            for model in weights:
                cache.compile_model(model, profile_config(), seed=seed, passes="all")
        latency = {
            model: request_profile(model, seed=seed, passes="all").single_latency_s
            for model in weights
        }
        mean_latency = sum(weight * latency[m] for m, weight in weights.items())
        tenants = parse_tenants(self.tenants)
        with obs.span("serve.arrivals", cat="bench"):
            stream = poisson_arrivals(
                self.num_requests, self.rho / mean_latency, weights, seed
            )
            # Rescale time so this realization offers exactly rho.  Above
            # rho = 1 the backlog grows at (rho - 1), and the scheduler's
            # scans grow with the backlog: a 3% seed-to-seed wobble in the
            # offered load would move run_s by ~15%.
            work = sum(latency[request.model] for request in stream)
            scale = work / (self.rho * stream[-1].arrival_s)
            stream = [
                replace(request, arrival_s=request.arrival_s * scale)
                for request in stream
            ]
            stream = assign_priorities(stream, self.priorities, seed)
            stream = assign_tenants(stream, tenants, seed)
        return {"stream": stream, "tenants": tenants, "seed": seed}

    def run(self, inputs: dict):
        return simulate_serving(
            inputs["stream"],
            self.scheduler,
            seed=inputs["seed"],
            passes="all",
            tenants=inputs["tenants"],
        )

    def check(self, inputs: dict, report) -> Checked:
        stream = inputs["stream"]
        offered = {request.index for request in stream}
        problems: list[str] = []
        seen: set[int] = set()
        bad = 0
        for served in report.requests:
            ordered = served.arrival_s <= served.start_s <= served.finish_s
            if served.index in seen or served.index not in offered or not ordered:
                bad += 1
            seen.add(served.index)
        missing = len(offered - seen)
        if bad or missing:
            problems.append(f"{missing} requests missing, {bad} duplicate,"
                            " unknown or out of order")
        if report.num_requests != len(stream):
            problems.append(f"served {report.num_requests} != offered {len(stream)}")
        problems += _utilization_problems(report.utilization, "chip")
        failed = len(stream) if problems else 0
        payload = report.to_dict()
        payload["requests"] = [
            (r.index, r.start_s, r.finish_s, r.batch_size, r.preemptions)
            for r in report.requests
        ]
        return Checked(
            attempted=len(stream),
            failed=failed,
            requests=report.num_requests,
            digest=_digest(payload),
            headline={
                "p50_ms": report.latency_percentiles_ms["p50"],
                "p99_ms": report.latency_percentiles_ms["p99"],
                "preemptions": report.preemptions,
                "continuous_joins": report.continuous_joins,
                "tenant_share": {
                    tenant: round(block["service_share"], 4)
                    for tenant, block in payload.get("tenants", {}).items()
                },
            },
            problems=problems,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (PaperGrid(), FleetDiurnal(), ChipContended())
}

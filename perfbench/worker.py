"""One timed (or traced) run of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWNED``

``SPAWNED`` is the ``CLOCK_MONOTONIC`` reading the parent took just
before starting this process, so ``setup_s`` covers interpreter start,
imports and input generation.  The result is printed as one JSON line.

With ``TRACE=1`` telemetry is enabled before set-up and the worker
installs its own instruments, in this process only: call counters on
``Engine.schedule`` (kernel events) and ``TTBGrid.__init__`` (TTB grid
builds), and spans around ``synthetic_trace`` / ``compile_trace``, which
``compile_model`` calls internally.  Per-layer times come from the
existing ``repro.obs.analyze.self_time`` rollup of the span tree.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import asdict

import numpy
from workloads import WORKLOADS, Checked

from repro import obs
from repro.arch.engine.fastpath import engine_mode
from repro.arch.engine.kernel import Engine
from repro.bundles.ttb import TTBGrid
from repro.compiler import package_code_hash


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Spans wrapped around functions the program also calls internally; the
# workloads call them through these module attributes too.
_WRAPPED_SPANS = (
    ("repro.harness.synthetic", "synthetic_trace", "harness.synthetic_trace"),
    ("repro.compiler.passes", "compile_trace", "compiler.compile_trace"),
    ("repro.compiler.cache", "compile_trace", "compiler.compile_trace"),
)

# Every per-layer metric: name -> (source kind, span or counter name).
#   self  - self time of a span name (s)     total - inclusive time (s)
#   count - obs registry counter             spans - number of spans
LAYER_METRICS = {
    "harness.synthetic_trace_s": ("self", "harness.synthetic_trace"),
    "compiler.compile_model_s": ("total", "compiler.compile_model"),
    "compiler.compile_trace_s": ("self", "compiler.compile_trace"),
    "compiler.pass.ingest_s": ("self", "compile.pass.ingest"),
    "compiler.pass.packing_s": ("self", "compile.pass.packing"),
    "compiler.pass.ecp_s": ("self", "compile.pass.ecp"),
    "compiler.pass.stratify_s": ("self", "compile.pass.stratify"),
    "compiler.pass.lower_s": ("self", "compile.pass.lower"),
    "compiler.pass.schedule_s": ("self", "compile.pass.schedule"),
    "compiler.materialize_s": ("total", "compiler.materialize"),
    "arch.simulate_inference_s": ("total", "arch.simulate_inference"),
    "baselines.ptb_s": ("total", "baselines.ptb"),
    "baselines.gpu_s": ("total", "baselines.gpu"),
    "cluster.capacity_s": ("total", "cluster.capacity"),
    "serve.arrivals_s": ("total", "serve.arrivals"),
    "cluster.sharded_s": ("total", "cluster.sharded"),
    "cluster.window_self_s": ("self", "cluster.window"),
    "cluster.shard_step_self_s": ("self", "cluster.shard.step"),
    "serve.simulate_s": ("total", "serve.simulate"),
    "engine.run_self_s": ("self", "engine.run"),
    "engine.simulate_self_s": ("self", "engine.simulate"),
    "cluster.windows": ("spans", "cluster.window"),
    "bundles.ttb_grids": ("count", "bundles.ttb_grids"),
    "compiler.stages": ("count", "compiler.stages"),
    "cache.program.hit": ("count", "cache.program.hit"),
    "cache.program.miss": ("count", "cache.program.miss"),
    "engine.events": ("count", "engine.events"),
    "serve.preemptions": ("count", "serve.preemptions"),
    "serve.continuous_joins": ("count", "serve.continuous_joins"),
    "serve.batches": ("count", "serve.batches"),
    "serve.stage_groups": ("count", "serve.stage_groups"),
}


def _count_calls(cls, method: str, counter: str) -> None:
    original = getattr(cls, method)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        obs.inc(counter)
        return original(*args, **kwargs)

    setattr(cls, method, counted)


def _wrap_span(module_name: str, attr: str, span: str) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)

    @functools.wraps(original)
    def spanned(*args, **kwargs):
        with obs.span(span, cat="bench"):
            result = original(*args, **kwargs)
        stages = getattr(result, "stages", None)
        if stages is not None:  # a compiled Program
            obs.inc("compiler.stages", len(stages))
        return result

    setattr(module, attr, spanned)


def instrument() -> None:
    """Enable telemetry and install the traced run's own instruments."""
    obs.enable()
    _count_calls(Engine, "schedule", "engine.events")
    _count_calls(TTBGrid, "__init__", "bundles.ttb_grids")
    for module_name, attr, span in _WRAPPED_SPANS:
        _wrap_span(module_name, attr, span)


def layer_metrics(requests: int) -> dict:
    """Every :data:`LAYER_METRICS` value from this process's telemetry."""
    rows = {row["name"]: row for row in obs.self_time(obs.tracer.chrome_trace())}
    values = {}
    for name, (kind, source) in LAYER_METRICS.items():
        row = rows.get(source)
        if kind == "count":
            values[name] = obs.registry.counter(source).value
        elif kind == "spans":
            values[name] = row["count"] if row else 0
        else:
            key = "self_us" if kind == "self" else "total_us"
            values[name] = row[key] * 1e-6 if row else 0.0
    values["engine.self_s"] = (
        values["engine.run_self_s"] + values["engine.simulate_self_s"]
    )
    values["bundles.ttb_grids_per_layer"] = (
        values["bundles.ttb_grids"] / max(values["compiler.stages"], 1)
    )
    values["engine.events_per_request"] = values["engine.events"] / max(requests, 1)
    return values


def main(argv: list[str]) -> int:
    name, seed, trace, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    workload = WORKLOADS[name]
    if trace:
        instrument()
    inputs = workload.setup(seed)
    setup_s = _now() - spawned
    start = time.perf_counter()
    try:
        outputs = workload.run(inputs)
    except Exception as exc:  # the timed call raised: every operation failed
        traceback.print_exc(file=sys.stderr)
        outputs = exc
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if isinstance(outputs, Exception):
        attempted = workload.operations(inputs)
        checked = Checked(
            attempted=attempted, failed=attempted, requests=0, digest="",
            headline={}, problems=[f"{type(outputs).__name__}: {outputs}"],
        )
    else:
        checked = workload.check(inputs, outputs)
    result = {
        **asdict(checked),
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "record": {
            "engine_mode": engine_mode(),
            "code_hash": package_code_hash(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
    }
    if trace:
        result["layers"] = layer_metrics(checked.requests)
        if obs.tracer.dropped:
            result["problems"].append(f"tracer dropped {obs.tracer.dropped} spans")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The repo benchmark: one command, three workloads, timed and traced runs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_diurnal --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``) with a cold
memory-only program cache, a scratch working directory and the
``REPRO_*`` switches stripped, one after another, until ``--seconds`` is
used up.  ``--trace 0`` reports the end-to-end metrics (medians over the
repetitions); ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Human-readable lines come first; the last line of
standard output is the JSON result.  The exit code is 1 when an output
check failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
# Environment switches that would change what or how the program runs.
STRIPPED_ENV = ("REPRO_ENGINE", "REPRO_TRACE", "REPRO_METRICS", "REPRO_TRACE_LIMIT")
WORKLOADS = ("paper_grid", "fleet_diurnal", "chip_contended")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "REPRO_PROGRAM_CACHE": "off",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(workload: str, seed: int, trace: bool, workdir: Path) -> dict:
    """One repetition in a fresh interpreter; returns the worker's result."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    command = [
        sys.executable, str(HERE / "worker.py"),
        workload, str(seed), "1" if trace else "0", repr(spawned),
    ]
    try:
        done = subprocess.run(
            command, cwd=workdir, env=_child_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker timed out after {CHILD_TIMEOUT_S}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def repeat(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[list[dict], list[dict]]:
    """Repetitions until ``seconds`` is used up (at least ``MIN_REPEATS``
    timed ones; with ``trace``, at least one untraced+traced pair).

    Returns the untraced and traced results.  A new repetition starts only
    if it is expected to finish within the budget.
    """
    minimum = 1 if trace else MIN_REPEATS
    timed: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        while True:
            began = time.monotonic()
            timed.append(run_child(workload, seed, False, workdir))
            if trace:
                traced.append(run_child(workload, seed, True, workdir))
            durations.append(time.monotonic() - began)
            elapsed = time.monotonic() - start
            if (
                len(durations) >= minimum
                and elapsed + statistics.median(durations) > seconds
            ):
                return timed, traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _median(results: list[dict], key: str) -> float:
    return statistics.median(result[key] for result in results)


def end_to_end(timed: list[dict]) -> dict:
    return {
        "setup_s": _median(timed, "setup_s"),
        "run_s": _median(timed, "run_s"),
        "sim_rps": statistics.median(r["requests"] / r["run_s"] for r in timed),
        "peak_rss_mb": _median(timed, "peak_rss_mb"),
    }


def per_layer(timed: list[dict], traced: list[dict]) -> dict:
    names = traced[0]["layers"]
    values = {
        name: statistics.median(r["layers"][name] for r in traced) for name in names
    }
    values["obs.trace_overhead"] = _median(traced, "run_s") / _median(timed, "run_s")
    return values


def verify(results: list[dict]) -> list[str]:
    """Problems across repetitions: failed checks, differing digests
    (including a traced repetition against an untraced one)."""
    problems = [p for result in results for p in result["problems"]]
    digests = {result["digest"] for result in results}
    if len(digests) > 1:
        problems.append(
            f"simulated-output digest differs between repetitions: {sorted(digests)}"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a checkout of the repo (src/repro"
              " or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        timed, traced = repeat(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    results = timed + traced
    values = per_layer(timed, traced) if args.trace else end_to_end(timed)
    problems = verify(results)
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    correct = failed == 0 and not problems

    first = timed[0]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f" repetitions={len(timed)} timed + {len(traced)} traced")
    print(f"  {'error_rate':<34} {failed / attempted:<14.6g} ratio"
          f" ({failed}/{attempted} checked operations failed)")
    units = {metric["name"]: metric["unit"] for metric in declared}
    for name, value in values.items():
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"  {name:<34} {value:<14.6g} {unit}")
    print("  run_s per repetition: " + " ".join(f"{r['run_s']:.4f}" for r in timed))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("record: " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        **first["record"],
        "digest": first["digest"],
        "headline": first["headline"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Asymptotic scaling bench — per-stage cost vs operation count.

Runs the estimate flow (bind → datapath → elaborate → techmap →
timing) stage by stage over a curve of corpus instances spanning the
micro (8 ops) to SoC (4096 ops) regime — better than two orders of
magnitude of op count — recording per stage:

* wall-clock seconds (the pipeline's own :attr:`Pipeline.timings`,
  measured in an uninstrumented pass — ``tracemalloc`` inflates
  allocation-heavy stages several-fold);
* peak Python-heap bytes (``tracemalloc``, reset per stage, in a
  second pass over a fresh pipeline);
* process peak RSS after the stage (``resource.getrusage``).

On the largest instance of the curve it additionally times the
compiled elaborator (:func:`elaborate_design`, what the flow runs)
against the seed one (:func:`elaborate_datapath`, the oracle) —
elaborate plus ``clean()`` — and records the
speedup; the run **fails** if the compiled path is less than
``REPRO_SCALE_MIN_SPEEDUP`` (default 3.0) times faster.

Results land in ``BENCH_scale.json`` at the repo root. When a previous
``BENCH_scale.json`` exists, its per-stage heap peaks are the memory
baseline: any (instance, stage) whose peak grew more than 25% (and
more than 1 MiB, to ignore allocator noise on tiny stages) fails the
run loudly. Set ``REPRO_SCALE_UPDATE=1`` to accept a deliberate
ceiling change and rewrite the baseline anyway.

This is a standalone script (not collected by pytest — the SoC points
cost tens of seconds each):

    PYTHONPATH=src python benchmarks/bench_scale.py

Knobs (environment variables): ``REPRO_SCALE_CURVE`` (comma-separated
corpus instance names; the default spans 8..4096 ops),
``REPRO_SCALE_BINDER`` (default ``lopass``), ``REPRO_SCALE_WIDTH``
(default 8), ``REPRO_SCALE_MIN_SPEEDUP`` (default 3.0),
``REPRO_SCALE_UPDATE`` (accept memory-baseline changes).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import tracemalloc

from repro.cdfg import load_benchmark
from repro.cdfg.corpus import corpus_instance
from repro.flow.pipeline import ESTIMATE_STAGES, Pipeline
from repro.flow.run import FlowConfig, prepare_flow_inputs
from repro.fpga.compile import elaborate_design
from repro.fpga.elaborate import elaborate_datapath
from repro.scheduling import list_schedule

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_scale.json")

#: Default curve: one instance per op-count decade step, 8 -> 4096.
_DEFAULT_CURVE = (
    "micro-n8-m50-d100-s0",
    "kernel-n32-m40-d100-s0",
    "wide-n96-m50-d90-s0",
    "huge-n256-m40-d100-s0",
    "huge-n512-m40-d100-s0",
    "huge-n1024-m40-d100-s0",
    "soc-n2048-m35-d80-s0",
    "soc-n4096-m35-d80-s0",
)

CURVE = tuple(
    name.strip()
    for name in os.environ.get(
        "REPRO_SCALE_CURVE", ",".join(_DEFAULT_CURVE)
    ).split(",")
    if name.strip()
)
BINDER = os.environ.get("REPRO_SCALE_BINDER", "lopass")
WIDTH = int(os.environ.get("REPRO_SCALE_WIDTH", "8"))
MIN_SPEEDUP = float(os.environ.get("REPRO_SCALE_MIN_SPEEDUP", "3.0"))
UPDATE_BASELINE = os.environ.get("REPRO_SCALE_UPDATE", "") == "1"

#: Memory-regression gate: >25% growth and >1 MiB absolute.
_MEM_RATIO = 1.25
_MEM_SLACK_BYTES = 1 << 20


def _mb(n_bytes: float) -> float:
    return round(n_bytes / 2**20, 2)


def _fresh_pipeline(name: str):
    instance = corpus_instance(name)
    schedule = list_schedule(load_benchmark(name), instance.constraints)
    registers, ports = prepare_flow_inputs(schedule)
    config = FlowConfig(width=WIDTH, flow="estimate")
    return instance, Pipeline(
        schedule, instance.constraints, BINDER, config, registers, ports
    )


def measure_instance(name: str) -> dict:
    """Two estimate flows: one for wall clock, one for memory peaks."""
    # Pass 1 — wall clock, uninstrumented.
    instance, pipe = _fresh_pipeline(name)
    for stage in ESTIMATE_STAGES:
        pipe.artifact(stage)
    walls = dict(pipe.timings)

    # Pass 2 — per-stage Python-heap peak and process RSS, on a fresh
    # pipeline so nothing is served from the first pass's cache.
    _, pipe = _fresh_pipeline(name)
    stages = {}
    tracemalloc.start()
    try:
        for stage in ESTIMATE_STAGES:
            tracemalloc.reset_peak()
            pipe.artifact(stage)
            _, heap_peak = tracemalloc.get_traced_memory()
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stages[stage] = {
                "wall_s": round(walls[stage], 4),
                "heap_peak_mb": _mb(heap_peak),
                "rss_mb": round(rss_kb / 1024, 1),
            }
    finally:
        tracemalloc.stop()
    total = sum(walls[stage] for stage in ESTIMATE_STAGES)
    print(f"{name:24s} ops {instance.n_ops:5d}  total {total:7.2f}s  " +
          "  ".join(
              f"{stage} {data['wall_s']:.2f}s/{data['heap_peak_mb']:.0f}MB"
              for stage, data in stages.items()
          ))
    return {
        "instance": name,
        "family": instance.family,
        "n_ops": instance.n_ops,
        "total_s": round(total, 4),
        "stages": stages,
    }


def elab_speedup(name: str) -> dict:
    """Fast vs reference elaborate+clean on one instance (best of 2)."""
    instance = corpus_instance(name)
    schedule = list_schedule(load_benchmark(name), instance.constraints)
    registers, ports = prepare_flow_inputs(schedule)
    config = FlowConfig(width=WIDTH, flow="estimate")
    pipe = Pipeline(
        schedule, instance.constraints, BINDER, config, registers, ports
    )
    datapath = pipe.artifact("datapath")
    timings = {}
    for label, elaborate in (("fast", elaborate_design),
                             ("reference", elaborate_datapath)):
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            elaborate(datapath)
            best = min(best, time.perf_counter() - started)
        timings[label] = best
    speedup = timings["reference"] / timings["fast"]
    print(f"elaborate+clean on {name}: fast {timings['fast']:.3f}s, "
          f"reference {timings['reference']:.3f}s -> {speedup:.2f}x")
    return {
        "instance": name,
        "fast_s": round(timings["fast"], 4),
        "reference_s": round(timings["reference"], 4),
        "speedup": round(speedup, 2),
    }


def check_memory_baseline(curve: list, baseline: dict) -> list:
    """(instance, stage, old, new) for every heap-peak regression."""
    old_stages = {
        point["instance"]: point["stages"]
        for point in baseline.get("curve", [])
    }
    regressions = []
    for point in curve:
        for stage, data in point["stages"].items():
            old = old_stages.get(point["instance"], {}).get(stage)
            if old is None:
                continue
            old_b = old["heap_peak_mb"] * 2**20
            new_b = data["heap_peak_mb"] * 2**20
            if new_b > old_b * _MEM_RATIO and new_b - old_b > _MEM_SLACK_BYTES:
                regressions.append(
                    (point["instance"], stage,
                     old["heap_peak_mb"], data["heap_peak_mb"])
                )
    return regressions


def main() -> int:
    baseline = None
    if os.path.exists(_OUT_PATH):
        with open(_OUT_PATH) as handle:
            baseline = json.load(handle)

    curve = [measure_instance(name) for name in CURVE]

    largest = max(CURVE, key=lambda name: corpus_instance(name).n_ops)
    speedup = elab_speedup(largest)

    op_counts = [point["n_ops"] for point in curve]
    result = {
        "bench": "scale",
        "flow": "estimate",
        "binder": BINDER,
        "width": WIDTH,
        "op_count_span": [min(op_counts), max(op_counts)],
        "curve": curve,
        "elab_speedup": speedup,
    }

    failures = []
    if speedup["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"compiled elaborate+clean is only {speedup['speedup']:.2f}x "
            f"the reference on {largest} (need >= {MIN_SPEEDUP:.1f}x)"
        )
    if baseline is not None and not UPDATE_BASELINE:
        for instance, stage, old_mb, new_mb in check_memory_baseline(
            curve, baseline
        ):
            failures.append(
                f"{instance} {stage}: heap peak {old_mb:.2f} MB -> "
                f"{new_mb:.2f} MB (>25% over the recorded baseline; "
                f"rerun with REPRO_SCALE_UPDATE=1 to accept)"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    with open(_OUT_PATH, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"results written to {_OUT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

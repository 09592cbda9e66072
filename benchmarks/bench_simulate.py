"""Simulator kernel benchmark — the first point on the perf trajectory.

Times :func:`repro.fpga.simulate_design` (the tick-vectorized kernel,
run as a batch of one) on the largest paper benchmark ("chem": 171
adds / 176 mults, Table 1) against the seed reference kernel
(:func:`repro.fpga.simulate._simulate_reference`), checks they agree
byte-for-byte, and writes the numbers to ``BENCH_sim.json`` at the
repo root so later PRs can track the trend (``event_s`` is the
kernel's time). A ``batched`` section times
:func:`repro.fpga.simulate_batch` over a mixed config set (stimulus x
idle policy x jitter) in one pass against the same configs run one at
a time.

This is a standalone script (not collected by pytest — the reference
kernel alone costs tens of seconds):

    PYTHONPATH=src python benchmarks/bench_simulate.py

Knobs (environment variables): ``REPRO_SIM_BENCH`` (default ``chem``),
``REPRO_SIM_WIDTH`` (default 8), ``REPRO_SIM_VECTORS`` (default 256),
``REPRO_SIM_REPEATS`` (default 3; best-of timing, reference runs once).
"""

from __future__ import annotations

import json
import os
import time

from repro import benchmark_spec, list_schedule, load_benchmark
from repro.binding import assign_ports, bind_lopass, bind_registers
from repro.fpga import (
    BatchConfig,
    ElaboratedDesign,
    elaborate_datapath,
    random_vectors,
    simulate_batch,
    simulate_design,
)
from repro.fpga.simulate import _simulate_reference
from repro.rtl import build_datapath
from repro.techmap import map_netlist

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_sim.json")

BENCH = os.environ.get("REPRO_SIM_BENCH", "chem")
WIDTH = int(os.environ.get("REPRO_SIM_WIDTH", "8"))
VECTORS = int(os.environ.get("REPRO_SIM_VECTORS", "256"))
REPEATS = int(os.environ.get("REPRO_SIM_REPEATS", "3"))


def build_design():
    """Elaborate + map the benchmark once (not part of the timing)."""
    spec = benchmark_spec(BENCH)
    schedule = list_schedule(load_benchmark(BENCH), spec.constraints)
    registers = bind_registers(schedule)
    ports = assign_ports(schedule.cdfg)
    solution = bind_lopass(schedule, spec.constraints, registers, ports)
    datapath = build_datapath(solution, WIDTH)
    design = elaborate_datapath(datapath)
    mapping = map_netlist(design.netlist, k=4)
    mapped = ElaboratedDesign(
        datapath,
        mapping.netlist,
        design.pad_nets,
        design.register_nets,
        design.fu_nets,
        design.control_nets,
        design.output_nets,
    )
    vectors = random_vectors(
        len(schedule.cdfg.primary_inputs), WIDTH, VECTORS, seed=7
    )
    return mapped, vectors


def time_kernel(design, vectors, simulate, repeats: int):
    """Best-of-``repeats`` wall time plus the last result."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        result = simulate(design, vectors)
        best = min(best, time.perf_counter() - started)
    return best, result


def batched_section(design, vectors) -> dict:
    """One batched pass vs the same configs run solo, byte-checked."""
    n_pads = len(design.datapath.cdfg.primary_inputs)
    alt = random_vectors(n_pads, WIDTH, VECTORS, seed=8)
    configs = [
        BatchConfig(stimulus, idle, jitter)
        for stimulus in (vectors, alt)
        for idle in ("zero", "hold")
        for jitter in (0, 1)
    ]

    def run_solo():
        return [
            simulate_design(design, c.vectors, idle_selects=c.idle_selects,
                            delay_jitter=c.delay_jitter)
            for c in configs
        ]

    # Warm both paths (compile + codegen caches), then best-of time.
    run_solo()
    simulate_batch(design, configs)
    solo_s = float("inf")
    batch_s = float("inf")
    solo = batched = None
    for _ in range(max(1, REPEATS)):
        started = time.perf_counter()
        solo = run_solo()
        solo_s = min(solo_s, time.perf_counter() - started)
        started = time.perf_counter()
        batched = simulate_batch(design, configs)
        batch_s = min(batch_s, time.perf_counter() - started)
    if batched != solo:
        raise SystemExit("batched pass disagrees with solo runs")
    print(f"  batched ({len(configs)} configs): {batch_s:8.3f} s "
          f"vs solo total {solo_s:8.3f} s "
          f"({solo_s / batch_s:.2f}x)")
    return {
        "n_configs": len(configs),
        "solo_total_s": round(solo_s, 4),
        "batch_s": round(batch_s, 4),
        "speedup": round(solo_s / batch_s, 2),
        "byte_identical": True,
    }


def main() -> int:
    print(f"building {BENCH} (width={WIDTH}, vectors={VECTORS}) ...")
    design, vectors = build_design()
    netlist = design.netlist
    print(f"  mapped netlist: {netlist.num_gates()} LUTs, "
          f"{netlist.num_latches()} FFs")

    # Warm the compile cache so the kernel timing is the steady-state
    # per-call cost (the compiled netlist is reused across calls).
    simulate_design(design, vectors)
    event_s, event = time_kernel(design, vectors, simulate_design, REPEATS)
    print(f"  kernel:           {event_s:8.3f} s")
    reference_s, reference = time_kernel(design, vectors,
                                         _simulate_reference, 1)
    print(f"  reference kernel: {reference_s:8.3f} s")
    if event != reference:
        raise SystemExit("kernels disagree — refusing to record timings")

    payload = {
        "benchmark": BENCH,
        "width": WIDTH,
        "n_vectors": VECTORS,
        "luts": netlist.num_gates(),
        "flipflops": netlist.num_latches(),
        "total_toggles": event.total_toggles,
        "event_s": round(event_s, 4),
        "reference_s": round(reference_s, 4),
        "speedup": round(reference_s / event_s, 2),
        "byte_identical": True,
        "batched": batched_section(design, vectors),
        "recorded": time.strftime("%Y-%m-%d"),
    }
    with open(_OUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"  speedup: {payload['speedup']}x  -> {_OUT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

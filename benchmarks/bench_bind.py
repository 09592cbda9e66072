"""Bind-stage benchmark — seed binders vs the vectorized engines.

Times the bind stage on the largest paper benchmark ("chem" by
default) for both binders three ways, asserting identical binding
solutions throughout:

1. **reference** — the seed binders (``bind_hlpower``/``bind_lopass``):
   HLPower's per-edge Python weight dicts and the networkx min-cost
   flow of the LOPASS baseline;
2. **fast (cold)** — the vectorized engines of
   :mod:`repro.binding.compile` with an empty :class:`BindMemo`, the
   cost of a first-ever bind stage;
3. **fast (warm memo)** — the fast HLPower engine re-run against the
   memo the cold run filled, the cost of a bind stage in a sweep
   whose sibling cells (e.g. another alpha) already weighted the same
   matching rounds (the memo is shared through the flow's artifact
   cache; LOPASS takes no memo and is re-timed cold).

Results land in ``BENCH_bind.json`` at the repo root so later PRs can
track the trend; the recorded per-binder and combined
``speedup_cold`` are the headline numbers (medians over
``REPRO_BIND_TRIALS`` runs).

Standalone script (not collected by pytest):

    PYTHONPATH=src python benchmarks/bench_bind.py

Knobs (environment variables): ``REPRO_BIND_BENCH`` (default
``chem``), ``REPRO_BIND_TRIALS`` (default 5).
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro import benchmark_spec
from repro.binding import SATable, bind_hlpower, bind_lopass
from repro.binding.compile import (
    BindMemo,
    bind_hlpower_fast,
    bind_lopass_fast,
)
from repro.binding.hlpower import HLPowerConfig
from repro.cdfg import load_benchmark
from repro.flow.run import prepare_flow_inputs
from repro.scheduling import list_schedule

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_bind.json")
_TABLE_PATH = os.path.join(_REPO_ROOT, "data", "sa_table.txt")

BENCH = os.environ.get("REPRO_BIND_BENCH", "chem")
TRIALS = int(os.environ.get("REPRO_BIND_TRIALS", "5"))


def _check_identical(reference, fast) -> None:
    if len(reference.fus.units) != len(fast.fus.units) or any(
        (a.fu_id, a.fu_class, a.ops) != (b.fu_id, b.fu_class, b.ops)
        for a, b in zip(reference.fus.units, fast.fus.units)
    ):
        raise SystemExit("fast binding engine diverged from the seed binder")


def main() -> None:
    spec = benchmark_spec(BENCH)
    schedule = list_schedule(load_benchmark(BENCH), spec.constraints)
    registers, ports = prepare_flow_inputs(schedule)
    table = SATable(path=_TABLE_PATH)
    hl_cfg = HLPowerConfig(sa_table=table)
    n_ops = len(schedule.cdfg.operations)
    print(f"{BENCH}: {n_ops} operations to bind, {TRIALS} trials")

    times = {key: [] for key in (
        "hl_ref", "hl_cold", "hl_warm", "lo_ref", "lo_cold"
    )}
    memo_stats = {}
    for _ in range(TRIALS):
        started = time.perf_counter()
        hl_ref = bind_hlpower(
            schedule, spec.constraints, registers, ports, hl_cfg
        )
        times["hl_ref"].append(time.perf_counter() - started)

        memo = BindMemo()
        started = time.perf_counter()
        hl_fast = bind_hlpower_fast(
            schedule, spec.constraints, registers, ports, hl_cfg, memo
        )
        times["hl_cold"].append(time.perf_counter() - started)

        started = time.perf_counter()
        hl_warm = bind_hlpower_fast(
            schedule, spec.constraints, registers, ports, hl_cfg, memo
        )
        times["hl_warm"].append(time.perf_counter() - started)
        memo_stats = memo.stats()

        started = time.perf_counter()
        lo_ref = bind_lopass(schedule, spec.constraints, registers, ports)
        times["lo_ref"].append(time.perf_counter() - started)

        started = time.perf_counter()
        lo_fast = bind_lopass_fast(
            schedule, spec.constraints, registers, ports
        )
        times["lo_cold"].append(time.perf_counter() - started)

        _check_identical(hl_ref, hl_fast)
        _check_identical(hl_ref, hl_warm)
        _check_identical(lo_ref, lo_fast)

    med = {key: statistics.median(values) for key, values in times.items()}
    ref_total = med["hl_ref"] + med["lo_ref"]
    cold_total = med["hl_cold"] + med["lo_cold"]
    speedup_cold = ref_total / cold_total
    print(f"  hlpower reference : {med['hl_ref'] * 1e3:7.1f}ms")
    print(f"  hlpower fast cold : {med['hl_cold'] * 1e3:7.1f}ms  "
          f"({med['hl_ref'] / med['hl_cold']:.2f}x)")
    print(f"  hlpower fast warm : {med['hl_warm'] * 1e3:7.1f}ms  "
          f"({med['hl_ref'] / med['hl_warm']:.2f}x, "
          f"{memo_stats['entries']} memo blocks)")
    print(f"  lopass  reference : {med['lo_ref'] * 1e3:7.1f}ms")
    print(f"  lopass  fast cold : {med['lo_cold'] * 1e3:7.1f}ms  "
          f"({med['lo_ref'] / med['lo_cold']:.2f}x)")
    print(f"  both binders cold : {ref_total * 1e3:.1f}ms -> "
          f"{cold_total * 1e3:.1f}ms ({speedup_cold:.2f}x)")

    record = {
        "benchmark": BENCH,
        "n_operations": n_ops,
        "trials": TRIALS,
        "hlpower_reference_s": round(med["hl_ref"], 4),
        "hlpower_fast_cold_s": round(med["hl_cold"], 4),
        "hlpower_fast_warm_s": round(med["hl_warm"], 4),
        "hlpower_speedup_cold": round(med["hl_ref"] / med["hl_cold"], 3),
        "hlpower_speedup_warm": round(med["hl_ref"] / med["hl_warm"], 3),
        "lopass_reference_s": round(med["lo_ref"], 4),
        "lopass_fast_cold_s": round(med["lo_cold"], 4),
        "lopass_speedup_cold": round(med["lo_ref"] / med["lo_cold"], 3),
        "speedup_cold": round(speedup_cold, 3),
        "memo_blocks": memo_stats["entries"],
        "solutions_identical": True,
    }
    with open(_OUT_PATH, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nresults written to {_OUT_PATH}")


if __name__ == "__main__":
    main()

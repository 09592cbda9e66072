"""Tech-mapper benchmark — seed mapper vs the compiled fast mapper.

Times the techmap stage on the largest paper benchmark ("chem" by
default) three ways, asserting bit-identical covers throughout:

1. **reference** — the seed mapper (``_map_reference``), the
   pre-PR-4 techmap stage;
2. **fast (cold)** — the compiled mapper with every per-netlist cache
   and the cone memo empty, the cost of a first-ever techmap stage;
3. **fast (warm memo)** — the compiled mapper re-run against the cone
   memo the cold run filled, the cost of a techmap stage in a sweep
   whose sibling cells already mapped the same netlist (the memo is
   shared through the flow's artifact cache).

Results land in ``BENCH_techmap.json`` at the repo root so later PRs
can track the trend; the recorded ``speedup_cold`` is the headline
number (medians over ``REPRO_TECHMAP_TRIALS`` runs).

Standalone script (not collected by pytest):

    PYTHONPATH=src python benchmarks/bench_techmap.py

Knobs (environment variables): ``REPRO_TECHMAP_BENCH`` (default
``chem``), ``REPRO_TECHMAP_WIDTH`` (default 8), ``REPRO_TECHMAP_K``
(default 4), ``REPRO_TECHMAP_TRIALS`` (default 3).
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro import benchmark_spec
from repro.cdfg import load_benchmark
from repro.flow.run import FlowConfig, build_pipeline
from repro.scheduling import list_schedule
from repro.techmap import map_netlist
from repro.techmap.compile import ConeMemo
from repro.techmap.mapper import _map_reference

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_OUT_PATH = os.path.join(_REPO_ROOT, "BENCH_techmap.json")

BENCH = os.environ.get("REPRO_TECHMAP_BENCH", "chem")
WIDTH = int(os.environ.get("REPRO_TECHMAP_WIDTH", "8"))
K = int(os.environ.get("REPRO_TECHMAP_K", "4"))
TRIALS = int(os.environ.get("REPRO_TECHMAP_TRIALS", "3"))


def _drop_netlist_caches(netlist) -> None:
    """Reset every mapper cache so each trial is a truly cold run.

    Covers the per-netlist compilation and the process-wide
    per-function caches (NPN keys, table scaffolding, position
    masks) that a fresh process would also have to rebuild.
    """
    from repro.techmap import compile as compile_mod

    if hasattr(netlist, "_map_compiled"):
        delattr(netlist, "_map_compiled")
    compile_mod._NPN_KEYS.clear()
    compile_mod._NPN_TRANSFORMS.clear()
    compile_mod._TABLE_EVAL.clear()
    compile_mod._POSITION_MASKS.clear()


def main() -> None:
    spec = benchmark_spec(BENCH)
    schedule = list_schedule(load_benchmark(BENCH), spec.constraints)
    pipe = build_pipeline(
        schedule, spec.constraints, "lopass", FlowConfig(width=WIDTH)
    )
    design = pipe.artifact("elaborate")
    netlist = design.netlist
    activities = {
        net: FlowConfig().control_activity
        for nets in design.control_nets.values()
        for net in nets
    }
    print(f"{BENCH} (width {WIDTH}, K={K}): "
          f"{netlist.num_gates()} gates to map, {TRIALS} trials")

    reference_s, cold_s, warm_s = [], [], []
    reference = fast = warm = None
    memo_stats = {}
    for trial in range(TRIALS):
        started = time.perf_counter()
        reference = _map_reference(netlist, k=K, input_activities=activities)
        reference_s.append(time.perf_counter() - started)

        _drop_netlist_caches(netlist)
        memo = ConeMemo()
        started = time.perf_counter()
        fast = map_netlist(
            netlist, k=K, input_activities=activities, effort="fast",
            cone_memo=memo,
        )
        cold_s.append(time.perf_counter() - started)

        started = time.perf_counter()
        warm = map_netlist(
            netlist, k=K, input_activities=activities, effort="fast",
            cone_memo=memo,
        )
        warm_s.append(time.perf_counter() - started)
        memo_stats = memo.stats()

        if (reference.selected_cuts != fast.selected_cuts
                or reference.lut_sa != fast.lut_sa
                or reference.total_sa != fast.total_sa
                or warm.total_sa != reference.total_sa):
            raise SystemExit("fast mapper diverged from the seed mapper")

    med_ref = statistics.median(reference_s)
    med_cold = statistics.median(cold_s)
    med_warm = statistics.median(warm_s)
    speedup_cold = med_ref / med_cold
    speedup_warm = med_ref / med_warm
    print(f"  reference (seed) : {med_ref:6.2f}s")
    print(f"  fast, cold       : {med_cold:6.2f}s  ({speedup_cold:.2f}x)")
    print(f"  fast, warm memo  : {med_warm:6.2f}s  ({speedup_warm:.2f}x)")
    print(f"  cone memo: {memo_stats['entries']} entries in "
          f"{memo_stats['npn_classes']} NPN classes "
          f"(covers byte-identical)")

    record = {
        "benchmark": BENCH,
        "width": WIDTH,
        "k": K,
        "n_gates": netlist.num_gates(),
        "cover_luts": reference.area,
        "total_sa": reference.total_sa,
        "trials": TRIALS,
        "reference_s": round(med_ref, 4),
        "fast_cold_s": round(med_cold, 4),
        "fast_warm_s": round(med_warm, 4),
        "speedup_cold": round(speedup_cold, 3),
        "speedup_warm": round(speedup_warm, 3),
        "memo_entries": memo_stats["entries"],
        "memo_npn_classes": memo_stats["npn_classes"],
        "covers_identical": True,
    }
    with open(_OUT_PATH, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nresults written to {_OUT_PATH}")


if __name__ == "__main__":
    main()

"""What a cold process imports to run the flows.

Binding needs only scipy's compiled assignment solver: importing
``scipy.optimize`` costs ~0.45 s and ~50 MB in every fresh CLI, pool
worker, daemon and benchmark process. networkx is needed only by the
LOPASS oracle the tests call directly.
"""

from tests.conftest import run_fresh

COLD_FLOWS = """
import json, sys
from repro import (FlowConfig, SweepSpec, benchmark_spec, list_schedule,
                   load_benchmark, run_estimate, run_flow, run_sweep)

def scheduled(name):
    spec = benchmark_spec(name)
    return list_schedule(load_benchmark(name), spec.constraints), spec.constraints

schedule, limits = scheduled("chem")
for binder in ("lopass", "hlpower"):
    run_estimate(schedule, limits, binder, FlowConfig(flow="estimate", width=4))
schedule, limits = scheduled("pr")
run_flow(schedule, limits, "hlpower", FlowConfig(width=4, n_vectors=16))
sweep = run_sweep(SweepSpec(benchmarks=["pr"], widths=(4,), n_vectors=16),
                  jobs=1)
print(json.dumps({
    "cells": len(sweep.cells),
    "loaded": [name for name in ("scipy.optimize", "networkx",
                                 "scipy.optimize._lsap")
               if name in sys.modules],
}))
"""


def test_cold_flows_load_only_the_assignment_solver():
    seen = run_fresh(COLD_FLOWS)
    assert seen["cells"] == 2
    assert seen["loaded"] == ["scipy.optimize._lsap"]

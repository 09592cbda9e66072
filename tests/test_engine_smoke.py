"""One call into each engine on a paper benchmark, with its basic invariant.

The binder, the baseline, register binding, the glitch-aware estimator,
the mapper and the simulator each run once on a small input, and the
result must carry the property every later stage relies on: the
functional-unit constraints are met, registers exist, the estimated
activity, the mapped area and the simulated toggles are positive.
"""

import pytest

from repro import benchmark_spec, list_schedule, load_benchmark
from repro.activity import estimate_switching_activity
from repro.binding import (
    HLPowerConfig,
    assign_ports,
    bind_hlpower,
    bind_lopass,
    bind_registers,
)
from repro.fpga import elaborate_datapath, random_vectors, simulate_design
from repro.netlist.library import build_partial_datapath
from repro.netlist.transform import clean
from repro.rtl import build_datapath
from repro.techmap import map_netlist


def _schedule(name):
    spec = benchmark_spec(name)
    return list_schedule(load_benchmark(name), spec.constraints), spec


@pytest.mark.parametrize("name", ["pr", "honda"])
def test_hlpower_binding_meets_constraints(name, sa_table):
    schedule, spec = _schedule(name)
    result = bind_hlpower(
        schedule,
        spec.constraints,
        bind_registers(schedule),
        assign_ports(schedule.cdfg),
        HLPowerConfig(sa_table=sa_table),
    )
    assert result.fus.constraint_met


def test_lopass_allocation_equals_constraints():
    schedule, spec = _schedule("pr")
    result = bind_lopass(
        schedule,
        spec.constraints,
        bind_registers(schedule),
        assign_ports(schedule.cdfg),
    )
    assert result.fus.allocation() == spec.constraints


def test_register_binding_allocates_registers():
    schedule, _ = _schedule("honda")
    assert bind_registers(schedule).n_registers > 0


def test_glitch_estimator_total_positive():
    netlist = build_partial_datapath("mult", 4, 4, 4)
    clean(netlist)
    assert estimate_switching_activity(netlist).total > 0


def test_mapper_area_positive():
    netlist = build_partial_datapath("mult", 3, 3, 6)
    clean(netlist)
    assert map_netlist(netlist).area > 0


def test_simulator_counts_comb_toggles(sa_table):
    schedule, spec = _schedule("pr")
    solution = bind_hlpower(
        schedule, spec.constraints, config=HLPowerConfig(sa_table=sa_table)
    )
    design = elaborate_datapath(build_datapath(solution, width=6))
    vectors = random_vectors(len(design.pad_nets), 6, lanes=128, seed=1)
    assert simulate_design(design, vectors).comb_toggles > 0

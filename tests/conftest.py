"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.binding import (
    HLPowerConfig,
    SATable,
    assign_ports,
    bind_hlpower,
    bind_lopass,
    bind_registers,
)
from repro.binding.sa_table import SATableConfig
from repro.cdfg import Schedule, figure1_example, generate_cdfg
from repro.cdfg.generate import GraphProfile
from repro.flow.run import FlowResult
from repro.fpga import (
    ElaboratedDesign,
    elaborate_datapath,
    power_report,
    random_vectors,
    timing_report,
)
from repro.fpga.simulate import _simulate_reference, golden_outputs
from repro.rtl import build_datapath
from repro.rtl.controller import build_controller
from repro.rtl.metrics import mux_report
from repro.scheduling import list_schedule
from repro.techmap.mapper import _map_reference


@pytest.fixture(scope="session")
def sa_table(tmp_path_factory) -> SATable:
    """One lazily-filled SA table shared by the whole test session."""
    path = tmp_path_factory.mktemp("sa") / "table.txt"
    return SATable(SATableConfig(width=4), str(path))


@pytest.fixture()
def figure1_schedule() -> Schedule:
    """The paper's Figure 1 example, scheduled as printed."""
    cdfg, start_times = figure1_example()
    schedule = Schedule(cdfg, start_times)
    schedule.validate()
    return schedule


@pytest.fixture()
def small_schedule() -> Schedule:
    """A small random scheduled CDFG (fast enough for full flows)."""
    profile = GraphProfile("small", 4, 3, 10, 6, n_layers=6,
                           add_width=2, mult_width=2)
    cdfg = generate_cdfg(profile, seed=3)
    return list_schedule(cdfg, {"add": 2, "mult": 2})


def evaluate_netlist(netlist, assignment):
    """Reference truth-table evaluation of a combinational netlist."""
    values = dict(assignment)
    for net in netlist.topological_order():
        gate = netlist.gates[net]
        values[net] = gate.table.evaluate(
            [values[name] for name in gate.inputs]
        )
    return values


def random_assignment(netlist, rng: random.Random):
    return {net: rng.random() < 0.5 for net in netlist.inputs}


def oracle_flow_metrics(schedule, constraints, binder, cfg,
                        registers=None, ports=None):
    """``FlowResult.metrics()`` of one full flow run on the seed oracles.

    The chain of :mod:`repro.flow.pipeline` with every stage swapped
    for its seed implementation and no artifact cache: seed binder ->
    build_datapath -> elaborate_datapath -> _map_reference -> timing ->
    vectors -> _simulate_reference -> power_report. Equal to
    ``run_flow(...).metrics()`` byte for byte is the fast engines'
    end-to-end contract.
    """
    assert cfg.map_effort == "fast", "the seed mapper is the fast oracle"
    if registers is None:
        registers = bind_registers(schedule)
    if ports is None:
        ports = assign_ports(schedule.cdfg)
    if binder == "hlpower":
        solution = bind_hlpower(
            schedule, constraints, registers, ports,
            HLPowerConfig(alpha=cfg.alpha, sa_table=cfg.sa_table),
        )
    else:
        assert binder == "lopass", binder
        solution = bind_lopass(schedule, constraints, registers, ports)
    datapath = build_datapath(solution, cfg.width)
    design = elaborate_datapath(datapath)
    mapping = _map_reference(
        design.netlist, k=cfg.k,
        input_activities={
            net: cfg.control_activity
            for nets in design.control_nets.values()
            for net in nets
        },
    )
    mapped = ElaboratedDesign(
        datapath, mapping.netlist, design.pad_nets, design.register_nets,
        design.fu_nets, design.control_nets, design.output_nets,
    )
    vectors = random_vectors(len(schedule.cdfg.primary_inputs), cfg.width,
                             cfg.n_vectors, cfg.vector_seed)
    simulation = _simulate_reference(
        mapped, vectors, idle_selects=cfg.idle_selects,
        delay_jitter=cfg.delay_jitter,
    )
    if cfg.check_function:
        assert simulation.outputs == golden_outputs(mapped, vectors)
    power = power_report(
        simulation, cfg.sim_clock_ns, cfg.device,
        n_nets=mapping.area + len(mapping.netlist.latches),
    )
    controller_luts = build_controller(datapath).estimated_luts(cfg.k)
    return FlowResult(
        solution=solution,
        datapath=datapath,
        design=mapped,
        mapping=mapping,
        muxes=mux_report(solution),
        timing=timing_report(mapping.netlist, cfg.device),
        simulation=simulation,
        power=power,
        area_luts=mapping.area + controller_luts,
        controller_luts=controller_luts,
        runtime_s=0.0,
    ).metrics()

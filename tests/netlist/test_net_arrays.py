"""The one array view per netlist (:class:`repro.netlist.compile.NetArrays`).

A hypothesis property pins the view to a per-gate walk of the netlist
(its own order, levels, fanout map and names); the other tests pin
the one-build-per-version cache that the mapper, the simulator and
timing share, and the named error every consumer raises for a
malformed netlist.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import NetlistError
from repro.fpga import compile_netlist, simulate_design, timing_report
from repro.netlist.compile import NetArrays, net_arrays
from repro.netlist.gates import GateType, Latch, Netlist
from repro.techmap import map_netlist
from tests.conftest import rebuilt
from tests.fpga.test_kernel_differential import build_mapped
from tests.techmap.test_cuts_properties import random_netlists


@settings(max_examples=60, deadline=None)
@given(random_netlists(max_arity=5))
def test_view_equals_a_per_gate_walk(netlist):
    arrays = net_arrays(netlist)
    order = netlist.topological_order()
    sources = [*netlist.inputs, *netlist.latches]
    assert arrays.names == sources + order
    assert arrays.n_sources == len(sources)
    assert arrays.ids == {name: i for i, name in enumerate(arrays.names)}

    width = arrays.fanin.shape[1]
    for g, name in enumerate(order):
        gate = netlist.gates[name]
        assert arrays.tables[g] == gate.table
        assert arrays.arity[g] == len(gate.inputs)
        assert arrays.fanin[g].tolist() == (
            [arrays.ids[net] for net in gate.inputs]
            + [arrays.n_nets] * (width - len(gate.inputs))
        )

    levels = netlist.levels()
    assert arrays.level.tolist() == [levels[name] for name in arrays.names]

    fanout = netlist.fanout_map()
    ptr = arrays.fanout_ptr
    for net_id, name in enumerate(arrays.names):
        readers = arrays.fanout_gates[ptr[net_id]:ptr[net_id + 1]]
        assert sorted(order[g] for g in readers) == sorted(fanout[name])

    by_level = arrays.by_level
    assert sorted(np.concatenate(by_level).tolist()) == list(range(len(order)))
    for level, gates in enumerate(by_level):
        assert gates.tolist() == sorted(gates.tolist())
        assert all(levels[order[g]] == level for g in gates.tolist())

    assert [arrays.names[i] for i in np.argsort(arrays.rank)] == sorted(
        arrays.names
    )


def test_one_build_per_version_for_every_consumer(monkeypatch):
    """Mapping, simulating at two delay spreads and timing one netlist
    build its view once; an in-place edit rebuilds it for whichever
    consumer comes next."""
    design, vectors = build_mapped("pr")
    netlist = rebuilt(design.netlist)
    design = dataclasses.replace(design, netlist=netlist)
    builds = []
    build = NetArrays.__init__
    monkeypatch.setattr(
        NetArrays, "__init__",
        lambda self, netlist: builds.append(netlist) or build(self, netlist),
    )
    consumers = [
        lambda: map_netlist(netlist),
        lambda: simulate_design(design, vectors, delay_jitter=0),
        lambda: simulate_design(design, vectors, delay_jitter=2),
        lambda: timing_report(netlist),
    ]
    for consume in consumers:
        consume()
    assert len(builds) == 1
    for consume in consumers:
        name = next(iter(netlist.gates))
        netlist.gates[name] = dataclasses.replace(netlist.gates[name])
        netlist.touch()
        consume()
        assert net_arrays(netlist).version == netlist.version
    assert len(builds) == 1 + len(consumers)


def _undriven_fanin() -> Netlist:
    netlist = Netlist("ghostly")
    a = netlist.add_input("a")
    netlist.set_output(netlist.add_simple(GateType.AND, (a, "ghost"), "y"))
    return netlist


def _two_drivers() -> Netlist:
    netlist = Netlist("crowded")
    a = netlist.add_input("a")
    netlist.set_output(netlist.add_simple(GateType.NOT, (a,), "y"))
    netlist.latches[a] = Latch(a, "y")
    netlist.touch()
    return netlist


@pytest.mark.parametrize("build, message", [
    (_undriven_fanin, "gate 'y' reads undriven net 'ghost'"),
    (_two_drivers, "net 'a' has two drivers"),
], ids=["undriven-fanin", "two-drivers"])
@pytest.mark.parametrize("consume", [
    map_netlist, timing_report, compile_netlist,
], ids=["map_netlist", "timing_report", "compile_netlist"])
def test_malformed_netlist_is_a_netlist_error(build, message, consume):
    with pytest.raises(NetlistError, match=message):
        consume(build())

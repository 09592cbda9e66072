"""Compiled datapath elaboration — the flow's only elaborator.

:func:`~repro.fpga.elaborate.elaborate_datapath` rebuilds a structural
library netlist for every component instance — every register bank,
every mux of a given shape, every adder — and copies it gate by gate
through :meth:`Netlist.instantiate`, which re-runs a DFS topological
sort of the library cell per instance. On large datapaths both costs
dominate: a 4000-op schedule instantiates hundreds of identical
``(kind, size, width)`` cells.

This module compiles each distinct library cell once into a
:class:`_Template` — its gates frozen in topological order with shared
:class:`TruthTable` objects, plus latches and port lists — and stamps
instances out with a rename dict and direct gates-dict writes. The
instantiation order, net-name choreography (pad/select/mode naming,
pre-declared register nets, instance prefixes) and the final cleanup
mirror the reference exactly, so the produced netlist is byte-identical
(gate insertion order included).

The seed elaborator (:func:`~repro.fpga.elaborate.elaborate_datapath`)
stays untouched as the differential-testing oracle: the elaboration
differential suite under ``tests/fpga/`` calls it directly and pins
the equivalence across the paper benchmarks and corpus samples.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import NetlistError, RTLError
from repro.netlist.compile import clean_fast, make_gate
from repro.netlist.gates import GateType, Latch, Netlist, TruthTable
from repro.netlist.library import (
    build_addsub,
    build_functional_unit,
    build_mux,
    build_register,
    select_width,
)
from repro.fpga.elaborate import ElaboratedDesign
from repro.rtl.datapath import Datapath, FUSpec, MuxSpec, SourceRef

#: One frozen gate: (output, inputs, table, gate_type).
_GateRecord = Tuple[str, Tuple[str, ...], TruthTable, GateType]
#: One frozen latch: (output, data, init, enable).
_LatchRecord = Tuple[str, str, bool, Optional[str]]


class _Template:
    """A library cell frozen for repeated stamping.

    Gates are stored in the cell's topological order — the order
    :meth:`Netlist.instantiate` copies them — so stamped instances
    land in the top-level gates dict in the reference insertion order.
    """

    __slots__ = ("inputs", "input_set", "gates", "latches", "outputs")

    def __init__(self, cell: Netlist) -> None:
        self.inputs: Tuple[str, ...] = tuple(cell.inputs)
        self.input_set: FrozenSet[str] = frozenset(cell.inputs)
        self.gates: Tuple[_GateRecord, ...] = tuple(
            (
                net,
                cell.gates[net].inputs,
                cell.gates[net].table,
                cell.gates[net].gate_type,
            )
            for net in cell.topological_order()
        )
        self.latches: Tuple[_LatchRecord, ...] = tuple(
            (latch.output, latch.data, latch.init, latch.enable)
            for latch in cell.latches.values()
        )
        self.outputs: Tuple[str, ...] = tuple(cell.outputs)


#: Compiled library cells by (kind, *params). Library builders are
#: deterministic, so one compile per shape serves every instance.
_TEMPLATES: Dict[Tuple, _Template] = {}


def _template(key: Tuple, build: Callable[[], Netlist]) -> _Template:
    template = _TEMPLATES.get(key)
    if template is None:
        template = _Template(build())
        _TEMPLATES[key] = template
    return template


def _stamp(
    top: Netlist,
    template: _Template,
    port_map: Dict[str, str],
    prefix: str,
    output_map: Optional[Dict[str, str]] = None,
) -> Dict[str, str]:
    """Copy a compiled cell into ``top``; the fast ``instantiate``.

    Same rename semantics as :meth:`Netlist.instantiate`: ports and
    mapped outputs take the given nets, everything else gets
    ``prefix`` + the cell-local name.
    """
    missing = [p for p in template.inputs if p not in port_map]
    if missing:
        raise NetlistError(
            f"instantiate: unconnected inputs {missing}"
        )
    rename = dict(port_map)
    if output_map:
        for cell_net, target in output_map.items():
            rename[cell_net] = target
    get = rename.get
    gates = top.gates
    latches = top.latches
    input_set = top._input_set
    for out, ins, table, gate_type in template.gates:
        new_ins = tuple(
            mapped if (mapped := get(name)) is not None else prefix + name
            for name in ins
        )
        new_out = get(out)
        if new_out is None:
            new_out = prefix + out
        if new_out in gates or new_out in latches or new_out in input_set:
            raise NetlistError(f"net {new_out!r} already driven")
        gates[new_out] = make_gate(new_out, new_ins, table, gate_type)
    for out, data, init, enable in template.latches:
        new_out = get(out)
        if new_out is None:
            new_out = prefix + out
        if new_out in gates or new_out in latches or new_out in input_set:
            raise NetlistError(f"net {new_out!r} already driven")
        new_data = get(data)
        if new_data is None:
            new_data = prefix + data
        new_enable = None
        if enable is not None:
            new_enable = get(enable)
            if new_enable is None:
                new_enable = prefix + enable
        latches[new_out] = Latch(new_out, new_data, init, new_enable)
    top.touch()
    return {
        out: mapped if (mapped := get(out)) is not None else prefix + out
        for out in template.outputs
    }


def _stamp_mux(
    top: Netlist,
    name: str,
    select_name: str,
    mux: MuxSpec,
    width: int,
    resolve,
    control_bus,
) -> List[str]:
    """Fast twin of ``elaborate._build_mux_instance``."""
    if mux.size == 1:
        return [resolve(mux.sources[0], bit) for bit in range(width)]
    template = _template(
        ("mux", mux.size, width), lambda: build_mux(mux.size, width)
    )
    port_map: Dict[str, str] = {}
    for position, source in enumerate(mux.sources):
        for bit in range(width):
            port_map[f"d{position}_{bit}"] = resolve(source, bit)
    selects = control_bus(select_name, select_width(mux.size))
    for k, net in enumerate(selects):
        if f"sel{k}" in template.input_set:
            port_map[f"sel{k}"] = net
    out_map = _stamp(top, template, port_map, prefix=f"u_{name}/")
    return [out_map[f"y{bit}"] for bit in range(width)]


def _stamp_fu(
    top: Netlist,
    datapath: Datapath,
    spec: FUSpec,
    width: int,
    register_nets: Dict[int, List[str]],
    control_bus,
) -> List[str]:
    """Fast twin of ``elaborate._build_fu``."""
    fu = spec.unit.fu_id

    def resolve(source: SourceRef, bit: int) -> str:
        if source[0] != "reg":
            raise RTLError(f"FU port reads non-register source {source}")
        return register_nets[source[1]][bit]

    bus_a = _stamp_mux(
        top, f"fu{fu}_a", f"fu{fu}_sel_a", spec.mux_a, width,
        resolve, control_bus,
    )
    bus_b = _stamp_mux(
        top, f"fu{fu}_b", f"fu{fu}_sel_b", spec.mux_b, width,
        resolve, control_bus,
    )

    if spec.needs_mode:
        unit = _template(("addsub", width), lambda: build_addsub(width))
    elif spec.unit.fu_class == "mult":
        unit = _template(
            ("fu", "mult", width),
            lambda: build_functional_unit("mult", width),
        )
    else:
        op_types = {
            datapath.cdfg.operations[op_id].op_type
            for op_id in spec.unit.ops
        }
        fu_type = "sub" if op_types == {"sub"} else "add"
        unit = _template(
            ("fu", fu_type, width),
            lambda: build_functional_unit(fu_type, width),
        )
    port_map: Dict[str, str] = {}
    for bit in range(width):
        port_map[f"a{bit}"] = bus_a[bit]
        port_map[f"b{bit}"] = bus_b[bit]
    if spec.needs_mode:
        port_map["mode"] = control_bus(f"fu{fu}_mode", 1)[0]
    out_map = _stamp(top, unit, port_map, prefix=f"u_fu{fu}/")
    return [out_map[f"s{bit}"] for bit in range(width)]


def _stamp_register(
    top: Netlist,
    index: int,
    mux: MuxSpec,
    width: int,
    pad_nets: Dict[int, List[str]],
    fu_nets: Dict[int, List[str]],
    register_nets: Dict[int, List[str]],
    control_bus,
) -> None:
    """Fast twin of ``elaborate._build_register``."""

    def resolve(source: SourceRef, bit: int) -> str:
        kind, position = source
        if kind == "reg":
            return register_nets[position][bit]
        if kind == "pad":
            return pad_nets[position][bit]
        if kind == "fu":
            return fu_nets[position][bit]
        raise RTLError(f"unknown source kind {kind!r}")

    data_bus = _stamp_mux(
        top, f"reg{index}", f"reg{index}_sel", mux, width,
        resolve, control_bus,
    )
    bank = _template(
        ("reg", width), lambda: build_register(width, with_enable=True)
    )
    port_map: Dict[str, str] = {"en": control_bus(f"reg{index}_en", 1)[0]}
    for bit in range(width):
        port_map[f"d{bit}"] = data_bus[bit]
    output_map = {
        f"q{bit}": register_nets[index][bit] for bit in range(width)
    }
    _stamp(top, bank, port_map, prefix=f"u_reg{index}/", output_map=output_map)


def elaborate_datapath_fast(datapath: Datapath) -> ElaboratedDesign:
    """Template-stamped twin of :func:`~repro.fpga.elaborate.elaborate_datapath`."""
    width = datapath.width
    top = Netlist("design")

    pad_nets: Dict[int, List[str]] = {}
    n_pads = len(datapath.cdfg.primary_inputs)
    for position in range(n_pads):
        pad_nets[position] = [
            top.add_input(f"pi{position}_{bit}") for bit in range(width)
        ]

    control_nets: Dict[str, List[str]] = {}

    def control_bus(name: str, bits: int) -> List[str]:
        nets = [top.add_input(f"{name}_{k}") for k in range(bits)]
        control_nets[name] = nets
        return nets

    register_nets: Dict[int, List[str]] = {
        reg.index: [f"reg{reg.index}_q{bit}" for bit in range(width)]
        for reg in datapath.registers
    }

    fu_nets: Dict[int, List[str]] = {}
    for spec in datapath.fus:
        fu_nets[spec.unit.fu_id] = _stamp_fu(
            top, datapath, spec, width, register_nets, control_bus
        )

    for reg in datapath.registers:
        _stamp_register(
            top,
            reg.index,
            reg.mux,
            width,
            pad_nets,
            fu_nets,
            register_nets,
            control_bus,
        )

    output_nets: Dict[int, List[str]] = {}
    for position, register in enumerate(datapath.output_registers):
        nets = register_nets[register]
        for net in nets:
            top.set_output(net)
        output_nets[position] = nets

    clean_fast(top)
    return ElaboratedDesign(
        datapath=datapath,
        netlist=top,
        pad_nets=pad_nets,
        register_nets=register_nets,
        fu_nets=fu_nets,
        control_nets=control_nets,
        output_nets=output_nets,
    )


def elaborate_design(datapath: Datapath) -> ElaboratedDesign:
    """Elaborate ``datapath`` by stamping compiled cell templates.

    The flow's elaborate stage calls this name; the result is
    byte-identical to the seed
    :func:`~repro.fpga.elaborate.elaborate_datapath`.
    """
    return elaborate_datapath_fast(datapath)

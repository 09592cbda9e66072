"""Netlist cleanup transforms.

The structural builders are deliberately literal (a ripple adder always
instantiates a carry-in constant, an enabled register always has its
recirculation mux), so elaborated datapaths contain constants, buffers
and dead cones. These transforms normalize the netlist before
technology mapping — the same role logic sweeping plays inside Quartus'
synthesis, minus any restructuring that would change the high-level
datapath shape (the paper explicitly disables such optimizations).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.netlist.gates import Gate, GateType, Netlist, TruthTable


def propagate_constants(netlist: Netlist) -> int:
    """Fold constant gate inputs into smaller truth tables.

    Returns the number of gates rewritten. Gates that become constant
    are replaced by constant gates; single-input identity functions
    become buffers. Iterates to a fixpoint.
    """
    rewrites = 0
    changed = True
    while changed:
        changed = False
        constants = _constant_nets(netlist)
        for net in netlist.topological_order():
            gate = netlist.gates[net]
            if gate.gate_type in (GateType.CONST0, GateType.CONST1):
                continue
            new_gate = _fold_gate(gate, constants)
            if new_gate is not None:
                netlist.gates[net] = new_gate
                rewrites += 1
                changed = True
        if changed:
            netlist.touch()
    return rewrites


def _constant_nets(netlist: Netlist) -> Dict[str, bool]:
    constants: Dict[str, bool] = {}
    for net, gate in netlist.gates.items():
        value = gate.table.is_constant()
        if value is not None and not gate.inputs:
            constants[net] = value
        elif value is not None:
            constants[net] = value
    return constants


def _fold_gate(gate: Gate, constants: Dict[str, bool]) -> Optional[Gate]:
    bound = [
        (pos, constants[name])
        for pos, name in enumerate(gate.inputs)
        if name in constants
    ]
    if not bound:
        return None
    table = gate.table
    inputs = list(gate.inputs)
    # Cofactor from the highest index down so positions stay valid.
    for pos, value in sorted(bound, reverse=True):
        table = table.cofactor(pos, value)
        del inputs[pos]
    constant = table.is_constant()
    if constant is not None:
        const_type = GateType.CONST1 if constant else GateType.CONST0
        return Gate(gate.output, (), TruthTable.constant(constant), const_type)
    return Gate(gate.output, tuple(inputs), table, table.classify())


def sweep_buffers(netlist: Netlist) -> int:
    """Bypass BUF gates (rewire readers to the buffer's input).

    Buffers driving primary outputs are kept so output names survive.
    Returns the number of buffers removed.
    """
    outputs = set(netlist.outputs)
    alias: Dict[str, str] = {}
    for net, gate in netlist.gates.items():
        if gate.gate_type is GateType.BUF and net not in outputs:
            alias[net] = gate.inputs[0]

    def resolve(net: str) -> str:
        seen = []
        while net in alias:
            seen.append(net)
            net = alias[net]
        for name in seen:
            alias[name] = net
        return net

    for net, gate in list(netlist.gates.items()):
        if net in alias:
            continue
        new_inputs = tuple(resolve(i) for i in gate.inputs)
        if new_inputs != gate.inputs:
            netlist.gates[net] = Gate(
                net, new_inputs, gate.table, gate.gate_type
            )
    for latch in netlist.latches.values():
        latch.data = resolve(latch.data)
        if latch.enable is not None:
            latch.enable = resolve(latch.enable)
    for name in alias:
        del netlist.gates[name]
    if alias:
        netlist.touch()
    return len(alias)


def sweep_dead(netlist: Netlist) -> int:
    """Remove gates and latches not in the fanin cone of any output.

    Latch data/enable nets count as uses while the latch is live.
    Returns the number of removed elements.
    """
    live: Set[str] = set()
    frontier = list(netlist.outputs)
    while frontier:
        net = frontier.pop()
        if net in live:
            continue
        live.add(net)
        gate = netlist.gates.get(net)
        if gate is not None:
            frontier.extend(gate.inputs)
        latch = netlist.latches.get(net)
        if latch is not None:
            frontier.append(latch.data)
            if latch.enable is not None:
                frontier.append(latch.enable)

    removed = 0
    for net in list(netlist.gates):
        if net not in live:
            del netlist.gates[net]
            removed += 1
    for net in list(netlist.latches):
        if net not in live:
            del netlist.latches[net]
            removed += 1
    if removed:
        netlist.touch()
    return removed


def clean(netlist: Netlist) -> Tuple[int, int, int]:
    """Constant-propagate, drop buffers, and sweep dead logic.

    Returns ``(folded, buffers, dead)`` counts. The netlist is modified
    in place and re-validated.
    """
    folded = propagate_constants(netlist)
    buffers = sweep_buffers(netlist)
    dead = sweep_dead(netlist)
    netlist.validate()
    return folded, buffers, dead

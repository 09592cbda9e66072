"""Network-flow baseline binder (the LOPASS comparison point).

LOPASS [3,4] binds with a min-cost network-flow formulation (Chen &
Cong, ASP-DAC'04 [2]) that assigns *all* operations of a class to FUs
in a single pass, minimizing an interconnect/multiplexer cost — with
no glitch model. This module implements that formulation:

* one flow unit = one functional unit; a unit's path through the DAG
  of compatible operations is the set of operations bound to it;
* every operation's internal edge carries a large reward so min-cost
  solutions cover all operations (feasible whenever the FU count is at
  least the densest-step count);
* edge costs between consecutive operations count the new register
  sources the successor adds to the unit's two input ports — the flow
  view of multiplexer growth.

The contrast with HLPower is exactly the paper's: a one-shot,
mux-aware but glitch-blind global optimization versus an iterative,
glitch-aware matching (Section 5.2.2: "The iterative approach ...
allows the multiplexer size to be better controlled than is possible
with single iteration approaches, such as with a network flow
algorithm").
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional

from repro.errors import BindingError, ResourceError
from repro.binding.base import (
    BindingSolution,
    FUBinding,
    FunctionalUnit,
    PortAssignment,
    RegisterBinding,
)
from repro.binding.registers import assign_ports, bind_registers
from repro.cdfg.graph import Operation
from repro.cdfg.schedule import Schedule

#: Reward (negative cost) for covering one operation; must dominate any
#: feasible interconnect cost so coverage is never traded away.
_COVER_REWARD = 1_000_000


def bind_lopass(
    schedule: Schedule,
    constraints: Mapping[str, int],
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
) -> BindingSolution:
    """Bind every operation with the min-cost-flow formulation."""
    started = time.perf_counter()
    cdfg = schedule.cdfg
    if registers is None:
        registers = bind_registers(schedule)
    if ports is None:
        ports = assign_ports(cdfg)

    units: List[FunctionalUnit] = []
    constraint_met = True
    for fu_class in cdfg.resource_classes():
        limit = constraints.get(fu_class)
        if limit is None:
            raise ResourceError(f"no constraint for class {fu_class!r}")
        chains = _bind_class(schedule, fu_class, limit, registers, ports)
        if len(chains) > limit:
            constraint_met = False
        for chain in chains:
            units.append(
                FunctionalUnit(len(units), fu_class, frozenset(chain))
            )

    solution = BindingSolution(
        schedule=schedule,
        registers=registers,
        ports=ports,
        fus=FUBinding(units, constraint_met),
        algorithm="lopass",
        runtime_s=time.perf_counter() - started,
    )
    solution.validate()
    return solution


def _bind_class(
    schedule: Schedule,
    fu_class: str,
    limit: int,
    registers: RegisterBinding,
    ports: PortAssignment,
) -> List[List[int]]:
    """Chains of operation ids, one chain per allocated FU."""
    import networkx as nx  # only this oracle needs it

    cdfg = schedule.cdfg
    ops = sorted(
        (
            op
            for op in cdfg.operations.values()
            if op.resource_class == fu_class
        ),
        key=lambda op: (schedule.start_of(op), op.op_id),
    )
    if not ops:
        return []
    _, density = schedule.densest_step(fu_class)
    if limit < density:
        raise ResourceError(
            f"constraint {limit} for {fu_class!r} below the "
            f"densest-step bound {density}"
        )

    graph = nx.DiGraph()
    graph.add_node("S", demand=-limit)
    graph.add_node("T", demand=limit)
    graph.add_edge("S", "T", capacity=limit, weight=0)  # idle units

    # LOPASS's FU binding runs before registers are assigned, so its
    # interconnect costs are *variable*-level estimates: two operations
    # share an input only when they read the same variable. (HLPower's
    # structural advantage — Section 5.2.2 — is exactly that register
    # binding precedes FU binding, so it sees exact register-level mux
    # sizes; giving the baseline that knowledge would overstate it.)
    port_regs = {op.op_id: ports.of(op) for op in ops}
    for op in ops:
        node_in = ("in", op.op_id)
        node_out = ("out", op.op_id)
        graph.add_edge(node_in, node_out, capacity=1, weight=-_COVER_REWARD)
        graph.add_edge("S", node_in, capacity=1, weight=2)  # two fresh ports
        graph.add_edge(node_out, "T", capacity=1, weight=0)
    for i, earlier in enumerate(ops):
        for later in ops[i + 1:]:
            if schedule.end_of(earlier) < schedule.start_of(later):
                cost = _transition_cost(
                    port_regs[earlier.op_id], port_regs[later.op_id]
                )
                graph.add_edge(
                    ("out", earlier.op_id),
                    ("in", later.op_id),
                    capacity=1,
                    weight=cost,
                )

    # Exactly `limit` units of flow (node demands), minimum cost; the
    # coverage rewards make every op-internal edge carry flow.
    flow = nx.min_cost_flow(graph)
    return _extract_chains(flow, ops)


def _transition_cost(earlier_regs, later_regs) -> int:
    """New mux inputs when ``later`` joins a unit after ``earlier``.

    The pairwise surrogate for multiplexer growth used by flow-based
    binders: each port whose source *variable* differs from the
    predecessor's adds one estimated multiplexer input.
    """
    cost = 0
    if later_regs[0] != earlier_regs[0]:
        cost += 1
    if later_regs[1] != earlier_regs[1]:
        cost += 1
    return cost


def _extract_chains(flow, ops: List[Operation]) -> List[List[int]]:
    """Follow unit flow paths S -> ... -> T into operation chains."""
    next_of: Dict[int, Optional[int]] = {}
    starts: List[int] = []
    for op in ops:
        if flow["S"].get(("in", op.op_id), 0) > 0:
            starts.append(op.op_id)
        out_flow = flow[("out", op.op_id)]
        successor = None
        for target, amount in out_flow.items():
            if amount > 0 and target != "T":
                successor = target[1]
                break
        next_of[op.op_id] = successor
        if flow[("in", op.op_id)][("out", op.op_id)] == 0:
            raise BindingError(
                f"network flow left operation {op.op_id} uncovered"
            )

    chains: List[List[int]] = []
    for start in starts:
        chain = []
        current: Optional[int] = start
        while current is not None:
            chain.append(current)
            current = next_of[current]
        chains.append(chain)

    covered = {op_id for chain in chains for op_id in chain}
    if len(covered) != len(ops):
        raise BindingError(
            f"flow chains cover {len(covered)} of {len(ops)} operations"
        )
    return chains

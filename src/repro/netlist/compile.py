"""Compiled netlist views: the one array view per netlist, and the
worklist cleanup (the compiled elaboration's clean pass).

:class:`NetArrays` is the array form of a netlist that the tech mapper,
the simulator, the glitch estimator and timing all read, built once per
:attr:`~repro.netlist.gates.Netlist.version` (:func:`net_arrays`).

:func:`repro.netlist.transform.propagate_constants` re-walks the whole
netlist once per folding pass: every pass rebuilds the constant-net
dict and the topological order, so a chain of K dependent constants
costs K full traversals. This module re-implements the fixpoint as a
worklist over a consumers map built once — each pass only visits the
gates that actually read a net that became constant in the previous
pass.

The rewrite sequence is provably identical to the reference pass
structure: within one reference pass every gate folds against the
constant snapshot taken at pass start, so the per-pass fold set and
the fold results are order-independent, and a gate's inputs can only
contain constants discovered in the immediately preceding pass (older
constant inputs were already cofactored away). The worklist's wave
``p`` therefore folds exactly the gates reference pass ``p`` folds,
with the same :func:`~repro.netlist.transform._fold_gate` and the same
cumulative constants — same rewrite count, same final gates.

Buffer and dead-logic sweeps are already linear-time; the reference
implementations run unchanged, so :func:`clean_fast` produces a
netlist byte-identical to :func:`~repro.netlist.transform.clean`
(``tests/netlist/test_clean_fast.py`` pins the equivalence).
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import chain, permutations
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import NetlistError
from repro.netlist.gates import Gate, GateType, Netlist, TruthTable
from repro.netlist.transform import _fold_gate

_CONST_TYPES = (GateType.CONST0, GateType.CONST1)


class NetArrays:
    """Dense-id array view of one :class:`Netlist` version.

    Nets are numbered sources first (primary inputs, then latch
    outputs), then gate outputs in topological order: gate ``g`` (an
    index into the per-gate arrays) drives net ``n_sources + g``.
    ``n_nets`` pads ``fanin`` rows past a gate's arity. Sources and
    zero-input gates are at level 0, any other gate one above its
    deepest fanin. Raises :class:`NetlistError` when a net has two
    drivers or a gate reads an undriven net.
    """

    def __init__(self, netlist: Netlist):
        #: The netlist and the version this view was built from.
        self.netlist = netlist
        self.version = netlist.version
        order = netlist.topological_order()
        #: Net id -> name, and name -> net id.
        self.names = names = [*netlist.inputs, *netlist.latches, *order]
        self.ids = ids = {name: index for index, name in enumerate(names)}
        if len(ids) != len(names):
            twice = next(n for n, c in Counter(names).items() if c > 1)
            raise NetlistError(
                f"{netlist.name}: net {twice!r} has two drivers"
            )
        n_nets = self.n_nets = len(names)
        n_sources = self.n_sources = n_nets - len(order)
        n_gates = len(order)
        gates = list(map(netlist.gates.__getitem__, order))
        #: Per gate: its truth table and its input count.
        self.tables: List[TruthTable] = [gate.table for gate in gates]
        inputs = [gate.inputs for gate in gates]
        self.arity = np.fromiter(map(len, inputs), np.intp, n_gates)
        try:
            flat = np.fromiter(map(ids.__getitem__, chain.from_iterable(
                inputs)), np.intp, int(self.arity.sum()))
        except KeyError as exc:
            gate = next(g for g in gates if exc.args[0] in g.inputs)
            raise NetlistError(
                f"{netlist.name}: gate {gate.output!r} reads undriven "
                f"net {exc.args[0]!r}"
            ) from None
        width = int(self.arity.max(initial=0))
        #: ``(n_gates, max arity)`` fanin net ids in port order.
        self.fanin = np.full((n_gates, width), n_nets, dtype=np.intp)
        self.fanin[np.arange(width) < self.arity[:, None]] = flat
        #: Fanout CSR: the gates reading net ``n``, one per reading
        #: port, are ``fanout_gates[fanout_ptr[n]:fanout_ptr[n + 1]]``.
        reader = np.repeat(np.arange(n_gates), self.arity)
        by_net = np.argsort(flat, kind="stable")
        self.fanout_gates = reader[by_net]
        self.fanout_ptr = np.searchsorted(
            flat[by_net], np.arange(n_nets + 1)
        )

        # Levels as Kahn waves: a gate is ready once every fanin above
        # level 0 is settled, so wave ``L`` is level ``L``.
        ground = np.concatenate([np.ones(n_sources, bool), self.arity == 0])
        pending = np.bincount(reader[~ground[flat]], minlength=n_gates)
        #: Per level (0 first), its gates in topological order.
        self.by_level = [np.flatnonzero(self.arity == 0)]
        wave = np.flatnonzero(~ground[n_sources:] & (pending == 0))
        while len(wave):
            self.by_level.append(wave)
            begin = self.fanout_ptr[n_sources + wave]
            sizes = self.fanout_ptr[n_sources + wave + 1] - begin
            ends = np.cumsum(sizes)
            readers, counts = np.unique(self.fanout_gates[
                np.arange(ends[-1]) + np.repeat(begin - ends + sizes, sizes)
            ], return_counts=True)
            pending[readers] -= counts
            wave = readers[pending[readers] == 0]
        #: Per net: its unit-delay level.
        self.level = np.zeros(n_nets, dtype=np.int64)
        for level, gates_at in enumerate(self.by_level):
            self.level[n_sources + gates_at] = level
        #: Per delay jitter: the simulator's lowering of this view
        #: (see :func:`repro.fpga.simulate.compile_netlist`).
        self.lowered: Dict[int, Any] = {}

    @functools.cached_property
    def rank(self) -> np.ndarray:
        """Per net: the rank of its name among all net names."""
        by_name = sorted(range(self.n_nets), key=self.names.__getitem__)
        return np.argsort(by_name)


def net_arrays(netlist: Netlist) -> NetArrays:
    """The :class:`NetArrays` of ``netlist``'s current version, cached
    on the netlist until an edit (see :meth:`Netlist.touch`)."""
    cached = getattr(netlist, "_arrays", None)
    if cached is None or cached.version != netlist.version:
        cached = netlist._arrays = NetArrays(netlist)
    return cached


@functools.lru_cache(maxsize=None)
def permutation_maps(n: int) -> Tuple[List[Tuple[int, ...]], np.ndarray]:
    """The permutations of ``n`` table inputs, in ``itertools`` order,
    and an ``(n!, 2**n)`` index matrix: row ``r`` maps each index of
    the table :meth:`TruthTable.permute` makes with permutation ``r``
    (new input ``k`` reads old input ``order[k]``) to its index in the
    original table."""
    orders = list(permutations(range(n)))
    inputs = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    old = np.array(orders, dtype=np.int64).reshape(len(orders), 1, n)
    return orders, (inputs << old).sum(axis=2)


def make_gate(
    output: str, inputs: Tuple[str, ...], table, gate_type: GateType
) -> Gate:
    """Build a :class:`Gate` skipping the dataclass arity re-check.

    Only for callers that copy an existing gate or template record —
    the table arity is already known to match ``inputs``.
    """
    gate = Gate.__new__(Gate)
    gate.output = output
    gate.inputs = inputs
    gate.table = table
    gate.gate_type = gate_type
    return gate


def propagate_constants_fast(netlist: Netlist) -> int:
    """Worklist version of :func:`~repro.netlist.transform.propagate_constants`.

    Returns the same rewrite count and leaves the same gates dict as
    the reference fixpoint.
    """
    gates = netlist.gates
    consumers: Dict[str, List[str]] = {}
    constants: Dict[str, bool] = {}
    for net, gate in gates.items():
        value = gate.table.is_constant()
        if value is not None:
            constants[net] = value
        for name in gate.inputs:
            readers = consumers.get(name)
            if readers is None:
                consumers[name] = [net]
            else:
                readers.append(net)

    rewrites = 0
    wave = list(constants)
    while wave:
        # Gates reading a net that became constant last wave, each
        # once. Folding only ever removes inputs, so the consumers map
        # built above stays a superset of the live fanout — and a net
        # newly constant this wave was never constant before, hence
        # never cofactored out of any reader.
        dirty: List[str] = []
        seen = set()
        for net in wave:
            for reader in consumers.get(net, ()):
                if reader not in seen:
                    seen.add(reader)
                    dirty.append(reader)
        # Defer new constants to the end of the wave: the reference
        # folds every gate of a pass against the snapshot taken at
        # pass start.
        found: List[Tuple[str, bool]] = []
        for net in dirty:
            gate = gates.get(net)
            if gate is None or gate.gate_type in _CONST_TYPES:
                continue
            new_gate = _fold_gate(gate, constants)
            if new_gate is None:
                continue
            gates[net] = new_gate
            rewrites += 1
            value = new_gate.table.is_constant()
            if value is not None and net not in constants:
                found.append((net, value))
        wave = []
        for net, value in found:
            constants[net] = value
            wave.append(net)
    if rewrites:
        netlist.touch()
    return rewrites


def sweep_buffers_fast(netlist: Netlist) -> int:
    """Flat version of :func:`~repro.netlist.transform.sweep_buffers`.

    Resolves every buffer alias to its final target up front instead of
    path-compressing lazily per reference, then rewires in one pass.
    Same removals, same rewritten gates, same return count.
    """
    gates = netlist.gates
    outputs = set(netlist.outputs)
    alias: Dict[str, str] = {}
    for net, gate in gates.items():
        if gate.gate_type is GateType.BUF and net not in outputs:
            alias[net] = gate.inputs[0]

    final: Dict[str, str] = {}
    for net in alias:
        target = net
        chain = []
        while target in alias:
            resolved = final.get(target)
            if resolved is not None:
                target = resolved
                break
            chain.append(target)
            target = alias[target]
        for name in chain:
            final[name] = target

    get = final.get
    for net, gate in gates.items():
        if net in alias:
            continue
        old_inputs = gate.inputs
        hit = False
        for name in old_inputs:
            if name in final:
                hit = True
                break
        if not hit:
            continue
        new_inputs = tuple(
            mapped if (mapped := get(name)) is not None else name
            for name in old_inputs
        )
        gates[net] = make_gate(net, new_inputs, gate.table, gate.gate_type)
    for latch in netlist.latches.values():
        latch.data = final.get(latch.data, latch.data)
        if latch.enable is not None:
            latch.enable = final.get(latch.enable, latch.enable)
    for name in alias:
        del gates[name]
    if alias:
        netlist.touch()
    return len(alias)


def sweep_dead_fast(netlist: Netlist) -> int:
    """Flat version of :func:`~repro.netlist.transform.sweep_dead`.

    Same live cone, same removals, same return count; the frontier
    walk just avoids a latch-dict probe for nets that are gates.
    """
    gates = netlist.gates
    latches = netlist.latches
    live = set()
    frontier = list(netlist.outputs)
    while frontier:
        net = frontier.pop()
        if net in live:
            continue
        live.add(net)
        gate = gates.get(net)
        if gate is not None:
            frontier.extend(gate.inputs)
            continue
        latch = latches.get(net)
        if latch is not None:
            frontier.append(latch.data)
            if latch.enable is not None:
                frontier.append(latch.enable)

    removed = 0
    for net in [net for net in gates if net not in live]:
        del gates[net]
        removed += 1
    for net in [net for net in latches if net not in live]:
        del latches[net]
        removed += 1
    if removed:
        netlist.touch()
    return removed


def clean_fast(netlist: Netlist) -> Tuple[int, int, int]:
    """Drop-in for :func:`~repro.netlist.transform.clean`.

    Same ``(folded, buffers, dead)`` counts, same final netlist; each
    pass is the worklist/flat twin of its reference transform.
    """
    folded = propagate_constants_fast(netlist)
    buffers = sweep_buffers_fast(netlist)
    dead = sweep_dead_fast(netlist)
    netlist.validate()
    return folded, buffers, dead

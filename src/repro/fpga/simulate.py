"""Exact gate-level simulation with glitch counting (event-driven).

This is the reproduction's stand-in for Quartus II's vector simulation
(with *glitch filtering set to never*, as the paper configures): every
signal transition — functional or glitch — is counted.

Model:

* every input vector occupies one bit lane; all lanes evaluate
  simultaneously through bitwise ops on packed ``uint64`` words;
* each control step, the changed sources (clocked flip-flops, control
  signals, pads at load time) kick off a timed settling of the
  combinational network: a gate re-evaluates at every discrete time at
  which one of its fanins changed, and its output change (if any)
  propagates one gate delay later — exactly the delay model the
  paper's SA estimator assumes (Section 4);
* every appended transition adds ``popcount(old XOR new)`` to the
  owning net's toggle counter;
* at the end of the step all flip-flops clock simultaneously (their
  output toggles are the register power contribution).

The flow runs one event-driven kernel over a *compiled netlist*
(:func:`compile_netlist`, cached on the netlist object): every net has
a dense integer id, and the fanin matrix, evaluator classes, fanout
CSR and power-on state are numpy arrays built once per netlist. Lane
state is one ``(n_nets, n_words)`` ``uint64`` array. Settling walks a
time wheel one tick at a time, and a tick is processed in bulk: the
gates triggered at that tick read ``state`` (which only the wheel
changes), so they are independent and evaluate as one
``(n_gates, n_words)`` array per truth table. :func:`simulate_batch`
runs many (stimulus x idle policy x jitter) configurations of one
design in a single pass, one lane block each; :func:`simulate_design`
is a batch of one.

The original timed-waveform implementation stays verbatim as
:func:`_simulate_reference`, the differential-testing oracle: the
kernel's :class:`SimulationResult` records are byte-identical to it
(the differential suite pins this across every built-in benchmark,
both idle conventions, jittered delays and mixed batches).

Functional correctness is checked against the CDFG's arithmetic
semantics (modular add/sub/mult) via :func:`golden_outputs`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.fpga.elaborate import ElaboratedDesign
from repro.fpga.vectors import (
    VectorSet,
    broadcast,
    n_words,
    popcount,
    unpack_lane_values,
)
from repro.netlist.gates import Netlist, TruthTable
from repro.rtl.controller import build_controller


@dataclass
class SimulationResult:
    """Transition counts from one run."""

    lanes: int
    steps: int
    comb_toggles: int
    register_toggles: int
    pad_toggles: int
    control_toggles: int
    per_net: Dict[str, int] = field(default_factory=dict)
    #: Primary-output position -> per-lane integer values.
    outputs: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def total_toggles(self) -> int:
        return (
            self.comb_toggles
            + self.register_toggles
            + self.pad_toggles
            + self.control_toggles
        )


_EVALUATOR_CACHE: Dict[Tuple[int, int], Callable] = {}


def _compile_table(table: TruthTable) -> Callable:
    """Compile a truth table into a packed-word evaluator.

    Shannon expansion over the inputs: ``2^k - 1`` select operations of
    the form ``(x & hi) | (~x & lo)``, bottoming out at constant words.
    Compiled once per distinct function and cached process-wide.
    """
    key = (table.n_inputs, table.bits)
    cached = _EVALUATOR_CACHE.get(key)
    if cached is not None:
        return cached

    n = table.n_inputs

    def build(level: int, bits: int):
        """Evaluator for the sub-function over inputs [0, level)."""
        if level == 0:
            return bool(bits & 1)
        half = 1 << (level - 1)
        mask = (1 << half) - 1
        lo = build(level - 1, bits & mask)
        hi = build(level - 1, bits >> half)
        if lo is hi or (isinstance(lo, bool) and lo == hi):
            return lo
        sel_index = level - 1

        if isinstance(lo, bool) and isinstance(hi, bool):
            if hi and not lo:
                return lambda values, ones: values[sel_index]
            # lo and not hi
            return lambda values, ones: values[sel_index] ^ ones

        def node(values, ones, lo=lo, hi=hi, sel_index=sel_index):
            sel = values[sel_index]
            lo_words = lo if isinstance(lo, np.ndarray) else (
                lo(values, ones) if callable(lo) else (ones if lo else None)
            )
            hi_words = hi if isinstance(hi, np.ndarray) else (
                hi(values, ones) if callable(hi) else (ones if hi else None)
            )
            if lo_words is None:  # constant 0
                return sel & hi_words
            if hi_words is None:
                return ~sel & lo_words
            return (sel & hi_words) | (~sel & lo_words)

        return node

    # Shannon on the full table; inputs ordered LSB-first like
    # TruthTable indices.
    root = build(n, table.bits)
    if isinstance(root, bool):
        constant = root

        def evaluator(values, ones, zeros):
            return ones.copy() if constant else zeros.copy()

    else:

        def evaluator(values, ones, zeros, root=root):
            result = root(values, ones)
            return result & ones  # mask tail lanes

    _EVALUATOR_CACHE[key] = evaluator
    return evaluator


def _gate_delay(net: str, jitter: int) -> int:
    """Deterministic per-gate delay in ``1 .. 1 + jitter`` ticks."""
    if jitter <= 0:
        return 1
    return 1 + (zlib.crc32(net.encode()) % (jitter + 1))


_INT_EVALUATOR_CACHE: Dict[Tuple[int, int], Callable] = {}


def _compile_table_int(table: TruthTable) -> Callable:
    """Compile a truth table into a flat bitwise expression.

    Same Shannon expansion as :func:`_compile_table`, code-generated
    into one flat expression over ``& | ^ ~`` only, so it runs
    unchanged on packed Python integers and on ``uint64`` arrays — the
    kernel calls it once per truth table and tick on
    ``(n_gates, n_words)`` fanin arrays. Every intermediate stays within
    the ``ones`` lane mask by construction (``~x`` only ever appears
    under an ``&`` with an in-mask operand), so no tail masking is
    needed. A constant table returns ``ones`` or ``0``, which broadcast
    on assignment. Cached process-wide per distinct function.
    """
    key = (table.n_inputs, table.bits)
    cached = _INT_EVALUATOR_CACHE.get(key)
    if cached is not None:
        return cached

    used: set = set()

    def build(level: int, bits: int):
        """Expression for the sub-function over inputs [0, level)."""
        if level == 0:
            return bool(bits & 1)
        half = 1 << (level - 1)
        mask = (1 << half) - 1
        lo = build(level - 1, bits & mask)
        hi = build(level - 1, bits >> half)
        if lo == hi and isinstance(lo, (bool, str)) and type(lo) is type(hi):
            return lo
        sel = f"v{level - 1}"
        used.add(level - 1)
        lo_bool = isinstance(lo, bool)
        hi_bool = isinstance(hi, bool)
        if lo_bool and hi_bool:
            if hi:  # hi=1, lo=0: the select input itself
                return sel
            # hi=0, lo=1: the select input, inverted within the mask
            return f"({sel} ^ ones)"
        if lo_bool:
            if lo:  # (sel & hi) | (~sel & ones)
                return f"(({sel} & {hi}) | ({sel} ^ ones))"
            return f"({sel} & {hi})"
        if hi_bool:
            if hi:  # (sel & ones) | (~sel & lo) == sel | lo
                return f"({sel} | {lo})"
            return f"(~{sel} & {lo})"
        return f"(({sel} & {hi}) | (~{sel} & {lo}))"

    root = build(table.n_inputs, table.bits)
    if isinstance(root, bool):
        body = "ones" if root else "0"
        unpack = []
    else:
        body = root
        unpack = [f"v{i} = values[{i}]" for i in sorted(used)]
    lines = ["def _evaluate(values, ones):"]
    lines.extend(f"    {line}" for line in unpack)
    lines.append(f"    return {body}")
    namespace: Dict[str, Callable] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from bits only
    evaluator = namespace["_evaluate"]
    _INT_EVALUATOR_CACHE[key] = evaluator
    return evaluator


#: A ``uint64`` word with every lane set.
_ALL_LANES = np.uint64(0xFFFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# Compiled netlist: the integer-indexed array form the kernel operates on.
# Built once per (netlist, jitter) and cached on the netlist object itself,
# so repeated simulations of the same design (differential tests, sweeps,
# benches) skip the lowering entirely.
# ---------------------------------------------------------------------------


@dataclass
class CompiledNetlist:
    """Dense-id lowering of a :class:`Netlist` for simulation.

    Net ids are assigned sources-first (primary inputs, then latch
    outputs), then gate outputs in topological order. Gate *positions*
    are class-major: gates are sorted by evaluator class (one class per
    distinct truth table), then topologically, so any sorted array of
    positions is already grouped by class.
    """

    jitter: int
    n_nets: int
    #: Net name -> dense id.
    net_id: Dict[str, int]
    #: Dense id -> net name (inverse of :attr:`net_id`).
    net_names: List[str]
    #: Per gate position: output net id.
    gate_out: np.ndarray
    #: ``(n_gates, max arity)`` fanin net ids in port order; a row is
    #: zero-padded past its gate's arity.
    gate_fanins: np.ndarray
    #: Per gate position: propagation delay in ticks.
    gate_delays: np.ndarray
    #: Per evaluator class: the flat evaluator and its arity.
    class_evals: List[Callable]
    class_arity: List[int]
    #: ``n_classes + 1`` bounds: class ``c`` holds positions
    #: ``class_start[c] .. class_start[c + 1] - 1``.
    class_start: np.ndarray
    #: Fanout CSR: the positions of the gates reading net ``n`` are
    #: ``fanout_gates[fanout_ptr[n]:fanout_ptr[n + 1]]`` (one entry per
    #: reading port, so a duplicated fanin appears twice).
    fanout_ptr: np.ndarray
    fanout_gates: np.ndarray
    #: Per latch (declaration order): output net id and data net id.
    latch_q: np.ndarray
    latch_d: np.ndarray
    #: Per net: its value after the power-on settle of the all-zero
    #: sources (every lane alike), evaluated level by level.
    power_on: np.ndarray
    #: Cheap staleness guard for the per-netlist cache.
    signature: Tuple[int, int, int]

    @property
    def n_gates(self) -> int:
        return len(self.gate_out)


def _netlist_signature(netlist: Netlist) -> Tuple[int, int, int]:
    return (len(netlist.inputs), len(netlist.gates), len(netlist.latches))


def compile_netlist(netlist: Netlist, delay_jitter: int = 0) -> CompiledNetlist:
    """Compiled form of ``netlist`` for the given delay spread.

    Cached on the netlist instance, keyed by ``delay_jitter``; a gate or
    latch added after compilation invalidates the cached entry (the
    signature check), so stale lowerings are never reused.
    """
    cache = getattr(netlist, "_sim_compiled", None)
    if cache is None:
        cache = {}
        netlist._sim_compiled = cache
    compiled = cache.get(delay_jitter)
    if compiled is None or compiled.signature != _netlist_signature(netlist):
        compiled = _lower_netlist(netlist, delay_jitter)
        cache[delay_jitter] = compiled
    return compiled


def _lower_netlist(netlist: Netlist, jitter: int) -> CompiledNetlist:
    topo = netlist.topological_order()
    net_names = list(netlist.inputs) + list(netlist.latches) + topo
    net_id = {name: index for index, name in enumerate(net_names)}
    if len(net_id) != len(net_names):
        raise SimulationError(
            f"{netlist.name}: net driven by more than one of "
            f"input/latch/gate"
        )

    class_of: Dict[Tuple[int, int], int] = {}
    class_evals: List[Callable] = []
    class_arity: List[int] = []
    net_level = [0] * len(net_names)
    rows = []  # (class, topological index, name, fanin ids, level)
    for index, name in enumerate(topo):
        gate = netlist.gates[name]
        try:
            fanins = [net_id[fanin] for fanin in gate.inputs]
        except KeyError as exc:
            raise SimulationError(
                f"{netlist.name}: gate {name!r} reads undriven net {exc}"
            ) from None
        key = (gate.table.n_inputs, gate.table.bits)
        if key not in class_of:
            class_of[key] = len(class_evals)
            class_evals.append(_compile_table_int(gate.table))
            class_arity.append(len(fanins))
        level = 1 + max((net_level[i] for i in fanins), default=0)
        net_level[net_id[name]] = level
        rows.append((class_of[key], index, name, fanins, level))
    rows.sort(key=lambda row: row[:2])

    n_gates = len(rows)
    gate_fanins = np.zeros(
        (n_gates, max(class_arity, default=0)), dtype=np.intp
    )
    for position, (_, _, _, fanins, _) in enumerate(rows):
        gate_fanins[position, :len(fanins)] = fanins
    gate_out = np.array([net_id[row[2]] for row in rows], dtype=np.intp)
    classes = np.array([row[0] for row in rows], dtype=np.intp)
    readers = np.array(
        [net for row in rows for net in row[3]], dtype=np.intp
    )
    order = np.argsort(readers, kind="stable")
    latches = list(netlist.latches.values())
    compiled = CompiledNetlist(
        jitter=jitter,
        n_nets=len(net_names),
        net_id=net_id,
        net_names=net_names,
        gate_out=gate_out,
        gate_fanins=gate_fanins,
        gate_delays=np.array(
            [_gate_delay(row[2], jitter) for row in rows], dtype=np.int64
        ),
        class_evals=class_evals,
        class_arity=class_arity,
        class_start=np.searchsorted(
            classes, np.arange(len(class_evals) + 1)
        ),
        fanout_ptr=np.searchsorted(
            readers[order], np.arange(len(net_names) + 1)
        ),
        fanout_gates=np.repeat(
            np.arange(n_gates), [len(row[3]) for row in rows]
        )[order],
        latch_q=np.array(
            [net_id[latch.output] for latch in latches], dtype=np.intp
        ),
        latch_d=np.array(
            [net_id[latch.data] for latch in latches], dtype=np.intp
        ),
        power_on=np.zeros(len(net_names), dtype=bool),
        signature=_netlist_signature(netlist),
    )

    # Power-on settle of the all-zero sources: every lane is alike, so
    # one word per net suffices; each topological level only reads
    # earlier ones, so a level evaluates as one batch.
    levels = np.array([row[4] for row in rows], dtype=np.int64)
    state = np.zeros((len(net_names), 1), dtype=np.uint64)
    ones = np.full(1, _ALL_LANES)
    for level in range(1, int(levels.max(initial=0)) + 1):
        gates = np.flatnonzero(levels == level)
        state[gate_out[gates]] = _evaluate(compiled, gates, state, ones)
    compiled.power_on = state[:, 0] != 0
    return compiled


# ---------------------------------------------------------------------------
# The kernel: many (vectors x jitter x idle) configurations of one design in
# one event-driven pass, each owning a word-aligned block of lanes.
# ---------------------------------------------------------------------------


@dataclass
class BatchConfig:
    """One configuration of a batched simulation run.

    The netlist, datapath and control table come from the shared
    design; a configuration only varies the simulation knobs — the
    stimulus, the idle-step control convention and the delay spread.
    """

    vectors: VectorSet
    idle_selects: str = "zero"
    delay_jitter: int = 0


def simulate_design(
    design: ElaboratedDesign,
    vectors: VectorSet,
    collect_per_net: bool = False,
    idle_selects: str = "zero",
    delay_jitter: int = 0,
) -> SimulationResult:
    """Replay the control table over the netlist for all lanes.

    ``idle_selects`` picks the idle-step control convention (see
    :meth:`repro.rtl.controller.Controller.resolved`).

    ``delay_jitter`` spreads per-gate delays over ``1 .. 1 + jitter``
    ticks, keyed deterministically by output net name. The paper's SA
    *estimator* assumes pure unit delay, but its *measurement* is a
    Quartus timing simulation with real routed delays and glitch
    filtering off; the jitter models that routing spread (0 restores
    the pure unit-delay model — the estimator-vs-measurement gap is an
    ablation bench).

    A batch of one: see :func:`simulate_batch`.
    """
    [result] = simulate_batch(
        design, [BatchConfig(vectors, idle_selects, delay_jitter)],
        collect_per_net=collect_per_net,
    )
    return result


def _check_stimulus(design: ElaboratedDesign, vectors: VectorSet) -> None:
    """Every pad bus of ``design`` must have a bus at least as wide."""
    for position, nets in design.pad_nets.items():
        bus = vectors.pads.get(position)
        if bus is None or len(bus) < len(nets):
            have = (
                f"{len(bus)} bits" if bus is not None
                else f"no bus (it has {len(vectors.pads)})"
            )
            raise SimulationError(
                f"pad {position}: the design takes {len(nets)} bits, "
                f"the vector set has {have}"
            )


def _block_mask(words: int, start: int, lanes: int) -> np.ndarray:
    """Lane mask of the block of ``lanes`` lanes starting at word ``start``."""
    mask = np.zeros(words, dtype=np.uint64)
    end = start + n_words(lanes)
    mask[start:end] = _ALL_LANES
    if lanes % 64:
        mask[end - 1] = np.uint64((1 << (lanes % 64)) - 1)
    return mask


def _delay_plan(
    delays: np.ndarray, group_words: List[Tuple[int, int]]
) -> Tuple[List[Tuple[int, Optional[List[Tuple[int, int]]]]],
           Optional[np.ndarray]]:
    """Wheel entries and per-gate membership for the delay groups.

    ``delays`` is ``(n_groups, n_gates)``; group ``g`` owns the words
    ``group_words[g]`` (a ``[start, end)`` range, groups laid out in
    order). Per gate, groups whose delay coincides merge into one entry
    ``(delay, word runs)``; runs of ``None`` cover every group. Returns
    the distinct entries and an ``(n_gates, n_entries)`` membership
    matrix (``None`` when there is one entry, which every gate then
    has).
    """
    plans, inverse = np.unique(delays, axis=1, return_inverse=True)
    entry_of: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    members: List[Tuple[int, int]] = []
    for plan in range(plans.shape[1]):
        column = plans[:, plan]
        for delay in np.unique(column):
            groups = tuple(np.flatnonzero(column == delay).tolist())
            entry = entry_of.setdefault((int(delay), groups), len(entry_of))
            members.append((plan, entry))
    entries = []
    for delay, groups in entry_of:
        runs = None
        if len(groups) < len(group_words):
            runs = []
            for group in groups:
                start, end = group_words[group]
                if runs and runs[-1][1] == start:
                    start = runs.pop()[0]
                runs.append((start, end))
        entries.append((delay, runs))
    if len(entries) == 1:
        return entries, None
    member = np.zeros((plans.shape[1], len(entries)), dtype=bool)
    for plan, entry in members:
        member[plan, entry] = True
    return entries, member[inverse.reshape(-1)]


def simulate_batch(
    design: ElaboratedDesign,
    configs: List[BatchConfig],
    collect_per_net: bool = False,
) -> List[SimulationResult]:
    """Simulate every configuration in one kernel pass.

    Returns one :class:`SimulationResult` per configuration, in order,
    byte-identical to a solo run of that configuration (the
    differential suite pins this against :func:`_simulate_reference`).

    Layout: configuration ``c`` owns a block of ``n_words(lanes_c)``
    words of every net's state row. Bitwise ops never move bits across
    lanes, so one evaluation serves every configuration; the lanes past
    a block's last vector are pinned at their power-on value and never
    toggle. Configurations sharing a ``delay_jitter`` form a *delay
    group* with one per-gate delay vector, and their blocks are laid
    out next to each other; per gate, groups whose delay coincides
    share one wheel entry (see :func:`_delay_plan`), and a transition
    lands only on its entry's words. Idle conventions differ only in
    the per-step control words, composed per mode with the block lane
    masks. Toggles accumulate per net and word; the per-configuration
    sums and the four categories (pad, control, latch and gate-output
    nets) are taken once at the end.
    """
    if not configs:
        return []
    for config in configs:
        _check_stimulus(design, config.vectors)

    compiled_by_jitter = {
        config.delay_jitter: compile_netlist(
            design.netlist, config.delay_jitter
        )
        for config in configs
    }
    compiled = compiled_by_jitter[configs[0].delay_jitter]
    net_id = compiled.net_id

    # Lane blocks, grouped by delay jitter so each group's words form
    # one contiguous range.
    starts = [0] * len(configs)
    group_words: List[Tuple[int, int]] = []
    total_words = 0
    for jitter in compiled_by_jitter:
        begin = total_words
        for ci, config in enumerate(configs):
            if config.delay_jitter == jitter:
                starts[ci] = total_words
                total_words += n_words(config.vectors.lanes)
        group_words.append((begin, total_words))
    entries, member = _delay_plan(
        np.stack([c.gate_delays for c in compiled_by_jitter.values()]),
        group_words,
    )

    block_masks = [
        _block_mask(total_words, start, config.vectors.lanes)
        for start, config in zip(starts, configs)
    ]
    real = np.bitwise_or.reduce(block_masks)
    padded = bool((real != _ALL_LANES).any())
    ones = np.full(total_words, _ALL_LANES)

    state = np.zeros((compiled.n_nets, total_words), dtype=np.uint64)
    state[compiled.power_on] = _ALL_LANES
    # Per gate: its last evaluated output (the projected final value).
    # Between settles every transition has landed, so it equals the
    # output net's state row.
    pending = state[compiled.gate_out]
    # Per net and word: toggles so far.
    toggles = np.zeros((compiled.n_nets, total_words), dtype=np.int64)

    def drive(nets: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Set source rows; returns the ids that changed."""
        old = state[nets]
        if padded:
            new = (new & real) | (old & ~real)
        delta = old ^ new
        hit = delta.any(axis=1)
        nets = nets[hit]
        toggles[nets] += np.bitwise_count(delta[hit])
        state[nets] = new[hit]
        return nets

    def settle(changed: np.ndarray) -> None:
        _settle(compiled, state, pending, toggles, changed, ones, entries,
                member)

    # Pads present every configuration's vector at the load step.
    pad_nets = [
        (position, bit, net_id[net])
        for position, nets in design.pad_nets.items()
        for bit, net in enumerate(nets)
    ]
    pad_ids = np.array([net for _, _, net in pad_nets], dtype=np.intp)
    pad_rows = np.zeros((len(pad_nets), total_words), dtype=np.uint64)
    for start, config in zip(starts, configs):
        if pad_nets:
            pad_rows[:, start:start + n_words(config.vectors.lanes)] = [
                config.vectors.pad_words(position, bit)
                for position, bit, _ in pad_nets
            ]

    # Control signals, composed per idle mode: a mode that does not
    # drive a signal (resolved() has no entry) keeps its lanes as they
    # are; the modes that do set theirs to the step's bit.
    controller = build_controller(design.datapath)
    mode_masks: Dict[str, np.ndarray] = {}
    for config, mask in zip(configs, block_masks):
        mode = config.idle_selects
        mode_masks[mode] = mode_masks.get(mode, 0) | mask
    control_nets = [
        (name, bit, net_id[net])
        for name, nets in design.control_nets.items()
        for bit, net in enumerate(nets)
    ]
    control_ids = np.array([net for _, _, net in control_nets], dtype=np.intp)
    n_steps = len(design.datapath.control)
    control_keep = np.tile(ones, (len(control_nets), 1))
    control_bits = []
    for mode, mask in mode_masks.items():
        values = controller.resolved(mode)
        bits = np.zeros((n_steps, len(control_nets)), dtype=bool)
        for column, (name, bit, _) in enumerate(control_nets):
            value = values.get(name)
            if value is not None:
                control_keep[column] &= ~mask
                bits[:, column] = [(word >> bit) & 1 for word in value]
        control_bits.append((bits, mask))

    for step in range(n_steps):
        changed = [drive(pad_ids, pad_rows)] if step == 0 else []
        control_rows = state[control_ids] & control_keep
        for bits, mask in control_bits:
            control_rows[bits[step]] |= mask
        changed.append(drive(control_ids, control_rows))
        settle(np.concatenate(changed))

        # Clock edge: all flip-flops load their data nets at once, then
        # the network settles again (counted — the paper's simulator
        # sees these transitions too, including after the final edge).
        settle(drive(compiled.latch_q, state[compiled.latch_d]))

    block_starts = sorted(starts)
    per_block = np.add.reduceat(toggles, block_starts, axis=1)
    categories = [
        per_block[ids].sum(axis=0)
        for ids in (compiled.gate_out, compiled.latch_q, pad_ids, control_ids)
    ]
    names = compiled.net_names
    results: List[SimulationResult] = []
    for start, config in zip(starts, configs):
        block = block_starts.index(start)
        lanes = config.vectors.lanes
        end = start + n_words(lanes)
        outputs = {
            position: [
                int(value) for value in unpack_lane_values(
                    [state[net_id[net], start:end] for net in nets], lanes
                )
            ]
            for position, nets in design.output_nets.items()
        }
        per_net: Dict[str, int] = {}
        if collect_per_net:
            column = per_block[:, block]
            for index in np.flatnonzero(column):
                per_net[names[index]] = int(column[index])
        comb, reg, pad, control = (int(total[block]) for total in categories)
        results.append(SimulationResult(
            lanes=lanes,
            steps=n_steps,
            comb_toggles=comb,
            register_toggles=reg,
            pad_toggles=pad,
            control_toggles=control,
            per_net=per_net,
            outputs=outputs,
        ))
    return results


def _evaluate(
    compiled: CompiledNetlist,
    gates: np.ndarray,
    state: np.ndarray,
    ones: np.ndarray,
) -> np.ndarray:
    """Outputs of the (sorted, distinct) gate positions ``gates`` over
    ``state``: one evaluator call per class present."""
    new = np.empty((len(gates), state.shape[1]), dtype=np.uint64)
    values = state[compiled.gate_fanins[gates].T]
    bounds = np.searchsorted(gates, compiled.class_start).tolist()
    for cls, arity in enumerate(compiled.class_arity):
        lo, hi = bounds[cls], bounds[cls + 1]
        if lo < hi:
            new[lo:hi] = compiled.class_evals[cls](values[:arity, lo:hi], ones)
    return new


def _settle(
    compiled: CompiledNetlist,
    state: np.ndarray,
    pending: np.ndarray,
    toggles: np.ndarray,
    changed: np.ndarray,
    ones: np.ndarray,
    entries: List[Tuple[int, Optional[List[Tuple[int, int]]]]],
    member: Optional[np.ndarray],
) -> None:
    """Event-driven settling after source changes at time 0.

    ``changed`` holds net ids whose ``state`` rows already hold the new
    time-0 value. The wheel walks time forward one tick at a time; a
    tick applies its pending transitions to ``state``, then every gate
    with a fanin among them re-evaluates against its *pending* value
    (its last evaluation, not the not-yet-updated net). A difference
    adds ``popcount(change)`` per word to ``toggles`` and schedules the
    output transition, per delay-plan entry whose words changed,
    ``delay`` ticks later. All delays are >= 1, so a tick's evaluations
    only read transitions scheduled strictly earlier: they are
    independent, and the whole tick runs as array operations.

    The wheel maps a tick to chunks ``(out ids, values, word runs)``,
    one per evaluation tick and plan entry, so out ids are distinct
    within a chunk. Two chunks landing on one net at one tick come from
    different entries of its gate's plan, whose words are disjoint.
    """
    fanout_ptr = compiled.fanout_ptr
    fanout_gates = compiled.fanout_gates
    wheel: Dict[int, List[Tuple[np.ndarray, np.ndarray, Optional[list]]]] = {}
    time = 0
    while True:
        # Triggered gates: CSR gather of the changed nets' fanouts.
        begin = fanout_ptr[changed]
        sizes = fanout_ptr[changed + 1] - begin
        size = int(sizes.sum())
        if size:
            ends = np.cumsum(sizes)
            gather = np.arange(size) + np.repeat(begin - ends + sizes, sizes)
            triggered = np.zeros(compiled.n_gates, dtype=bool)
            triggered[fanout_gates[gather]] = True
            gates = np.flatnonzero(triggered)
            new = _evaluate(compiled, gates, state, ones)
            counts = np.bitwise_count(pending[gates] ^ new)
            pending[gates] = new
            outs = compiled.gate_out[gates]
            toggles[outs] += counts
            hit = counts.any(axis=1)
            if not hit.all():
                outs, new, counts = outs[hit], new[hit], counts[hit]
                gates = gates[hit]
            if member is None:
                if len(outs):
                    wheel.setdefault(time + entries[0][0], []).append(
                        (outs, new, None)
                    )
            else:
                plans = member[gates]
                for entry, (delay, runs) in enumerate(entries):
                    take = plans[:, entry]
                    if runs is not None:
                        take &= np.any(
                            [counts[:, a:b].any(axis=1) for a, b in runs],
                            axis=0,
                        )
                    if take.any():
                        wheel.setdefault(time + delay, []).append(
                            (outs[take], new[take], runs)
                        )
        if not wheel:
            return
        time = min(wheel)
        chunks = wheel.pop(time)
        for outs, values, runs in chunks:
            if runs is None:
                # Every group's words; the lanes past a block's last
                # vector hold power-on values in both rows.
                state[outs] = values
            else:
                for a, b in runs:
                    state[outs, a:b] = values[:, a:b]
        changed = (
            chunks[0][0] if len(chunks) == 1
            else np.concatenate([outs for outs, _, _ in chunks])
        )


# ---------------------------------------------------------------------------
# Reference kernel (the seed implementation, kept as the differential
# oracle: per-gate timed waveforms settled in topological order).
# ---------------------------------------------------------------------------


class _Waveform:
    """Timed transitions of one net within a control step."""

    __slots__ = ("times", "values")

    def __init__(self):
        self.times: List[int] = []
        self.values: List[np.ndarray] = []

    def value_at(self, time: int, steady: np.ndarray) -> np.ndarray:
        """Net value at (just after) ``time``."""
        result = steady
        for t, value in zip(self.times, self.values):
            if t <= time:
                result = value
            else:
                break
        return result


def _simulate_reference(
    design: ElaboratedDesign,
    vectors: VectorSet,
    collect_per_net: bool = False,
    idle_selects: str = "zero",
    delay_jitter: int = 0,
) -> SimulationResult:
    """The original timed-waveform simulator, kept verbatim as the
    differential-testing oracle of :func:`simulate_design` and
    :func:`simulate_batch` (same arguments, byte-identical results)."""
    netlist = design.netlist
    lanes = vectors.lanes
    words = n_words(lanes)
    ones = broadcast(True, lanes)
    zeros = np.zeros(words, dtype=np.uint64)

    controller = build_controller(design.datapath)
    control_values = controller.resolved(idle_selects)

    topo = netlist.topological_order()
    gates = [netlist.gates[net] for net in topo]
    evaluators = [_compile_table(gate.table) for gate in gates]
    delays = [_gate_delay(gate.output, delay_jitter) for gate in gates]
    fanout_positions: Dict[str, List[int]] = {}
    for position, gate in enumerate(gates):
        for name in gate.inputs:
            fanout_positions.setdefault(name, []).append(position)

    steady: Dict[str, np.ndarray] = {}
    for net in netlist.inputs:
        steady[net] = zeros.copy()
    for net in netlist.latches:
        steady[net] = zeros.copy()

    # Settle the all-zero state without counting (power-on, as in the
    # paper's simulator warm-up before vectors apply).
    for gate, evaluator in zip(gates, evaluators):
        values = [steady[name] for name in gate.inputs]
        steady[gate.output] = evaluator(values, ones, zeros)

    counters = {
        "comb": 0,
        "reg": 0,
        "pad": 0,
        "control": 0,
    }
    per_net: Dict[str, int] = {}

    def count(net: str, delta_words: np.ndarray, category: str) -> None:
        toggles = popcount(delta_words)
        if toggles:
            counters[category] += toggles
            if collect_per_net:
                per_net[net] = per_net.get(net, 0) + toggles

    def drive(net: str, new_value: np.ndarray, category: str, changed):
        old = steady[net]
        delta = old ^ new_value
        if delta.any():
            count(net, delta, category)
            steady[net] = new_value
            changed[net] = old  # remember pre-change value

    n_steps = len(design.datapath.control)
    for step in range(n_steps):
        changed: Dict[str, np.ndarray] = {}

        # Pads present their vector at the load step.
        if step == 0:
            for position, nets in design.pad_nets.items():
                for bit, net in enumerate(nets):
                    drive(net, vectors.pad_words(position, bit), "pad", changed)

        # Control signals take this step's value.
        for name, nets in design.control_nets.items():
            value = control_values.get(name)
            if value is None:
                continue
            step_value = value[step]
            for bit, net in enumerate(nets):
                bit_set = bool((step_value >> bit) & 1)
                drive(net, ones.copy() if bit_set else zeros.copy(),
                      "control", changed)

        _propagate(
            gates, evaluators, delays, fanout_positions, steady, changed,
            ones, zeros, count,
        )

        # Clock edge: all flip-flops load their data nets.
        updates = []
        for latch in netlist.latches.values():
            new_q = steady[latch.data]
            updates.append((latch.output, new_q))
        changed = {}
        for net, new_q in updates:
            drive(net, new_q.copy(), "reg", changed)
        # Settle after the clock edge (counted — the paper's simulator
        # sees these transitions too, including after the final edge).
        _propagate(
            gates, evaluators, delays, fanout_positions, steady, changed,
            ones, zeros, count,
        )

    outputs: Dict[int, List[int]] = {}
    for position, nets in design.output_nets.items():
        values = []
        for lane in range(lanes):
            value = 0
            for bit, net in enumerate(nets):
                if (int(steady[net][lane // 64]) >> (lane % 64)) & 1:
                    value |= 1 << bit
            values.append(value)
        outputs[position] = values

    return SimulationResult(
        lanes=lanes,
        steps=n_steps,
        comb_toggles=counters["comb"],
        register_toggles=counters["reg"],
        pad_toggles=counters["pad"],
        control_toggles=counters["control"],
        per_net=per_net,
        outputs=outputs,
    )


def golden_outputs(
    design: ElaboratedDesign, vectors: VectorSet
) -> Dict[int, List[int]]:
    """Expected primary-output values from CDFG semantics.

    Evaluates the dataflow graph with modular arithmetic at the
    datapath width, all lanes at once — the reference the simulated
    hardware must match bit-exactly.
    """
    cdfg = design.datapath.cdfg
    width = design.width
    if width > 64:
        raise SimulationError(f"datapath width {width} exceeds 64 bits")
    mask = np.uint64((1 << width) - 1)
    values: Dict[int, np.ndarray] = {
        var_id: vectors.lane_values(position)
        for position, var_id in enumerate(cdfg.primary_inputs)
    }
    for op in cdfg.topological_order():
        a = values[op.inputs[0]]
        b = values[op.inputs[1]]
        if op.op_type == "add":
            result = (a + b) & mask
        elif op.op_type == "sub":
            result = (a - b) & mask
        else:
            # uint64 wraps mod 2**64; masking keeps the low `width`
            # bits, which only depend on the low bits of the operands.
            result = (a * b) & mask
        values[op.output] = result
    return {
        position: [int(value) for value in values[var_id]]
        for position, var_id in enumerate(cdfg.primary_outputs)
    }


def _propagate(
    gates,
    evaluators,
    delays,
    fanout_positions,
    steady: Dict[str, np.ndarray],
    changed_sources: Dict[str, np.ndarray],
    ones: np.ndarray,
    zeros: np.ndarray,
    count,
) -> None:
    """Timed-waveform settling after source changes (unit delay).

    ``changed_sources`` maps nets that changed at time 0 to their
    *previous* value; ``steady`` already holds their new value.
    """
    if not changed_sources:
        return
    waveforms: Dict[str, _Waveform] = {}
    previous: Dict[str, np.ndarray] = {}
    for net, old in changed_sources.items():
        wave = _Waveform()
        wave.times.append(0)
        wave.values.append(steady[net])
        waveforms[net] = wave
        previous[net] = old

    dirty = [
        position
        for net in changed_sources
        for position in fanout_positions.get(net, [])
    ]
    dirty_set = set(dirty)

    for position, (gate, evaluator) in enumerate(zip(gates, evaluators)):
        if position not in dirty_set:
            continue
        delay = delays[position]
        input_waves = [
            (index, waveforms[name])
            for index, name in enumerate(gate.inputs)
            if name in waveforms
        ]
        if not input_waves:
            continue
        times = sorted(
            {t for _, wave in input_waves for t in wave.times}
        )
        old_output = steady[gate.output]
        base_values = [
            previous.get(name, steady[name]) for name in gate.inputs
        ]
        last_value = old_output
        wave = _Waveform()
        for t in times:
            current = list(base_values)
            for index, in_wave in input_waves:
                current[index] = in_wave.value_at(
                    t, previous.get(gate.inputs[index], steady[gate.inputs[index]])
                )
            new_value = evaluator(current, ones, zeros)
            if (new_value ^ last_value).any():
                wave.times.append(t + delay)
                wave.values.append(new_value)
                count(gate.output, new_value ^ last_value, "comb")
                last_value = new_value
        if wave.times:
            waveforms[gate.output] = wave
            previous[gate.output] = old_output
            steady[gate.output] = last_value
            for fan in fanout_positions.get(gate.output, []):
                dirty_set.add(fan)

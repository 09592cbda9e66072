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
(:func:`compile_netlist`, derived from the netlist's one array view,
:class:`~repro.netlist.compile.NetArrays`): every net has a dense
integer id, and the fanin matrix, evaluator classes, fanout CSR and
power-on state are numpy arrays built once per netlist. Lane
state is one ``(n_nets, n_words)`` ``uint64`` array. Settling walks a
time wheel one tick at a time, and a tick is processed in bulk: the
gates triggered at that tick read ``state`` (which only the wheel
changes), so they are independent and evaluate as one
``(n_gates, n_words)`` array per truth table. :func:`simulate_batch`
runs many (stimulus x idle policy x jitter) configurations of one or
several designs in a single pass, one lane block each;
:func:`simulate_design` is a batch of one.

The original timed-waveform implementation stays verbatim as
:func:`_simulate_reference`, the differential-testing oracle: the
kernel's :class:`SimulationResult` records are byte-identical to it
(the differential suite pins this across every built-in benchmark,
both idle conventions, jittered delays and mixed batches).

Functional correctness is checked against the CDFG's arithmetic
semantics (modular add/sub/mult) via :func:`golden_outputs`.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.activity.transition import MAX_EXACT_INPUTS
from repro.errors import SimulationError
from repro.fpga.elaborate import ElaboratedDesign
from repro.fpga.vectors import (
    VectorSet,
    broadcast,
    n_words,
    popcount,
    unpack_lane_values,
)
from repro.netlist.compile import NetArrays, net_arrays, permutation_maps
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


@functools.lru_cache(maxsize=None)
def _class_key(n: int, bits: int) -> Tuple[int, Tuple[int, ...]]:
    """The least truth table over permutations of the ``n`` inputs of
    ``bits``, and the first permutation ``order`` reaching it, in
    :meth:`TruthTable.permute`'s convention (new input ``k`` reads old
    input ``order[k]``). Tables wider than :data:`MAX_EXACT_INPUTS`
    keep their input order. Cached process-wide per function.
    """
    if n > MAX_EXACT_INPUTS:
        return bits, tuple(range(n))
    orders, index = permutation_maps(n)
    places = np.arange(1 << n, dtype=np.uint64)
    column = (np.uint64(bits) >> places) & np.uint64(1)
    packed = (column[index] << places).sum(axis=1)
    best = int(np.argmin(packed))
    return int(packed[best]), orders[best]


# ---------------------------------------------------------------------------
# Compiled netlist: the integer-indexed array form the kernel operates on.
# Derived once per netlist version from its NetArrays view and cached there
# per jitter, so repeated simulations of the same design (differential
# tests, sweeps, benches) skip the lowering entirely.
# ---------------------------------------------------------------------------


@dataclass
class CompiledNetlist:
    """Dense-id lowering of a :class:`Netlist` for simulation.

    Net ids are assigned sources-first (primary inputs, then latch
    outputs), then gate outputs in topological order. Gate *positions*
    are class-major: gates are sorted by evaluator class (one class per
    distinct truth table up to input order, see :func:`_class_key`),
    then topologically, so any sorted array of positions is already
    grouped by class.
    """

    n_nets: int
    #: Net name -> dense id.
    net_id: Dict[str, int]
    #: Dense id -> net name (inverse of :attr:`net_id`).
    net_names: List[str]
    #: Per gate position: output net id.
    gate_out: np.ndarray
    #: ``(n_gates, max arity)`` fanin net ids in the port order of the
    #: gate's class table (its own ports permuted); a row is
    #: zero-padded past its gate's arity.
    gate_fanins: np.ndarray
    #: Per gate position: propagation delay in ticks.
    gate_delays: np.ndarray
    #: Per evaluator class: the flat evaluator and its truth-table key
    #: ``(n_inputs, bits)``.
    class_evals: List[Callable]
    class_keys: List[Tuple[int, int]]
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

    @property
    def n_gates(self) -> int:
        return len(self.gate_out)


def compile_netlist(netlist: Netlist, delay_jitter: int = 0) -> CompiledNetlist:
    """Compiled form of ``netlist`` for the given delay spread.

    Hangs off the netlist's :class:`~repro.netlist.compile.NetArrays`,
    keyed by ``delay_jitter``, so any edit (see :meth:`Netlist.touch`)
    drops every cached lowering. The view is lowered once (as jitter
    0); every other delay spread shares that lowering's arrays and
    computes only its gate delays.
    """
    arrays = net_arrays(netlist)
    cache = arrays.lowered
    base = cache.get(0)
    if base is None:
        base, order = _lower([arrays])
        # Power-on settle of the all-zero sources: every lane is alike,
        # so one word per net suffices; each level only reads earlier
        # ones, so a level evaluates as one batch.
        position = np.argsort(order)
        state = np.zeros((base.n_nets, 1), dtype=np.uint64)
        ones = np.full(1, _ALL_LANES)
        for gates in arrays.by_level:
            gates = np.sort(position[gates])
            state[base.gate_out[gates]] = _evaluate(base, gates, state, ones)
        base.power_on = state[:, 0] != 0
        cache[0] = base
    compiled = cache.get(delay_jitter)
    if compiled is None:
        compiled = cache[delay_jitter] = replace(
            base, gate_delays=np.array(
                [_gate_delay(base.net_names[out], delay_jitter)
                 for out in base.gate_out.tolist()], dtype=np.int64,
            ),
        )
    return compiled


def _lower(
    views: Sequence[NetArrays],
) -> Tuple[CompiledNetlist, np.ndarray]:
    """The disjoint union of the views' netlists, lowered for one kernel
    pass (one view: its netlist), with unit delays and an all-zero
    power-on state.

    View ``v``'s net ``i`` is net ``offsets[v] + i`` (the offsets are
    the running net counts); names repeat across views, so a union has
    no name map. Classes merge by truth-table key up to input order
    (:func:`_class_key`; each gate's fanin row is permuted to its
    class table's ports) and gates sort class-major, stably: position
    ``p`` holds gate ``order[p]`` (returned) of the views' gates laid
    end to end.
    """
    offsets = np.cumsum([0] + [view.n_nets for view in views])
    width = max(view.fanin.shape[1] for view in views)
    identity = tuple(range(width))
    class_of: Dict[Tuple[int, int], int] = {}
    classes, ports = [], []
    for view in views:
        for table in view.tables:
            bits, ports_of = _class_key(table.n_inputs, table.bits)
            classes.append(class_of.setdefault(
                (table.n_inputs, bits), len(class_of)))
            ports.append(ports_of + identity[table.n_inputs:])
    order = np.argsort(classes, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    gate_base = np.cumsum([0] + [len(view.tables) for view in views])
    port_base = np.cumsum([0] + [len(view.fanout_gates) for view in views])
    parts = list(zip(views, offsets))
    # Each gate's fanin row, zero-padded, in its class table's port order.
    fanins = np.take_along_axis(np.concatenate([
        np.pad(np.where(view.fanin == view.n_nets, 0, o + view.fanin),
               ((0, 0), (0, width - view.fanin.shape[1])))
        for view, o in parts
    ]), np.array(ports, dtype=np.intp).reshape(len(ports), width), axis=1)
    latches = np.array([
        (o + view.ids[latch.output], o + view.ids[latch.data])
        for view, o in parts for latch in view.netlist.latches.values()
    ], dtype=np.intp).reshape(-1, 2)
    return CompiledNetlist(
        n_nets=int(offsets[-1]),
        net_id=views[0].ids if len(views) == 1 else {},
        net_names=[name for view in views for name in view.names],
        gate_out=np.concatenate([
            o + view.n_sources + np.arange(len(view.tables))
            for view, o in parts
        ])[order],
        gate_fanins=fanins[order],
        gate_delays=np.ones(len(order), dtype=np.int64),
        class_evals=[_compile_table_int(TruthTable(*key)) for key in class_of],
        class_keys=list(class_of),
        class_start=np.searchsorted(
            np.array(classes, dtype=np.intp)[order],
            np.arange(len(class_of) + 1),
        ),
        fanout_ptr=np.concatenate(
            [view.fanout_ptr[:-1] + b for view, b in zip(views, port_base)]
            + [port_base[-1:]]
        ),
        fanout_gates=position[np.concatenate(
            [b + view.fanout_gates for view, b in zip(views, gate_base)]
        )],
        latch_q=latches[:, 0],
        latch_d=latches[:, 1],
        power_on=np.zeros(int(offsets[-1]), dtype=bool),
    ), order


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


def simulate_batch(
    design: Union[ElaboratedDesign, Sequence[ElaboratedDesign]],
    configs: List[BatchConfig],
    collect_per_net: bool = False,
) -> List[SimulationResult]:
    """Simulate every configuration in one kernel pass.

    ``design`` is every configuration's design, or one per
    configuration. Returns one :class:`SimulationResult` per
    configuration, in order, byte-identical to a solo run of it (the
    differential suite pins this against :func:`_simulate_reference`).

    The distinct designs (*members*) run over the disjoint union of
    their netlists (:func:`_lower`). Their nets are disjoint,
    so they share words: each member lays its configurations' lane
    blocks out from word 0, grouped by ``delay_jitter`` (a *delay
    group* has one per-gate delay vector). Bitwise ops never move bits
    across lanes, so one evaluation serves every configuration; lanes
    outside a member's blocks stay at power-on and never toggle. The
    groups of all members cut the words into *segments*, and each
    segment settles on its own column slice of the pass's arrays, with
    one per-gate delay vector (each gate its own member's delay for the
    segment). Each member drives its own pads and control bits under
    its own lane masks, composed per idle mode; a member with fewer
    control steps goes quiet after its last one while the other
    members' latches keep clocking together. Toggles
    accumulate per net and word and are summed per configuration and
    category (pad, control, latch, gate output) at the end.
    """
    if not configs:
        return []
    designs = (
        [design] * len(configs) if isinstance(design, ElaboratedDesign)
        else list(design)
    )
    if len(designs) != len(configs):
        raise SimulationError(
            f"{len(designs)} designs for {len(configs)} configurations"
        )
    index: Dict[int, int] = {}
    member_of = [index.setdefault(id(each), len(index)) for each in designs]
    members = list({id(each): each for each in designs}.values())
    for each, config in zip(designs, configs):
        _check_stimulus(each, config.vectors)

    # Lane blocks, per member and grouped by jitter (in order of first
    # appearance) so each delay group's words form one range.
    first: Dict[Tuple[int, int], int] = {}
    for ci, config in enumerate(configs):
        first.setdefault((member_of[ci], config.delay_jitter), ci)
    starts = [0] * len(configs)
    widths = [0] * len(members)
    for ci in sorted(range(len(configs)), key=lambda ci: first[
            member_of[ci], configs[ci].delay_jitter]):
        starts[ci] = widths[member_of[ci]]
        widths[member_of[ci]] += n_words(configs[ci].vectors.lanes)
    bases = [compile_netlist(each.netlist) for each in members]
    views = [net_arrays(each.netlist) for each in members]
    offsets = np.cumsum([0] + [view.n_nets for view in views])
    # One member runs on its cached lowering.
    if len(members) == 1:
        compiled = bases[0]
    else:
        compiled = _lower(views)[0]
        compiled.power_on = np.concatenate([base.power_on for base in bases])

    # Per member and word, its delay group's jitter; past the member's
    # last block its gates never change, so any delay serves: the last
    # block's. Segments end wherever some member's jitter changes.
    total_words = max(widths)
    word_jitter = np.zeros((len(members), total_words), dtype=np.int64)
    for ci in np.argsort(starts, kind="stable"):
        word_jitter[member_of[ci], starts[ci]:] = configs[ci].delay_jitter
    cuts = np.flatnonzero((np.diff(word_jitter, axis=1) != 0).any(axis=0))
    bounds = [0, *(cuts + 1).tolist(), total_words]
    # Per segment, its words and every gate's delay (its own member's,
    # for the segment's jitter), looked up by output net.
    segments = []
    for begin, end in zip(bounds, bounds[1:]):
        net_delay = np.zeros(compiled.n_nets, dtype=np.int64)
        for owner, each in enumerate(members):
            jittered = compile_netlist(each.netlist,
                                       int(word_jitter[owner, begin]))
            net_delay[offsets[owner] + jittered.gate_out] = jittered.gate_delays
        delays = net_delay[compiled.gate_out]
        segments.append((begin, end, delays, np.unique(delays).tolist()))

    block_masks = [
        _block_mask(total_words, start, config.vectors.lanes)
        for start, config in zip(starts, configs)
    ]
    real = np.zeros((len(members), total_words), dtype=np.uint64)
    for owner, mask in zip(member_of, block_masks):
        real[owner] |= mask
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

    def drive(nets: np.ndarray, owners: np.ndarray, new: np.ndarray,
              live: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Set live members' source rows; returns the changed ids and
        their per-word deltas."""
        if not live.all():
            take = live[owners]
            nets, owners, new = nets[take], owners[take], new[take]
        old = state[nets]
        if padded:
            keep = real[owners]
            new = (new & keep) | (old & ~keep)
        delta = old ^ new
        hit = delta.any(axis=1)
        nets, delta = nets[hit], delta[hit]
        toggles[nets] += np.bitwise_count(delta)
        state[nets] = new[hit]
        return nets, delta

    def settle(nets: np.ndarray, delta: np.ndarray) -> None:
        """Settle each segment from the nets that changed in its words."""
        for a, b, delays, lags in segments:
            _settle(compiled, state[:, a:b], pending[:, a:b],
                    toggles[:, a:b], nets[delta[:, a:b].any(axis=1)],
                    ones[a:b], delays, lags)

    # Every member's pad and control bits: (member, bus key, bit, id).
    pads: List[Tuple[int, object, int, int]] = []
    controls: List[Tuple[int, object, int, int]] = []
    for owner, (each, base) in enumerate(zip(members, bases)):
        for rows, buses in ((pads, each.pad_nets),
                            (controls, each.control_nets)):
            rows += [(owner, key, bit, offsets[owner] + base.net_id[net])
                     for key, nets in buses.items()
                     for bit, net in enumerate(nets)]
    pad_owner, pad_ids, control_owner, control_ids = (
        np.array([row[field] for row in rows], dtype=np.intp)
        for rows in (pads, controls) for field in (0, 3)
    )
    latch_owner = np.repeat(np.arange(len(members)),
                            [len(base.latch_q) for base in bases])

    # Pads present every configuration's vector at the load step.
    pad_rows = np.zeros((len(pads), total_words), dtype=np.uint64)
    for owner, start, config in zip(member_of, starts, configs):
        rows = np.flatnonzero(pad_owner == owner)
        if len(rows):
            pad_rows[rows, start:start + n_words(config.vectors.lanes)] = [
                config.vectors.pad_words(pads[row][1], pads[row][2])
                for row in rows
            ]

    # Control signals, composed per member and idle mode: a mode that
    # does not drive a signal (resolved() has no entry) keeps its lanes
    # as they are; the modes that do set theirs to the step's bit.
    steps = np.array([len(each.datapath.control) for each in members])
    mode_masks: Dict[Tuple[int, str], np.ndarray] = {}
    for owner, config, mask in zip(member_of, configs, block_masks):
        key = (owner, config.idle_selects)
        mode_masks[key] = mode_masks.get(key, 0) | mask
    control_keep = np.tile(ones, (len(controls), 1))
    control_bits = []
    for (owner, mode), mask in mode_masks.items():
        values = build_controller(members[owner].datapath).resolved(mode)
        bits = np.zeros((int(steps.max()), len(controls)), dtype=bool)
        for column in np.flatnonzero(control_owner == owner):
            _, name, bit, _ = controls[column]
            value = values.get(name)
            if value is not None:
                control_keep[column] &= ~mask
                bits[:len(value), column] = [(word >> bit) & 1
                                             for word in value]
        control_bits.append((bits, mask))

    for step in range(int(steps.max())):
        live = steps > step
        changed = (
            [drive(pad_ids, pad_owner, pad_rows, live)] if step == 0 else []
        )
        control_rows = state[control_ids] & control_keep
        for bits, mask in control_bits:
            control_rows[bits[step]] |= mask
        changed.append(drive(control_ids, control_owner, control_rows, live))
        settle(*map(np.concatenate, zip(*changed)))

        # Clock edge: all flip-flops load their data nets at once, then
        # the network settles again (counted — the paper's simulator
        # sees these transitions too, including after the final edge).
        settle(*drive(compiled.latch_q, latch_owner,
                      state[compiled.latch_d], live))

    results: List[SimulationResult] = []
    for owner, start, config in zip(member_of, starts, configs):
        base, offset = bases[owner], offsets[owner]
        lanes = config.vectors.lanes
        end = start + n_words(lanes)
        rows = state[offset:offset + base.n_nets, start:end]
        outputs = {
            position: [
                int(value) for value in unpack_lane_values(
                    [rows[base.net_id[net]] for net in nets], lanes
                )
            ]
            for position, nets in members[owner].output_nets.items()
        }
        column = toggles[offset:offset + base.n_nets, start:end].sum(axis=1)
        per_net: Dict[str, int] = {}
        if collect_per_net:
            for net in np.flatnonzero(column):
                per_net[base.net_names[net]] = int(column[net])
        comb, reg, pad, control = (
            int(column[ids].sum()) for ids in (
                base.gate_out, base.latch_q,
                pad_ids[pad_owner == owner] - offset,
                control_ids[control_owner == owner] - offset,
            )
        )
        results.append(SimulationResult(
            lanes=lanes,
            steps=int(steps[owner]),
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
    for cls, (arity, _) in enumerate(compiled.class_keys):
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
    delays: np.ndarray,
    lags: List[int],
) -> None:
    """Event-driven settling after source changes at time 0.

    ``changed`` holds net ids whose ``state`` rows already hold the new
    time-0 value. The wheel walks time forward one tick at a time; a
    tick applies its pending transitions to ``state``, then every gate
    with a fanin among them re-evaluates against its *pending* value
    (its last evaluation, not the not-yet-updated net). A difference
    adds ``popcount(change)`` per word to ``toggles`` and schedules the
    output transition ``delays[gate]`` ticks later (``lags``: the
    distinct delays). All delays are >= 1, so a tick's evaluations only
    read transitions scheduled strictly earlier: they are independent,
    and the whole tick runs as array operations.

    The wheel maps a tick to chunks ``(out ids, values)``, one per
    evaluation tick and delay; a gate has one delay, so the out ids
    landing at one tick are distinct.
    """
    fanout_ptr = compiled.fanout_ptr
    fanout_gates = compiled.fanout_gates
    wheel: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
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
                outs, new, gates = outs[hit], new[hit], gates[hit]
            if len(lags) == 1 and len(outs):
                wheel.setdefault(time + lags[0], []).append((outs, new))
            elif len(lags) > 1:
                gate_lags = delays[gates]
                for lag in lags:
                    take = gate_lags == lag
                    if take.any():
                        wheel.setdefault(time + lag, []).append(
                            (outs[take], new[take]))
        if not wheel:
            return
        time = min(wheel)
        chunks = wheel.pop(time)
        for outs, values in chunks:
            # The lanes past a block's last vector hold power-on values
            # in both rows.
            state[outs] = values
        changed = (
            chunks[0][0] if len(chunks) == 1
            else np.concatenate([outs for outs, _ in chunks])
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

"""Glitch-aware low-power LUT mapping.

Reimplementation of the mapping strategy of GlitchMap [6] as described
in Section 4 of the paper:

1. enumerate K-feasible cuts per node (:mod:`repro.techmap.cuts`);
2. for every candidate cut, collapse the cone into a truth table,
   compute the cut's output signal probability (weighted averaging over
   leaf probabilities [12]) and its per-time-step switching activity
   under the unit-delay model, where the leaf arrival times are the
   depths of the already-mapped leaves;
3. select per node the cut minimizing *SA-flow* — the cut's own
   effective activity plus the fanout-shared SA-flow of its leaves.
   SA-flow is the switching-activity analogue of the classic area-flow
   heuristic and approximates the total SA of the final cover, so the
   mapper neither duplicates logic (pure per-node SA selection would
   pick tiny cuts everywhere) nor ignores glitching. Ties break toward
   lower depth, then lower area-flow;
4. cover the netlist from the outputs with the selected cuts; the sum
   of the selected cuts' activities is the netlist ``SA`` of
   Equation (3).

Two effort levels share this algorithm (see :data:`MAP_EFFORTS` and
docs/techmap.md), both run by the compiled mapper
(:mod:`repro.techmap.compile`: interned net ids, array cut sets
with carried truth tables, NPN-keyed memoization of cone evaluations,
and batched numpy SA evaluation):

* ``"fast"`` (default) — bit-identical results to the seed mapper,
  several times faster.
* ``"exhaustive"`` — the per-node SA evaluation budget lifted: every
  surviving cut is evaluated instead of the first
  :data:`DEFAULT_SA_EVAL_LIMIT`.

The seed mapper stays verbatim as :func:`_map_reference`, the
differential-testing oracle of ``"fast"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MappingError
from repro.activity.glitch import (
    DEFAULT_INPUT_ACTIVITY,
    GlitchWaveform,
    source_waveform,
)
from repro.activity.probability import (
    DEFAULT_INPUT_PROBABILITY,
    gate_output_probability,
)
from repro.activity.transition import (
    clamp_activity,
    held_distribution,
    mixed_joint_matrix,
    pair_distribution,
    switching_activity,
)
from repro.netlist.gates import Gate, GateType, Netlist, TruthTable
from repro.techmap.compile import (
    MAX_CONE_LEAVES,
    ConeMemo,
    HashedKey,
    compile_map_netlist,
    batch_evaluate,
    cut_levels,
    npn_key,
)
from repro.techmap.cuts import (
    DEFAULT_CUT_CAP,
    Cut,
    cone_function,
    enumerate_cuts,
)

#: How many candidate cuts get a full SA evaluation per node.
DEFAULT_SA_EVAL_LIMIT = 5

#: Valid mapper effort levels.
MAP_EFFORTS = ("fast", "exhaustive")


@dataclass
class MapResult:
    """Result of mapping a netlist to K-input LUTs."""

    netlist: Netlist
    k: int
    area: int
    depth: int
    total_sa: float
    functional_sa: float
    glitch_sa: float
    lut_sa: Dict[str, float] = field(default_factory=dict)
    waveforms: Dict[str, GlitchWaveform] = field(default_factory=dict)
    selected_cuts: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    @property
    def glitch_fraction(self) -> float:
        if self.total_sa <= 0.0:
            return 0.0
        return self.glitch_sa / self.total_sa


def map_netlist(
    netlist: Netlist,
    k: int = 4,
    cut_cap: int = DEFAULT_CUT_CAP,
    sa_eval_limit: int = DEFAULT_SA_EVAL_LIMIT,
    glitch_aware: bool = True,
    input_probs: Optional[Mapping[str, float]] = None,
    input_activities: Optional[Mapping[str, float]] = None,
    default_probability: float = DEFAULT_INPUT_PROBABILITY,
    default_activity: float = DEFAULT_INPUT_ACTIVITY,
    effort: str = "fast",
    cone_memo: Optional[ConeMemo] = None,
) -> MapResult:
    """Map ``netlist`` to K-input LUTs minimizing glitch-aware SA.

    With ``glitch_aware=False`` the mapper ranks cuts by the zero-delay
    switching activity instead — the conventional low-power mapping the
    paper improves on; the resulting LUT network shape is comparable,
    which makes the pair a clean ablation.

    ``effort`` selects the effort level (see module docstring):
    ``"fast"`` is bit-identical to :func:`_map_reference`;
    ``"exhaustive"`` evaluates every surviving cut per node.
    ``cone_memo`` optionally carries memoized cone evaluations across
    calls, of this netlist or any other (the flow shares one per
    artifact cache); it is only consulted for exact matches, so
    results never depend on its state.
    """
    if effort not in MAP_EFFORTS:
        raise MappingError(
            f"unknown mapper effort {effort!r}; choose from {MAP_EFFORTS}"
        )
    return _map_fast(
        netlist, k, cut_cap, sa_eval_limit, glitch_aware, input_probs,
        input_activities, default_probability, default_activity,
        exhaustive=(effort == "exhaustive"),
        memo=cone_memo if cone_memo is not None else ConeMemo(),
    )


# ---------------------------------------------------------------------------
# The reference mapper — the seed implementation, kept verbatim as the
# differential-testing oracle for the compiled fast path. Tests call
# it directly; the flow never does.
# ---------------------------------------------------------------------------


def _map_reference(
    netlist: Netlist,
    k: int = 4,
    cut_cap: int = DEFAULT_CUT_CAP,
    sa_eval_limit: int = DEFAULT_SA_EVAL_LIMIT,
    glitch_aware: bool = True,
    input_probs: Optional[Mapping[str, float]] = None,
    input_activities: Optional[Mapping[str, float]] = None,
    default_probability: float = DEFAULT_INPUT_PROBABILITY,
    default_activity: float = DEFAULT_INPUT_ACTIVITY,
) -> MapResult:
    cuts = enumerate_cuts(netlist, k, cut_cap)
    fanouts = {
        net: max(1, len(readers))
        for net, readers in netlist.fanout_map().items()
    }

    waveforms: Dict[str, GlitchWaveform] = {}
    depths: Dict[str, int] = {}
    sa_flow: Dict[str, float] = {}
    area_flow: Dict[str, float] = {}
    for net in list(netlist.inputs) + list(netlist.latches):
        prob = (input_probs or {}).get(net, default_probability)
        act = (input_activities or {}).get(net, default_activity)
        waveforms[net] = source_waveform(prob, act)
        depths[net] = 0
        sa_flow[net] = 0.0
        area_flow[net] = 0.0

    chosen: Dict[str, Tuple[Tuple[str, ...], TruthTable]] = {}
    for net in netlist.topological_order():
        gate = netlist.gates[net]
        if not gate.inputs:
            value = gate.table.is_constant()
            if value is None:
                raise MappingError(f"zero-input non-constant gate {net!r}")
            waveforms[net] = GlitchWaveform(1.0 if value else 0.0, {}, 0)
            depths[net] = 0
            sa_flow[net] = 0.0
            area_flow[net] = 0.0
            chosen[net] = ((), gate.table)
            continue
        candidates = [c for c in cuts[net] if c != frozenset((net,))]
        if not candidates:
            raise MappingError(_no_cut_message(net, k, cut_cap))
        best = None
        for cut in candidates[: max(1, sa_eval_limit)]:
            leaves = tuple(sorted(cut))
            table = cone_function(netlist, net, leaves)
            wave, depth = _evaluate_cut(
                table, [waveforms[l] for l in leaves],
                [depths[l] for l in leaves], glitch_aware,
            )
            flow = wave.total() + sum(
                sa_flow[l] / fanouts[l] for l in leaves
            )
            af = 1.0 + sum(area_flow[l] / fanouts[l] for l in leaves)
            cost = (flow, depth, af)
            if best is None or cost < best[0]:
                best = (cost, leaves, table, wave, depth)
        (flow, depth, af), leaves, table, wave, depth = best
        waveforms[net] = wave
        depths[net] = depth
        sa_flow[net] = flow
        area_flow[net] = af
        chosen[net] = (leaves, table)

    return _finish(netlist, k, chosen, waveforms, depths)


def _evaluate_cut(
    table: TruthTable,
    leaf_waves: Sequence[GlitchWaveform],
    leaf_depths: Sequence[int],
    glitch_aware: bool,
) -> Tuple[GlitchWaveform, int]:
    """Waveform and depth of a LUT implementing ``table`` over leaves."""
    depth = 1 + max(leaf_depths, default=0)
    probs = [w.probability for w in leaf_waves]
    out_prob = gate_output_probability(table, probs)
    if not glitch_aware:
        acts = [clamp_activity(w.probability, w.total()) for w in leaf_waves]
        activity = switching_activity(table, probs, acts)
        activity = clamp_activity(out_prob, activity)
        steps = {depth: activity} if activity > 0.0 else {}
        return GlitchWaveform(out_prob, steps, depth), depth

    column = np.array(table.output_column(), dtype=np.float64)
    differs = column[:, None] != column[None, :]
    steps: Dict[int, float] = {}
    trigger_times = sorted({t for w in leaf_waves for t in w.steps})
    for t in trigger_times:
        joints = []
        for wave in leaf_waves:
            s_t = wave.steps.get(t, 0.0)
            if s_t > 0.0:
                s_t = clamp_activity(wave.probability, s_t)
                joints.append(pair_distribution(wave.probability, s_t))
            else:
                joints.append(held_distribution(wave.probability))
        matrix = mixed_joint_matrix(table.n_inputs, joints)
        activity = float(matrix[differs].sum())
        if activity > 0.0:
            steps[t + 1] = clamp_activity(out_prob, activity)
    return GlitchWaveform(out_prob, steps, depth), depth


# ---------------------------------------------------------------------------
# The compiled fast path.
# ---------------------------------------------------------------------------


class _Candidate:
    """One prepared (node, cut) evaluation."""

    __slots__ = (
        "leaf_ids", "table", "depth", "shift", "stats",
        "exact_key", "value",
    )

    def __init__(self, leaf_ids, table, depth, shift, stats,
                 exact_key, value):
        self.leaf_ids = leaf_ids
        self.table = table
        self.depth = depth
        self.shift = shift
        self.stats = stats
        self.exact_key = exact_key
        self.value = value


def _map_fast(
    netlist: Netlist,
    k: int,
    cut_cap: int,
    sa_eval_limit: int,
    glitch_aware: bool,
    input_probs: Optional[Mapping[str, float]],
    input_activities: Optional[Mapping[str, float]],
    default_probability: float,
    default_activity: float,
    exhaustive: bool,
    memo: ConeMemo,
) -> MapResult:
    cm = compile_map_netlist(netlist)
    levels = cut_levels(cm, k, cut_cap)
    n_nets = len(cm.names)

    waveforms: Dict[str, GlitchWaveform] = {}
    depths: Dict[str, int] = {}
    wave_of: List[Optional[GlitchWaveform]] = [None] * n_nets
    depth_of: List[int] = [0] * n_nets
    sa_flow: List[float] = [0.0] * n_nets
    area_flow: List[float] = [0.0] * n_nets
    #: Per-net normalization-ready signature of its waveform:
    #: (probability, ascending (time, s) tuple, earliest step time,
    #: interned (probability, steps) pair reused by shift-0 stats).
    sig_of: List[Optional[Tuple[float, Tuple, int, Tuple]]] = (
        [None] * n_nets
    )

    def _settle(net_id: int, wave: GlitchWaveform) -> None:
        # Steps dicts are constructed in ascending-time order by every
        # producer below (sources, constants, winner reconstruction),
        # so no sort is needed.
        wave_of[net_id] = wave
        items = tuple(wave.steps.items())
        sig_of[net_id] = (
            wave.probability, items, items[0][0] if items else 0,
            (wave.probability, items),
        )

    for net_id in range(cm.n_sources):
        name = cm.names[net_id]
        prob = (input_probs or {}).get(name, default_probability)
        act = (input_activities or {}).get(name, default_activity)
        wave = source_waveform(prob, act)
        _settle(net_id, wave)
        waveforms[name] = wave
        depths[name] = 0

    chosen: Dict[str, Tuple[Tuple[str, ...], TruthTable]] = {}
    fanouts = cm.fanout
    limit = None if exhaustive else max(1, sa_eval_limit)
    #: (leaf id, shift) -> that leaf's time-shifted signature; shifted
    #: tuples repeat across the candidates of bit-sliced structures.
    shifted_sigs: Dict[Tuple[int, int], Tuple] = {}
    # Nodes grouped by structural level: every candidate cut's leaves
    # sit at strictly lower levels, so one level's nodes can be
    # prepared, deduplicated and batch-evaluated together — this is
    # what turns thousands of per-node numpy calls into a handful of
    # large per-level batches.
    for level, nodes in cm.by_level.items():
        # Level 0 holds the constants; every other level's cut lists
        # are enumerated just before it is mapped.
        if level:
            _, candidate_lists = next(levels)
        else:
            candidate_lists = [None] * len(nodes)
        level_nodes: List[Tuple[int, List[_Candidate]]] = []
        #: exact key -> candidates awaiting the same evaluation (the
        #: cross-node bit-slice duplicates within this level).
        pending: Dict[Tuple, List[_Candidate]] = {}
        jobs_by_arity: Dict[int, List[_Candidate]] = {}

        for net_id, candidates in zip(nodes, candidate_lists):
            name = cm.names[net_id]
            if not cm.gate_inputs[net_id]:
                table = cm.tables[net_id]
                value = table.is_constant()
                if value is None:
                    raise MappingError(
                        f"zero-input non-constant gate {name!r}"
                    )
                wave = GlitchWaveform(1.0 if value else 0.0, {}, 0)
                _settle(net_id, wave)
                waveforms[name] = wave
                depths[name] = 0
                chosen[name] = ((), table)
                continue
            if not candidates:
                raise MappingError(_no_cut_message(name, k, cut_cap))
            if limit is not None:
                candidates = candidates[:limit]

            prepared: List[_Candidate] = []
            for leaf_ids, table in candidates:
                if table is None:
                    raise MappingError(
                        f"cone collapse limited to {MAX_CONE_LEAVES} "
                        f"leaves, got {len(leaf_ids)}"
                    )
                depth = 1 + max(depth_of[l] for l in leaf_ids)
                sigs = [sig_of[l] for l in leaf_ids]
                if glitch_aware:
                    shift = 0
                    seen_steps = False
                    for s in sigs:
                        if s[1] and (not seen_steps or s[2] < shift):
                            shift = s[2]
                            seen_steps = True
                    if shift == 0:
                        stats = tuple(s[3] for s in sigs)
                    else:
                        stats = tuple(
                            _shifted_sig(shifted_sigs, l, s, shift)
                            for s, l in zip(sigs, leaf_ids)
                        )
                else:
                    shift = 0
                    stats = tuple(
                        (s[0], wave_of[l].total())
                        for s, l in zip(sigs, leaf_ids)
                    )
                exact_key = HashedKey(
                    (table.bits, len(leaf_ids), glitch_aware, stats)
                )
                # The NPN class key is only needed when storing a new
                # entry; hits skip its computation entirely.
                entry = _Candidate(
                    leaf_ids, table, depth, shift, stats,
                    exact_key, memo.lookup(exact_key),
                )
                prepared.append(entry)
                if entry.value is None:
                    waiting = pending.get(exact_key)
                    if waiting is None:
                        pending[exact_key] = [entry]
                        jobs_by_arity.setdefault(
                            len(leaf_ids), []
                        ).append(entry)
                    else:
                        waiting.append(entry)
            level_nodes.append((net_id, prepared))

        # Evaluate this level's distinct misses, one batch per arity.
        for arity, job_entries in jobs_by_arity.items():
            if glitch_aware:
                batched = batch_evaluate(
                    [(e.table, e.stats) for e in job_entries]
                )
            else:
                batched = [None] * len(job_entries)
            for slot, entry in enumerate(job_entries):
                table = entry.table
                probs = tuple(p for p, _ in entry.stats)
                out_prob = _memo_probability(memo, table, probs)
                if glitch_aware:
                    # Inlined clamp_activity (raw > 0, so the max(.., 0)
                    # arm is the identity; the conditional is min()).
                    out_bound = 2.0 * min(out_prob, 1.0 - out_prob)
                    steps_norm = tuple(
                        (t, raw if raw < out_bound else out_bound)
                        for t, raw in batched[slot]
                        if raw > 0.0
                    )
                    # The total is shift-invariant and summed in the
                    # reference's ascending-step order.
                    value = (
                        out_prob, steps_norm,
                        float(sum(act for _, act in steps_norm)),
                    )
                else:
                    acts = [
                        clamp_activity(p, total)
                        for p, total in entry.stats
                    ]
                    activity = switching_activity(
                        table, list(probs), acts
                    )
                    activity = clamp_activity(out_prob, activity)
                    value = (out_prob, activity, None)
                memo.store(npn_key(table), entry.exact_key, value)
                for waiting in pending[entry.exact_key]:
                    waiting.value = value

        # Select per node, in the reference's candidate order with the
        # reference's exact cost arithmetic. The waveform itself is
        # only materialized for the winning cut — its total is the
        # same left-to-right float sum either way (memo payloads keep
        # the reference's ascending step order).
        for net_id, prepared in level_nodes:
            best = None
            for entry in prepared:
                value = entry.value
                depth = entry.depth
                if glitch_aware:
                    total = value[2]
                else:
                    payload = value[1]
                    total = payload if payload > 0.0 else 0.0
                # sum() seeds at 0 and adds sequentially; this loop
                # reproduces that association exactly while computing
                # both flows in one pass.
                flow_leaves = 0.0
                af_leaves = 0.0
                for l in entry.leaf_ids:
                    fanout = fanouts[l]
                    flow_leaves = flow_leaves + sa_flow[l] / fanout
                    af_leaves = af_leaves + area_flow[l] / fanout
                flow = total + flow_leaves
                af = 1.0 + af_leaves
                cost = (flow, depth, af)
                if best is None or cost < best[0]:
                    best = (cost, entry)
            (flow, depth, af), entry = best
            out_prob, payload = entry.value[0], entry.value[1]
            if glitch_aware:
                shift = entry.shift
                steps = {t + shift: act for t, act in payload}
            else:
                steps = {entry.depth: payload} if payload > 0.0 else {}
            wave = GlitchWaveform(out_prob, steps, entry.depth)
            name = cm.names[net_id]
            _settle(net_id, wave)
            depth_of[net_id] = entry.depth
            sa_flow[net_id] = flow
            area_flow[net_id] = af
            waveforms[name] = wave
            depths[name] = entry.depth
            chosen[name] = (
                tuple(cm.names[l] for l in entry.leaf_ids),
                entry.table,
            )

    return _finish(netlist, k, chosen, waveforms, depths)


def _no_cut_message(net: str, k: int, cut_cap: int) -> str:
    """Diagnose an empty candidate list (audited edge case)."""
    message = f"no implementable cut for node {net!r} with k={k}"
    if cut_cap == 1:
        message += (
            f": cut_cap={cut_cap} keeps only the trivial cut; "
            f"cut_cap >= 2 is required to map"
        )
    return message


def _shifted_sig(
    cache: Dict[Tuple[int, int], Tuple],
    leaf_id: int,
    sig: Tuple[float, Tuple, int],
    shift: int,
) -> Tuple[float, Tuple]:
    key = (leaf_id, shift)
    shifted = cache.get(key)
    if shifted is None:
        shifted = (
            sig[0], tuple((t - shift, v) for t, v in sig[1])
        )
        cache[key] = shifted
    return shifted


def _memo_probability(
    memo: ConeMemo, table: TruthTable, probs: Tuple[float, ...]
) -> float:
    key = (table.bits, table.n_inputs, probs)
    cached = memo.prob_cache.get(key)
    if cached is None:
        cached = gate_output_probability(table, list(probs))
        memo.prob_cache[key] = cached
    return cached


# ---------------------------------------------------------------------------
# Shared cover construction.
# ---------------------------------------------------------------------------


def _finish(
    netlist: Netlist,
    k: int,
    chosen: Dict[str, Tuple[Tuple[str, ...], TruthTable]],
    waveforms: Dict[str, GlitchWaveform],
    depths: Dict[str, int],
) -> MapResult:
    """Cover the netlist and assemble the result (both mapper paths)."""
    mapped, lut_sa = _cover(netlist, chosen, waveforms)
    total = sum(lut_sa.values())
    functional = sum(
        waveforms[net].functional() for net in lut_sa
    )
    depth = max(
        (depths.get(net, 0) for net in _root_nets(netlist)), default=0
    )
    return MapResult(
        netlist=mapped,
        k=k,
        area=mapped.num_gates(),
        depth=depth,
        total_sa=total,
        functional_sa=functional,
        glitch_sa=total - functional,
        lut_sa=lut_sa,
        waveforms=waveforms,
        selected_cuts={net: leaves for net, (leaves, _) in chosen.items()},
    )


def _root_nets(netlist: Netlist) -> List[str]:
    """Nets that must be available in the mapped netlist."""
    roots: List[str] = []
    for net in netlist.outputs:
        roots.append(net)
    for latch in netlist.latches.values():
        roots.append(latch.data)
        if latch.enable is not None:
            roots.append(latch.enable)
    return roots


def _cover(
    netlist: Netlist,
    chosen: Dict[str, Tuple[Tuple[str, ...], TruthTable]],
    waveforms: Dict[str, GlitchWaveform],
) -> Tuple[Netlist, Dict[str, float]]:
    """Instantiate LUTs for the cuts reachable from the roots."""
    mapped = Netlist(netlist.name + "_mapped")
    for net in netlist.inputs:
        mapped.add_input(net)
    for latch in netlist.latches.values():
        mapped.add_latch(latch.data, latch.output, latch.init, latch.enable)

    required: List[str] = []
    seen = set()
    for root in _root_nets(netlist):
        if root not in seen:
            seen.add(root)
            required.append(root)

    lut_sa: Dict[str, float] = {}
    sources = set(netlist.inputs)
    sources.update(netlist.latches)
    index = 0
    while index < len(required):
        net = required[index]
        index += 1
        if net in sources:
            continue
        if net not in chosen:
            raise MappingError(f"required net {net!r} was never mapped")
        leaves, table = chosen[net]
        gate_type = GateType.LUT if leaves else table.classify()
        # Direct insert: equivalent to add_gate, minus the duplicate-
        # driver scan — `required` is deduplicated and every chosen net
        # was a uniquely-driven gate output of the source netlist.
        mapped.gates[net] = Gate(net, tuple(leaves), table, gate_type)
        lut_sa[net] = waveforms[net].total()
        for leaf in leaves:
            if leaf not in seen:
                seen.add(leaf)
                required.append(leaf)

    mapped.touch()
    for net in netlist.outputs:
        mapped.set_output(net)
    mapped.validate()
    return mapped, lut_sa

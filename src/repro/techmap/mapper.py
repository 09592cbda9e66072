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
    batch_evaluate,
    clamped_steps,
    clamped_totals,
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
from repro.netlist.compile import net_arrays
from repro.netlist.gates import Gate, GateType, Netlist, TruthTable
from repro.techmap.compile import (
    MAX_CONE_LEAVES,
    ConeMemo,
    HashedKey,
    cut_levels,
    npn_key,
    table_ints,
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


#: Earliest step time of a net without steps (and of the padding
#: leaf): above every real time, so a row minimum skips it.
_NO_STEP = np.iinfo(np.int64).max


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
    cm = net_arrays(netlist)
    levels = cut_levels(cm, k, cut_cap)
    n_nets = cm.n_nets
    names = cm.names

    waveforms: Dict[str, GlitchWaveform] = {}
    depths: Dict[str, int] = {}
    chosen: Dict[str, Tuple[Tuple[str, ...], TruthTable]] = {}
    # Per-net arrays, indexed by net id; index n_nets is the padding
    # leaf of cut rows, which adds nothing to any row reduction.
    fanout = np.append(np.maximum(np.diff(cm.fanout_ptr), 1), 1.0)
    depth_of = np.zeros(n_nets + 1, dtype=np.int64)
    first_step = np.full(n_nets + 1, _NO_STEP, dtype=np.int64)
    #: Per net: (SA-flow, area-flow) / fanout.
    share = np.zeros((n_nets + 1, 2))
    #: Interned unshifted leaf statistics (equal ids mean equal
    #: statistics): id -> value, value -> id, and per net its id.
    sig_values: List[Tuple] = []
    sig_ids: Dict[Tuple, int] = {}
    base_sig = np.full(n_nets + 1, -1, dtype=np.int64)
    #: Per shift: id -> the statistics with every step that much
    #: earlier.
    by_shift: Dict[int, Sequence[Tuple]] = {0: sig_values}

    def intern(value: Tuple) -> int:
        sid = sig_ids.setdefault(value, len(sig_values))
        if sid == len(sig_values):
            sig_values.append(value)
        return sid

    def settle(net_id: int, wave: GlitchWaveform) -> None:
        # Steps dicts are built in ascending-time order by every
        # producer (sources, constants, winners), so no sort is needed.
        items = tuple(wave.steps.items())
        name = names[net_id]
        waveforms[name] = wave
        depths[name] = wave.depth
        if glitch_aware:
            if items:
                first_step[net_id] = items[0][0]
            base_sig[net_id] = intern((wave.probability, items))
        else:
            # Glitch-blind statistics are the total; no step ever
            # shifts them.
            base_sig[net_id] = intern((wave.probability, wave.total()))

    for net_id in range(cm.n_sources):
        name = names[net_id]
        prob = (input_probs or {}).get(name, default_probability)
        act = (input_activities or {}).get(name, default_activity)
        settle(net_id, source_waveform(prob, act))

    limit = None if exhaustive else max(1, sa_eval_limit)
    # Nodes grouped by structural level: every candidate cut's leaves
    # sit at strictly lower levels, so one level's candidates are
    # prepared, deduplicated, evaluated and selected together as array
    # rows, and Python work runs once per distinct memo key and once
    # per winner, not once per candidate.
    for level, gates in enumerate(cm.by_level):
        if not level:
            for g in gates.tolist():  # the constants
                net_id, table = cm.n_sources + g, cm.tables[g]
                value = table.is_constant()
                if value is None:
                    raise MappingError(
                        f"zero-input non-constant gate {names[net_id]!r}"
                    )
                settle(net_id, GlitchWaveform(1.0 if value else 0.0, {}, 0))
                chosen[names[net_id]] = ((), table)
            continue
        cuts = next(levels)
        count = np.diff(cuts.offsets)
        if not count.all():
            empty = cuts.gates[np.argmin(count)]
            raise MappingError(_no_cut_message(names[empty], k, cut_cap))
        rows = np.arange(len(cuts.gate))
        if limit is not None:
            rows = rows[rows - cuts.offsets[cuts.gate] < limit]
        gate, leaves = cuts.gate[rows], cuts.leaves[rows]
        size, table = cuts.size[rows], cuts.table[rows]
        wide = np.flatnonzero(size > MAX_CONE_LEAVES)
        if len(wide):
            raise MappingError(
                f"cone collapse limited to {MAX_CONE_LEAVES} leaves, "
                f"got {size[wide[0]]}"
            )
        depth = 1 + depth_of[leaves].max(axis=1)
        # Leaf statistics are shifted so the earliest step over the
        # leaves that have steps is at time 0.
        shift = first_step[leaves].min(axis=1)
        shift[shift == _NO_STEP] = 0

        # Rows with equal (table, arity, leaf statistics ids, shift)
        # share one memo key (the bit-slice duplicates of a level).
        # Distinct rows are numbered in first-seen order, so memo
        # traffic and batch order follow the candidate order.
        sig = base_sig[leaves]
        rowkey = np.concatenate(
            [table.view(np.int64), size[:, None], shift[:, None], sig],
            axis=1,
        )
        _, first, inverse, mult = np.unique(
            rowkey.view(np.dtype((np.void, rowkey.shape[1] * 8))).ravel(),
            return_index=True, return_inverse=True, return_counts=True,
        )
        seen = np.argsort(first)
        renumber = np.empty_like(seen)
        renumber[seen] = np.arange(len(seen))
        distinct = renumber[inverse]
        heads = first[seen]
        bits_of = table_ints(table[heads])
        keys: List[HashedKey] = []
        values: List[Optional[Tuple]] = []
        #: Per missed key, the distinct rows that share it (rows that
        #: differ only in how their statistics were shifted).
        pending: Dict[HashedKey, List[int]] = {}
        misses: Dict[int, List[int]] = {}
        for d, (bits, arity, row_shift, row_sig, m) in enumerate(zip(
            bits_of, size[heads].tolist(), shift[heads].tolist(),
            sig[heads].tolist(), mult[seen].tolist(),
        )):
            shifted = by_shift.get(row_shift)
            if shifted is None:
                shifted = by_shift[row_shift] = _ShiftedStats(
                    sig_values, row_shift
                )
            stats = tuple(map(shifted.__getitem__, row_sig[:arity]))
            exact_key = HashedKey((bits, arity, glitch_aware, stats))
            # One lookup per candidate row that shares the key.
            value = memo.lookup(exact_key, m)
            keys.append(exact_key)
            values.append(value)
            if value is None:
                sharing = pending.get(exact_key)
                if sharing is None:
                    pending[exact_key] = [d]
                    misses.setdefault(arity, []).append(d)
                else:
                    sharing.append(d)

        # Evaluate this level's distinct misses, one kernel call per
        # arity. Glitch-aware values are rows of the call's flat output
        # arrays: (out_prob, total, times, raws, lo, hi).
        for arity, missed in misses.items():
            stats_of = [keys[d].key[3] for d in missed]
            rows: Dict[Tuple, int] = {}
            job_row = [rows.setdefault(stats, len(rows)) for stats in stats_of]
            leaf_stats = [leaf for stats in rows for leaf in stats]
            probs = [prob for prob, _ in leaf_stats]
            out_probs = [
                _memo_probability(
                    memo, bits_of[d], arity,
                    tuple(probs[r * arity:(r + 1) * arity]),
                )
                for d, r in zip(missed, job_row)
            ]
            if glitch_aware:
                result = batch_evaluate(
                    arity, [bits_of[d] for d in missed], job_row, probs,
                    [len(steps) for _, steps in leaf_stats],
                    [t for _, steps in leaf_stats for t, _ in steps],
                    [s for _, steps in leaf_stats for _, s in steps],
                )
                ptr = result.ptr.tolist()
                times = tuple(result.time.tolist())
                raws = tuple(result.raw.tolist())
                batch = [
                    (out_prob, total, times, raws, lo, hi)
                    for out_prob, total, lo, hi in zip(
                        out_probs, clamped_totals(result, out_probs).tolist(),
                        ptr, ptr[1:],
                    )
                ]
            else:
                batch = []
                for d, stats, out_prob in zip(missed, stats_of, out_probs):
                    acts = [clamp_activity(p, total) for p, total in stats]
                    activity = switching_activity(
                        TruthTable(arity, bits_of[d]),
                        [p for p, _ in stats], acts,
                    )
                    activity = clamp_activity(out_prob, activity)
                    batch.append((out_prob, activity))
            for d, value in zip(missed, batch):
                memo.store(npn_key(arity, bits_of[d]), keys[d], value)
                for sharing in pending[keys[d]]:
                    values[sharing] = value

        # The reference's cost arithmetic per row: leaf shares are
        # added one leaf column at a time, left to right, as its
        # sequential sum() does (0.0 + x is x, and padding adds an
        # exact 0.0).
        total = np.array([
            value[1] if value[1] > 0.0 else 0.0 for value in values
        ])
        leaf_shares = share[leaves]
        leaf_sum = leaf_shares[:, 0].copy()
        for column in range(1, leaves.shape[1]):
            leaf_sum += leaf_shares[:, column]
        flow = total[distinct] + leaf_sum[:, 0]
        af = 1.0 + leaf_sum[:, 1]
        # Per gate, the lexicographic (flow, depth, af) minimum; the
        # stable sort breaks exact ties toward the first candidate, as
        # the reference's strict "<" scan does.
        order = np.lexsort((af, depth, flow, gate))
        taken = np.bincount(gate, minlength=len(cuts.gates))
        win = order[np.cumsum(taken) - taken]

        depth_of[cuts.gates] = depth[win]
        share[cuts.gates] = (
            np.column_stack([flow[win], af[win]]) / fanout[cuts.gates, None]
        )
        for net_id, d, row_depth, row_shift, ids, arity in zip(
            cuts.gates.tolist(), distinct[win].tolist(),
            depth[win].tolist(), shift[win].tolist(),
            leaves[win].tolist(), size[win].tolist(),
        ):
            value = values[d]
            out_prob = value[0]
            if glitch_aware:
                _, _, times, raws, lo, hi = value
                steps = clamped_steps(
                    out_prob, times[lo:hi], raws[lo:hi], row_shift
                )
            else:
                steps = {row_depth: value[1]} if value[1] > 0.0 else {}
            settle(net_id, GlitchWaveform(out_prob, steps, row_depth))
            chosen[names[net_id]] = (
                tuple(names[l] for l in ids[:arity]),
                TruthTable(arity, bits_of[d]),
            )

    return _finish(netlist, k, chosen, waveforms, depths)


class _ShiftedStats(dict):
    """Interned statistics id -> those statistics with every step time
    ``shift`` earlier, built on first use."""

    def __init__(self, unshifted: List[Tuple], shift: int):
        super().__init__()
        self.unshifted = unshifted
        self.shift = shift

    def __missing__(self, sid: int) -> Tuple:
        prob, steps = self.unshifted[sid]
        value = self[sid] = (
            prob, tuple((t - self.shift, s) for t, s in steps)
        )
        return value


def _no_cut_message(net: str, k: int, cut_cap: int) -> str:
    """Diagnose an empty candidate list (audited edge case)."""
    message = f"no implementable cut for node {net!r} with k={k}"
    if cut_cap == 1:
        message += (
            f": cut_cap={cut_cap} keeps only the trivial cut; "
            f"cut_cap >= 2 is required to map"
        )
    return message


def _memo_probability(
    memo: ConeMemo, bits: int, arity: int, probs: Tuple[float, ...]
) -> float:
    key = (bits, arity, probs)
    cached = memo.prob_cache.get(key)
    if cached is None:
        cached = gate_output_probability(TruthTable(arity, bits), probs)
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

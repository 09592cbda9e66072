"""Compiled fast path of the glitch-aware LUT mapper.

The seed mapper (:func:`repro.techmap.mapper._map_reference`) spends
almost all of its time in two places:

* **cut bookkeeping** — ``FrozenSet[str]`` unions, subset tests and
  hashing during Cong-Wu-Ding cross-merging, repeated per node;
* **per-cut SA evaluation** — one ``2**n x 2**n`` mixed joint matrix
  per (candidate cut, trigger time), built from per-leaf 2x2 laws with
  ``np.ix_`` gathers, even though bit-sliced datapaths evaluate the
  exact same cone over the exact same leaf statistics once per bit.

This module removes both without changing a single output bit:

* nets are interned to dense int ids once per netlist
  (:func:`compile_map_netlist`, cached on the netlist object exactly
  like the simulator's ``compile_netlist``), and cuts become int
  *bitmasks* over those ids — union is ``|``, dominance is
  ``a & b == a``, dedup is int hashing (:func:`enumerate_cuts_ids`
  mirrors the reference enumeration order decision for decision, so
  the candidate lists are element-wise identical);
* collapsed cone functions are memoized per netlist by
  ``(root id, cut mask)`` and the cone *evaluations* are memoized in a
  :class:`ConeMemo` keyed by the concrete ``(bits, leaf statistics)``
  and grouped by NPN-canonical truth table (:func:`npn_key`); the flow
  keeps one memo per artifact cache, shared by every netlist mapped
  through it;
* cache misses are evaluated in numpy batches: every distinct miss of
  one structural level and arity is one job of :func:`batch_evaluate`,
  which builds one ``2**n x 2**n`` joint matrix per (distinct leaf
  statistics, trigger time) as a Kronecker broadcast over the leaves
  and reduces all jobs' "output differs" pairs in a few calls.

Bit-exactness contract
----------------------

The differential suite (``tests/techmap/test_mapper_differential.py``)
pins ``effort="fast"`` byte-identical to the seed mapper, which
dictates three implementation rules:

1. the memo's inner key is the **exact** ``(table bits, per-leaf
   (probability, step) statistics)`` — NPN-equivalent cones whose
   concrete tables differ are *not* merged, because reassociating the
   per-input joint-law product (a different input order) can move the
   result by an ulp. The NPN class is the outer key: it groups the
   entries of structurally repeated cones and is what the bench
   reports, but reuse happens only on exact matches;
2. leaf statistics are normalized by shifting every step time so the
   earliest trigger is 0 (the unit-delay evaluation is invariant under
   a uniform time shift), which is what makes bit slice ``i`` of a
   ripple structure hit the entry written by bit slice ``i - 1``;
3. batched evaluation keeps every floating-point operation of the
   reference and its order: each joint-matrix element is the product
   ``((J_0 * J_1) * J_2) * ...`` in input order (the Kronecker
   broadcast multiplies the running product by one leaf law at a
   time, exactly like ``mixed_joint_matrix``), and each (job, trigger
   time) activity is the pairwise sum of the same elements in the same
   order. The kernel gathers those elements into the rows of one
   C-contiguous 2-D array and reduces its last axis: numpy then runs
   the 1-D pairwise summation per row, which is what ``.sum()`` does
   on the reference's 1-D array. A reduction over a non-contiguous
   (e.g. freshly fancy-indexed, strided) array may block the sum
   differently; ``tests/techmap/test_batch_evaluate.py`` pins the
   contiguous case so a numpy change shows there first.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError, MappingError
from repro.activity.transition import MAX_EXACT_INPUTS
from repro.netlist.gates import Netlist, TruthTable

#: Widest table for which the exact NPN canonical form is computed;
#: wider tables fall back to a deterministic semi-canonical key.
NPN_EXACT_MAX = 4


# ---------------------------------------------------------------------------
# NPN canonical keys.
# ---------------------------------------------------------------------------

#: Per-arity transform tables: an int matrix of shape
#: ``(n! * 2**n, 2**n)`` whose row r maps output-column positions
#: through one (permutation, input-negation) pair.
_NPN_TRANSFORMS: Dict[int, np.ndarray] = {}

#: Memoized keys per concrete function (process-wide; tables repeat
#: heavily across netlists).
_NPN_KEYS: Dict[Tuple[int, int], Tuple] = {}


def _npn_transforms(n: int) -> np.ndarray:
    matrix = _NPN_TRANSFORMS.get(n)
    if matrix is None:
        size = 1 << n
        combos = np.arange(size)
        rows = []
        for perm in itertools.permutations(range(n)):
            # new input k reads old input perm[k]
            base = np.zeros(size, dtype=np.int64)
            for new_pos, old_pos in enumerate(perm):
                base |= ((combos >> new_pos) & 1) << old_pos
            for neg in range(size):
                rows.append(base ^ neg)
        matrix = np.array(rows, dtype=np.int64)
        _NPN_TRANSFORMS[n] = matrix
    return matrix


def npn_key(table: TruthTable) -> Tuple:
    """A deterministic NPN-class key for ``table``.

    Exact for up to :data:`NPN_EXACT_MAX` inputs (the minimum packed
    table over all input permutations, input negations and output
    negation). Wider tables get a cheap *semi*-canonical key —
    output-polarity normalization plus an input sort by cofactor
    signature — which is deterministic but may split one true NPN
    class into a few keys. Either way the key only organizes the
    :class:`ConeMemo`; correctness never depends on its canonicity.
    """
    n = table.n_inputs
    cached = _NPN_KEYS.get((n, table.bits))
    if cached is not None:
        return cached
    if n <= NPN_EXACT_MAX:
        size = 1 << n
        column = np.array(table.output_column(), dtype=np.int64)
        outs = column[_npn_transforms(n)]
        weights = np.int64(1) << np.arange(size, dtype=np.int64)
        packed = outs @ weights
        full = (1 << size) - 1
        best = int(min(packed.min(), (full ^ packed).min()))
        key: Tuple = ("npn", n, best)
    else:
        size = 1 << n
        full = (1 << size) - 1
        bits = min(table.bits, full ^ table.bits)
        norm = TruthTable(n, bits)
        signature = tuple(
            sorted(
                (
                    bin(norm.cofactor(v, True).bits).count("1"),
                    bin(norm.boolean_difference(v).bits).count("1"),
                )
                for v in range(n)
            )
        )
        key = ("npn-semi", n, bits, signature)
    _NPN_KEYS[(n, table.bits)] = key
    return key


# ---------------------------------------------------------------------------
# Compiled netlist view.
# ---------------------------------------------------------------------------


class CompiledMapNetlist:
    """Dense-int view of a netlist for the fast mapper.

    ``names``/``ids`` intern nets; ``rank`` maps an id to the
    lexicographic rank of its name, so sorting leaf ids by rank
    reproduces the reference mapper's ``sorted(cut)`` leaf ordering
    exactly. ``cone_tables`` memoizes collapsed cone functions by
    ``(root id, cut mask)`` — pure netlist structure, so it is valid
    across every (k, cap, effort, activity) run on this netlist.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        order = netlist.topological_order()
        sources = list(netlist.inputs) + list(netlist.latches)
        names: List[str] = []
        ids: Dict[str, int] = {}
        for name in sources + order:
            ids[name] = len(names)
            names.append(name)
        self.names = names
        self.ids = ids
        self.n_sources = len(sources)
        self.order = [ids[name] for name in order]
        by_name = sorted(range(len(names)), key=lambda i: names[i])
        rank = [0] * len(names)
        for position, net_id in enumerate(by_name):
            rank[net_id] = position
        self.rank = rank

        self.gate_inputs: List[Optional[Tuple[int, ...]]] = (
            [None] * len(names)
        )
        self.tables: List[Optional[TruthTable]] = [None] * len(names)
        for name in order:
            gate = netlist.gates[name]
            net_id = ids[name]
            self.gate_inputs[net_id] = tuple(ids[i] for i in gate.inputs)
            self.tables[net_id] = gate.table

        fanout = [0] * len(names)
        for gate in netlist.gates.values():
            for name in gate.inputs:
                fanout[ids[name]] += 1
        self.fanout = [max(1, count) for count in fanout]

        levels = [0] * len(names)
        for net_id in self.order:
            inputs = self.gate_inputs[net_id]
            if inputs:
                levels[net_id] = 1 + max(levels[i] for i in inputs)
        self.levels = levels

        self.cone_tables: Dict[Tuple[int, int], TruthTable] = {}

    # -- cone collapsing ---------------------------------------------------

    def cone_table(
        self, root: int, leaves: Sequence[int], mask: int
    ) -> TruthTable:
        """Collapse the cone of ``root`` over ``leaves`` (bit-parallel).

        Same algorithm and result as
        :func:`repro.techmap.cuts.cone_function`, over int ids.
        """
        cached = self.cone_tables.get((root, mask))
        if cached is not None:
            return cached
        leaves = tuple(leaves)
        if self.gate_inputs[root] == leaves:
            # Single-gate cone with leaves already in the gate's input
            # order: the collapse is the identity (about a third of
            # all candidates on bit-sliced netlists).
            table = self.tables[root]
            self.cone_tables[(root, mask)] = table
            return table
        n = len(leaves)
        if n > 16:
            raise MappingError(
                f"cone collapse limited to 16 leaves, got {n}"
            )
        width = 1 << n
        full = (1 << width) - 1
        position_masks = _leaf_position_masks(n)
        masks: Dict[int, int] = {
            leaf: position_masks[position]
            for position, leaf in enumerate(leaves)
        }

        if root in masks:
            table = TruthTable(n, masks[root])
            self.cone_tables[(root, mask)] = table
            return table

        for net_id in self._cone_order(root, mask):
            table = self.tables[net_id]
            fanin_masks = [masks[i] for i in self.gate_inputs[net_id]]
            out_mask = 0
            for combo in range(1 << table.n_inputs):
                if not (table.bits >> combo) & 1:
                    continue
                term = full
                for pos, fanin_mask in enumerate(fanin_masks):
                    if (combo >> pos) & 1:
                        term &= fanin_mask
                    else:
                        term &= full ^ fanin_mask
                    if not term:
                        break
                out_mask |= term
            masks[net_id] = out_mask
        table = TruthTable(n, masks[root])
        self.cone_tables[(root, mask)] = table
        return table

    def _cone_order(self, root: int, leaf_mask: int) -> List[int]:
        """Cone gate ids in topological order, bounded by ``leaf_mask``."""
        order: List[int] = []
        state: Dict[int, int] = {}
        stack: List[Tuple[int, int]] = [(root, 0)]
        while stack:
            net_id, phase = stack.pop()
            if phase == 0:
                if net_id in state:
                    continue
                state[net_id] = 0
                stack.append((net_id, 1))
                inputs = self.gate_inputs[net_id]
                if inputs is None:
                    raise MappingError(
                        f"cone of {self.names[root]!r} reaches source "
                        f"{self.names[net_id]!r} outside its cut"
                    )
                for fanin in inputs:
                    if (leaf_mask >> fanin) & 1:
                        continue
                    if fanin not in state:
                        stack.append((fanin, 0))
                    elif state.get(fanin) == 0:
                        raise MappingError(
                            f"cyclic cone at {self.names[fanin]!r}"
                        )
            else:
                state[net_id] = 1
                order.append(net_id)
        return order


#: Per-arity bit-parallel input patterns for cone collapsing: entry
#: ``[n][p]`` is the mask whose bit ``c`` is input ``p``'s value in
#: combination ``c``.
_POSITION_MASKS: Dict[int, List[int]] = {}


def _leaf_position_masks(n: int) -> List[int]:
    masks = _POSITION_MASKS.get(n)
    if masks is None:
        width = 1 << n
        masks = []
        for position in range(n):
            mask = 0
            for combo in range(width):
                if (combo >> position) & 1:
                    mask |= 1 << combo
            masks.append(mask)
        _POSITION_MASKS[n] = masks
    return masks


def compile_map_netlist(netlist: Netlist) -> CompiledMapNetlist:
    """Compile (or fetch the cached compilation of) ``netlist``.

    Cached on the netlist object, like the simulator's
    ``compile_netlist``; a gate or latch added after compilation
    invalidates the entry.
    """
    token = (len(netlist.gates), len(netlist.latches), len(netlist.inputs))
    cached = getattr(netlist, "_map_compiled", None)
    if cached is not None and cached[0] == token:
        return cached[1]
    compiled = CompiledMapNetlist(netlist)
    netlist._map_compiled = (token, compiled)
    return compiled


# ---------------------------------------------------------------------------
# Bitmask cut enumeration.
# ---------------------------------------------------------------------------


def enumerate_cuts_ids(
    cm: CompiledMapNetlist, k: int, cap: int
) -> List[Optional[List[Tuple[int, Tuple[int, ...]]]]]:
    """Per-node non-trivial candidate cuts as ``(mask, sorted leaves)``.

    Mirrors :func:`repro.techmap.cuts.enumerate_cuts` decision for
    decision — same cross-merge order, same dominance prune, same
    ``(depth, size)`` stable sort, same ``cap - 1`` truncation — so
    index ``j`` of a node's candidate list is the same cut the
    reference mapper would evaluate ``j``-th. The trivial cut is not
    materialized (the mapper skips it anyway); sources hold their
    trivial cut only.
    """
    if k < 2:
        raise MappingError(f"LUT input count must be >= 2, got {k}")
    if cap < 1:
        raise MappingError(f"cut cap must be >= 1, got {cap}")
    n_nets = len(cm.names)
    levels = cm.levels
    rank = cm.rank
    # Per net: the full cut list (trivial first) used for merging, and
    # the truncated candidate list used for selection.
    merged_lists: List[Optional[List[Tuple[int, int, int]]]] = (
        [None] * n_nets
    )
    full_lists: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_nets)]
    for source in range(cm.n_sources):
        full_lists[source] = [(1 << source, 1, levels[source])]

    for net_id in cm.order:
        inputs = cm.gate_inputs[net_id]
        trivial = (1 << net_id, 1, levels[net_id])
        if not inputs:
            full_lists[net_id] = [trivial]
            merged_lists[net_id] = []
            continue
        current: List[Tuple[int, int, int]] = [(0, 0, 0)]
        for fanin in inputs:
            cut_list = full_lists[fanin]
            next_level: List[Tuple[int, int, int]] = []
            seen = set()
            for base_mask, _, base_depth in current:
                for cut_mask, _, cut_depth in cut_list:
                    union = base_mask | cut_mask
                    size = union.bit_count()
                    if size <= k and union not in seen:
                        seen.add(union)
                        next_level.append(
                            (union, size, max(base_depth, cut_depth))
                        )
            current = next_level
            if not current:
                break
        # Dominance prune: stable sort by size, drop supersets.
        current.sort(key=lambda item: item[1])
        kept: List[Tuple[int, int, int]] = []
        for item in current:
            mask = item[0]
            if any(existing[0] & mask == existing[0] for existing in kept):
                continue
            kept.append(item)
        kept.sort(key=lambda item: (item[2], item[1]))
        candidates = kept[: cap - 1] if cap > 1 else []
        merged_lists[net_id] = [
            (mask, _mask_leaves(mask, rank)) for mask, _, _ in candidates
        ]
        full_lists[net_id] = [trivial] + candidates
    return merged_lists


def _mask_leaves(mask: int, rank: List[int]) -> Tuple[int, ...]:
    leaves = []
    remaining = mask
    while remaining:
        low = remaining & -remaining
        leaves.append(low.bit_length() - 1)
        remaining ^= low
    leaves.sort(key=rank.__getitem__)
    return tuple(leaves)


def mask_leaves(cm: CompiledMapNetlist, mask: int) -> Tuple[int, ...]:
    """Leaf ids of ``mask`` in the reference's sorted-by-name order."""
    return _mask_leaves(mask, cm.rank)


# ---------------------------------------------------------------------------
# The cross-netlist cone-evaluation memo.
# ---------------------------------------------------------------------------


class HashedKey:
    """A memo key with its hash precomputed.

    The exact keys are nested tuples (table bits + per-leaf float
    statistics); hashing one costs a full tree walk, and each
    candidate key is consulted by several dicts (memo, pending batch
    dedup). Wrapping the tuple caches the walk; equality still
    compares the full tuple, exactly as a dict would.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: Tuple):
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashedKey) and self.key == other.key

    def __getstate__(self):
        return self.key

    def __setstate__(self, state):
        self.key = state
        self._hash = hash(state)


#: Entry cap of one :class:`ConeMemo`. Storing a new entry into a
#: full memo first empties it (see :meth:`ConeMemo.reset`). A resident
#: daemon under perfbench's ``serve-mix`` request mix ends at ~55k
#: entries, so it never resets; one entry costs ~1.7 KB (chem, width 8),
#: so a full memo holds ~225 MB.
CONE_MEMO_MAX_ENTRIES = 131072


class ConeMemo:
    """Memoized cone SA evaluations, grouped by NPN class.

    Entries are memoized under their NPN-canonical truth-table key
    (:func:`npn_key`): ``classes`` maps each class to its per-entry
    count, and every stored entry carries the exact
    ``(table bits, arity, glitch_aware, per-leaf statistics)`` inner
    key (see the module docstring for why reuse must be exact; lookups
    go through the flat ``entries`` dict so the hot path pays one
    cached hash instead of two hops). Glitch-aware values are
    ``(out_prob, ((out_time, activity), ...), total)`` with times
    normalized so the earliest leaf trigger is 0 — callers shift them
    back; glitch-blind values are ``(out_prob, activity, None)``.

    Every value is a pure function of its key, whatever netlist it
    came from, so one memo serves any number of netlists: the flow
    keeps one per :class:`~repro.flow.cache.ArtifactCache`, shared by
    every binder, benchmark, sweep cell and daemon request on that
    cache. It holds at most :data:`CONE_MEMO_MAX_ENTRIES` entries;
    a reset only costs re-evaluations, never a different result.
    """

    def __init__(self) -> None:
        self.entries: Dict["HashedKey", Tuple] = {}
        self.classes: Dict[Tuple, int] = {}
        self.prob_cache: Dict[Tuple, float] = {}
        self.hits = 0
        self.misses = 0
        self.resets = 0

    def lookup(self, exact_key: "HashedKey") -> Optional[Tuple]:
        value = self.entries.get(exact_key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(
        self, class_key: Tuple, exact_key: "HashedKey", value: Tuple
    ) -> None:
        if exact_key not in self.entries:
            if len(self.entries) >= CONE_MEMO_MAX_ENTRIES:
                self.reset()
            self.classes[class_key] = self.classes.get(class_key, 0) + 1
        self.entries[exact_key] = value

    def reset(self) -> None:
        """Drop every entry (output probabilities included)."""
        self.entries.clear()
        self.classes.clear()
        self.prob_cache.clear()
        self.resets += 1

    def stats(self) -> Dict[str, int]:
        return {
            "npn_classes": len(self.classes),
            "entries": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "resets": self.resets,
        }


# ---------------------------------------------------------------------------
# Batched SA evaluation.
# ---------------------------------------------------------------------------

#: Cached per-table evaluation scaffolding: flat indices of the
#: "output differs" pairs of the ``2**n x 2**n`` joint matrix.
_TABLE_EVAL: Dict[Tuple[int, int], np.ndarray] = {}


def _differs_index(table: TruthTable) -> np.ndarray:
    key = (table.n_inputs, table.bits)
    cached = _TABLE_EVAL.get(key)
    if cached is None:
        column = np.array(table.output_column(), dtype=np.float64)
        differs = column[:, None] != column[None, :]
        cached = np.flatnonzero(differs.ravel())
        _TABLE_EVAL[key] = cached
    return cached


def batch_evaluate(
    jobs: Sequence[Tuple[TruthTable, Tuple]],
) -> List[Tuple[Tuple[int, float], ...]]:
    """Evaluate several same-arity glitch-aware cuts in one numpy batch.

    Each job is ``(table, leaf_stats)`` where ``leaf_stats`` is the
    normalized per-leaf ``(probability, ((time, s_t), ...))`` tuple.
    Returns, per job, the normalized output steps
    ``((time + 1, raw_activity), ...)`` — *unclamped*, ascending by
    time; the caller applies the output clamp (it depends on the
    output probability, which the caller already knows).

    Bit-exactness: the per-element joint products run in the same
    input order as the reference, and every final reduction is a
    last-axis pairwise sum of a C-contiguous array over exactly the
    elements the reference sums (see module docstring).
    """
    n = jobs[0][0].n_inputs
    # Jobs with identical leaf statistics share one joint-matrix row
    # (e.g. the sum and carry cones of one adder slice): dedup them
    # before any numpy work. Trigger times are a function of the
    # statistics, so they are per-row too.
    row_of: Dict[Tuple, int] = {}
    job_row: List[int] = []
    row_stats: List[Tuple] = []
    for _, leaf_stats in jobs:
        row = row_of.get(leaf_stats)
        if row is None:
            row = len(row_stats)
            row_of[leaf_stats] = row
            row_stats.append(leaf_stats)
        job_row.append(row)
    n_rows = len(row_stats)

    # Every (row, leaf, step) flattened once, in row-major leaf order.
    step_counts = [
        len(steps) for leaf_stats in row_stats for _, steps in leaf_stats
    ]
    step_times = [
        t
        for leaf_stats in row_stats
        for _, steps in leaf_stats
        for t, _ in steps
    ]
    if not step_times:
        return [() for _ in jobs]
    if n > MAX_EXACT_INPUTS:
        # Mirror the reference path: mixed_joint_matrix refuses cones
        # wider than the exact pair computation the moment a trigger
        # time must be evaluated (trigger-free wide cones pass, above).
        raise EstimationError(
            f"exact pair computation limited to {MAX_EXACT_INPUTS} inputs"
        )
    step_acts = [
        activity
        for leaf_stats in row_stats
        for _, steps in leaf_stats
        for _, activity in steps
    ]
    times = np.array(step_times, dtype=np.int64)
    slot = np.repeat(np.arange(n_rows * n), step_counts)
    # One evaluation *unit* per (row, trigger time), numbered row-major
    # and ascending in time, so a row's units are contiguous and in the
    # reference's order. Times are small non-negative ints (normalized
    # unit-delay depths): an occupancy map over (row, time) numbers
    # them without a sort.
    span = int(times.max()) + 1
    step_key = (slot // n) * span + times
    occupied = np.zeros(n_rows * span, dtype=bool)
    occupied[step_key] = True
    keys = np.flatnonzero(occupied)
    step_unit = (np.cumsum(occupied) - 1)[step_key]
    unit_row = keys // span
    n_units = len(keys)
    n_triggers = np.bincount(unit_row, minlength=n_rows)
    first_unit = np.cumsum(n_triggers) - n_triggers
    unit_time = (keys % span + 1).tolist()

    # Per (leaf, unit): the step activity; leaves without a step at
    # the unit's time hold 0, for which the pair law below equals the
    # held law. Units run along the last axis so every element-wise
    # pass below is one long contiguous loop.
    s_t = np.zeros((n, n_units), dtype=np.float64)
    s_t[slot % n, step_unit] = step_acts
    probs = np.array(
        [[prob for prob, _ in leaf_stats] for leaf_stats in row_stats],
        dtype=np.float64,
    ).T[:, unit_row]
    # clamp_activity, vectorized with the reference's exact expression:
    # min(max(s, 0), 2 * min(p, 1 - p)); only applied where s > 0 (the
    # reference uses the held law otherwise, which equals the pair law
    # at s == 0).
    bound = 2.0 * np.minimum(probs, 1.0 - probs)
    half = np.minimum(np.maximum(s_t, 0.0), bound) / 2.0
    # pair_distribution(p, s): [[1-p-h, h], [h, p-h]] with the same
    # left-to-right arithmetic ((1.0 - p) - h); shape (leaf, 2, 2, unit).
    laws = np.empty((n, 2, 2, n_units), dtype=np.float64)
    laws[:, 0, 0] = (1.0 - probs) - half
    laws[:, 0, 1] = half
    laws[:, 1, 0] = half
    laws[:, 1, 1] = probs - half

    # The Kronecker product over leaves, element-wise and left-associated
    # in input order exactly as the reference's ``ones *= J_0 ... *=
    # J_{n-1}`` (``1.0 * x == x``): leaf i becomes bit i of the
    # combination index.
    matrices = laws[0]
    width = 2
    for leaf_pos in range(1, n):
        matrices = (
            matrices.reshape(1, width, 1, width, n_units)
            * laws[leaf_pos][:, None, :, None, :]
        ).reshape(2 * width, 2 * width, n_units)
        width *= 2
    flat = matrices.reshape(-1)

    # Jobs grouped by how many output pairs differ: each group's
    # (job, trigger time) rows are gathered into one C-contiguous
    # array and reduced in one call.
    groups: Dict[int, List[int]] = {}
    differs: List[np.ndarray] = []
    for j, (table, _) in enumerate(jobs):
        index = _differs_index(table)
        differs.append(index)
        groups.setdefault(len(index), []).append(j)
    results: List[Tuple[Tuple[int, float], ...]] = [()] * len(jobs)
    for indices in groups.values():
        rows = np.array([job_row[j] for j in indices])
        counts = n_triggers[rows]
        ends = np.cumsum(counts)
        if not ends[-1]:
            continue
        starts = first_unit[rows]
        units = np.repeat(starts - (ends - counts), counts)
        units += np.arange(int(ends[-1]))
        columns = np.repeat(
            np.array([differs[j] for j in indices]), counts, axis=0
        )
        columns *= n_units
        columns += units[:, None]
        # A last-axis reduce of a C-contiguous array runs the same
        # pairwise summation per row as a 1-D ``.sum()`` (``take``
        # already returns one; the guard keeps that a contract).
        picked = np.ascontiguousarray(flat.take(columns))
        sums = np.add.reduce(picked, axis=-1).tolist()
        start = 0
        for j, end, unit in zip(indices, ends.tolist(), starts.tolist()):
            results[j] = tuple(
                zip(unit_time[unit:unit + end - start], sums[start:end])
            )
            start = end
    return results

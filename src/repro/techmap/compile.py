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

* nets are dense int ids of the netlist's one array view
  (:func:`repro.netlist.compile.net_arrays`, which the simulator,
  the estimator and timing read too), and the cut sets of one
  structural level are enumerated together as padded int arrays
  (:func:`enumerate_cuts_ids` mirrors the reference enumeration
  decision for decision, so the candidate lists are element-wise
  identical); every cut carries its cone's truth table, composed from
  the tables of the fanin cuts that formed it;
* the cone *evaluations* are memoized in a :class:`ConeMemo` keyed by
  the concrete ``(bits, leaf statistics)`` and grouped by
  NPN-canonical truth table (:func:`npn_key`); the flow keeps one
  memo per artifact cache, shared by every netlist mapped through it;
* cache misses are evaluated in numpy batches: the distinct misses of
  one structural level and arity are one call of the glitch-step
  kernel :func:`repro.activity.glitch.batch_evaluate`, which also
  serves the gate-level estimator, and the memo keeps its outputs as
  rows of flat arrays.

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
   entries of structurally repeated cones and is what ``stats()``
   reports, but reuse happens only on exact matches;
2. leaf statistics are normalized by shifting every step time so the
   earliest trigger is 0 (the unit-delay evaluation is invariant under
   a uniform time shift), which is what makes bit slice ``i`` of a
   ripple structure hit the entry written by bit slice ``i - 1``;
3. batched evaluation keeps every floating-point operation of the
   reference and its order (see :mod:`repro.activity.glitch`).
"""

from __future__ import annotations

import functools
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import MappingError
from repro.netlist.compile import NetArrays, permutation_maps
from repro.netlist.gates import TruthTable
from repro.techmap.cuts import cone_function

#: Widest table for which the exact NPN canonical form is computed;
#: wider tables fall back to a deterministic semi-canonical key.
NPN_EXACT_MAX = 4


# ---------------------------------------------------------------------------
# NPN canonical keys.
# ---------------------------------------------------------------------------

#: Memoized keys per concrete function (process-wide; tables repeat
#: heavily across netlists).
_NPN_KEYS: Dict[Tuple[int, int], Tuple] = {}


@functools.lru_cache(maxsize=None)
def _npn_transforms(n: int) -> np.ndarray:
    """Per-arity transform table: an int matrix of shape
    ``(n! * 2**n, 2**n)`` whose row r maps output-column positions
    through one (permutation, input-negation) pair."""
    size = 1 << n
    perms = permutation_maps(n)[1]
    return (perms[:, None, :] ^ np.arange(size)[None, :, None]).reshape(
        -1, size)


def npn_key(n: int, bits: int) -> Tuple:
    """A deterministic NPN-class key for the ``n``-input table ``bits``.

    Exact for up to :data:`NPN_EXACT_MAX` inputs (the minimum packed
    table over all input permutations, input negations and output
    negation). Wider tables get a cheap *semi*-canonical key —
    output-polarity normalization plus an input sort by cofactor
    signature — which is deterministic but may split one true NPN
    class into a few keys. Either way the key only organizes the
    :class:`ConeMemo`; correctness never depends on its canonicity.
    """
    cached = _NPN_KEYS.get((n, bits))
    if cached is not None:
        return cached
    table = TruthTable(n, bits)
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
        norm = TruthTable(n, min(bits, full ^ bits))
        signature = tuple(
            sorted(
                (
                    bin(norm.cofactor(v, True).bits).count("1"),
                    bin(norm.boolean_difference(v).bits).count("1"),
                )
                for v in range(n)
            )
        )
        key = ("npn-semi", n, norm.bits, signature)
    _NPN_KEYS[(n, bits)] = key
    return key


# ---------------------------------------------------------------------------
# Array cut sets with carried truth tables.
# ---------------------------------------------------------------------------

#: Widest cut whose truth table is built (the limit of
#: :func:`repro.techmap.cuts.cone_function`); the mapper refuses to
#: evaluate a wider one, as the reference mapper does.
MAX_CONE_LEAVES = 16

#: One candidate cut: leaf ids in ``sorted(cut)`` order and the cone
#: function over them (None past :data:`MAX_CONE_LEAVES` leaves).
Candidate = Tuple[Tuple[int, ...], Optional[TruthTable]]


class _CutPool:
    """Every cut of one enumeration, one array row each.

    Row ``i < n_nets`` is net ``i``'s trivial cut ``{i}``, and row
    ``n_nets`` is the empty cut: the whole cut list of a padding net
    ``n_nets`` that fills fanin rows past a gate's arity. A node's
    kept candidates are the ``count[i]`` rows from ``start[i]``, so its
    full cut list (trivial first) is addressed by :meth:`list_rows`.
    Per row: ``leaves`` holds leaf *ranks* ascending, padded with
    ``n_nets``; ``depth`` is the deepest leaf's level; ``bits`` is the
    truth table over the leaves, one byte per input combination (zero
    from ``2**size`` on); ``inner`` is a 64-bit Bloom filter (bit
    ``id & 63``) over a superset of the cone's gates.
    """

    def __init__(self, cm: NetArrays, k: int):
        n = cm.n_nets
        self.sentinel = n
        #: Net id of each leaf rank (the padding rank maps to itself),
        #: and the Bloom bit of that net (none for padding).
        self.id_of = np.empty(n + 1, dtype=np.int64)
        self.id_of[cm.rank] = np.arange(n)
        self.id_of[n] = n
        self.leaf_bit = np.left_shift(
            np.uint64(1), (self.id_of & 63).astype(np.uint64)
        )
        self.leaf_bit[n] = 0
        self.start = np.zeros(n + 1, dtype=np.intp)
        self.count = np.zeros(n + 1, dtype=np.intp)
        self.leaves = np.full((2 * n + 1, k), n, dtype=np.int32)
        self.leaves[:n, 0] = cm.rank
        self.depth = np.zeros(2 * n + 1, dtype=np.int32)
        self.depth[:n] = cm.level
        self.bits = np.zeros((2 * n + 1, 2), dtype=np.uint8)
        self.bits[:n, 1] = 1
        self.inner = np.zeros(2 * n + 1, dtype=np.uint64)
        self.used = n + 1

    def list_rows(self, nets: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Row of entry ``offsets`` of each net's full cut list."""
        return np.where(offsets == 0, nets, self.start[nets] + offsets - 1)

    def append(self, leaves, depth, bits, inner) -> int:
        """Store new rows; returns the first one's index."""
        first = self.used
        self.used += len(leaves)
        width = bits.shape[1]
        if self.used > len(self.depth) or width > self.bits.shape[1]:
            rows = max(self.used, 2 * len(self.depth))
            self.leaves = _grown(self.leaves, rows, self.leaves.shape[1])
            self.depth = _grown(self.depth, rows)
            self.inner = _grown(self.inner, rows)
            self.bits = _grown(self.bits, rows, max(width, self.bits.shape[1]))
        self.leaves[first:self.used] = leaves
        self.depth[first:self.used] = depth
        self.bits[first:self.used, :width] = bits
        self.inner[first:self.used] = inner
        return first


def _grown(array: np.ndarray, *shape: int) -> np.ndarray:
    """``array`` in the top-left corner of a zeroed, larger array."""
    grown = np.zeros(shape, dtype=array.dtype)
    grown[tuple(map(slice, array.shape))] = array
    return grown


def _run_offsets(lengths: np.ndarray) -> np.ndarray:
    """``0..n-1`` for each run length ``n``, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(
        ends - lengths, lengths
    )


class LevelCuts(NamedTuple):
    """One structural level's kept cuts, one array row per cut.

    Gate ``gates[g]``'s candidates are rows ``offsets[g]`` to
    ``offsets[g + 1]``, in the reference's candidate order; ``gate``
    holds ``g`` per row. ``leaves`` holds each cut's leaf ids in
    ``sorted(cut)`` order, padded with ``cm.n_nets``, and
    ``table`` the cone function over them as little-endian ``uint64``
    words (bit ``c`` of the table is word ``c // 64``, bit ``c % 64``;
    one word for ``k <= 6``; all zero past :data:`MAX_CONE_LEAVES`
    leaves, where the cut has no table).
    """

    gates: np.ndarray
    gate: np.ndarray
    leaves: np.ndarray
    size: np.ndarray
    table: np.ndarray
    offsets: np.ndarray


def table_ints(words: np.ndarray) -> List[int]:
    """The tables of :attr:`LevelCuts.table` rows as Python ints."""
    stride = words.shape[1] * 8
    raw = words.tobytes()
    return [
        int.from_bytes(raw[at:at + stride], "little")
        for at in range(0, len(raw), stride)
    ]


def enumerate_cuts_ids(
    cm: NetArrays, k: int, cap: int
) -> List[Optional[List[Candidate]]]:
    """Per-node non-trivial candidate cuts with their cone functions.

    The per-node view of :func:`cut_levels`: index ``j`` of a node's
    list is the cut the reference mapper evaluates ``j``-th, with the
    table ``cone_function`` returns for it (None past
    :data:`MAX_CONE_LEAVES` leaves). The trivial cut is not listed
    (the mapper skips it anyway); sources get None, constants ``[]``.
    """
    candidates: List[Optional[List[Candidate]]] = [None] * cm.n_nets
    for gate in cm.by_level[0].tolist():
        candidates[cm.n_sources + gate] = []
    for cuts in cut_levels(cm, k, cap):
        rows = [
            (tuple(ids[:s]),
             None if s > MAX_CONE_LEAVES else TruthTable(s, bits))
            for ids, s, bits in zip(
                cuts.leaves.tolist(), cuts.size.tolist(),
                table_ints(cuts.table),
            )
        ]
        bounds = cuts.offsets.tolist()
        for g, net_id in enumerate(cuts.gates.tolist()):
            candidates[net_id] = rows[bounds[g]:bounds[g + 1]]
    return candidates


def cut_levels(
    cm: NetArrays, k: int, cap: int
) -> Iterator[LevelCuts]:
    """Per structural level >= 1, in order: its gates' kept cuts.

    Same cross-merge order, same first-seen dedup, same dominance
    prune, same ``(depth, size)`` stable sort and same ``cap - 1``
    truncation as the reference. All gates of one level are enumerated
    together as array rows (see :class:`_CutPool`), one fanin stage at
    a time, and each kept cut's table is carried from the fanin cuts
    that formed it (:func:`_carry_tables`). Levels are produced
    lazily, so only one level's cuts are alive at a time.
    """
    if k < 2:
        raise MappingError(f"LUT input count must be >= 2, got {k}")
    if cap < 1:
        raise MappingError(f"cut cap must be >= 1, got {cap}")
    return _cut_levels(cm, k, cap)


def _cut_levels(cm: NetArrays, k: int, cap: int):
    pool = _CutPool(cm, k)
    for gates in cm.by_level[1:]:
        fanin = cm.fanin[gates, :cm.arity[gates].max()]
        gate, leaves, depth, prov = _cross_merge(pool, fanin, k)
        keep = _prune_and_order(gate, leaves, depth, pool.sentinel, cap)
        gate, leaves, depth, prov = (
            gate[keep], leaves[keep], depth[keep], prov[keep]
        )
        size = (leaves < pool.sentinel).sum(axis=1)
        gate_ids = cm.n_sources + gates
        bits, inner = _carry_tables(
            cm, pool, gates, gate, leaves, size, prov
        )
        first = pool.append(leaves, depth, bits, inner)
        offsets = np.zeros(len(gates) + 1, dtype=np.intp)
        np.cumsum(np.bincount(gate, minlength=len(gates)), out=offsets[1:])
        pool.count[gate_ids] = np.diff(offsets)
        pool.start[gate_ids] = first + offsets[:-1]

        packed = np.packbits(bits, axis=1, bitorder="little")
        words = np.zeros(
            (len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8
        )
        words[:, :packed.shape[1]] = packed
        yield LevelCuts(
            gate_ids, gate, pool.id_of[leaves], size,
            words.view(np.dtype("<u8")), offsets,
        )


def _cross_merge(pool: _CutPool, fanin: np.ndarray, k: int):
    """The reference's ``_cross_merge`` for one level's gates at once.

    ``fanin`` holds each gate's input ids, padded with the padding net
    (whose one cut is empty, so padding stages change nothing). Returns
    the merged cuts as rows grouped by gate (``gate`` indexes
    ``fanin``), each gate's rows in the reference's order: per row its
    leaves, depth and provenance — the pool row of the cut each fanin
    contributed.
    """
    sentinel = pool.sentinel
    n_gates, width = fanin.shape
    # Merging the reference's initial ``[frozenset()]`` with the first
    # fanin's cut list gives that list itself: distinct, k-feasible
    # cuts, in list order.
    lengths = 1 + pool.count[fanin[:, 0]]
    gate = np.repeat(np.arange(n_gates), lengths)
    cut = pool.list_rows(fanin[gate, 0], _run_offsets(lengths))
    leaves, depth, prov = pool.leaves[cut], pool.depth[cut], cut[:, None]
    for stage in range(1, width):
        # Every (current cut, fanin cut) pair, base-major like the
        # reference's nested loop.
        fanin_ids = fanin[gate, stage]
        lengths = 1 + pool.count[fanin_ids]
        base = np.repeat(np.arange(len(gate)), lengths)
        cut = pool.list_rows(fanin_ids[base], _run_offsets(lengths))
        union = np.sort(
            np.concatenate([leaves[base], pool.leaves[cut]], axis=1), axis=1
        )
        tail = union[:, 1:]
        tail[tail == union[:, :-1]] = sentinel
        union.sort(axis=1)
        fits = union[:, k] == sentinel  # at most k leaves
        base, cut, union = base[fits], cut[fits], union[fits, :k]
        pair_gate = gate[base]
        # First-seen dedup: a stable sort groups equal (gate, leaves)
        # rows in pair order, so each group's head is the union the
        # reference keeps.
        order = np.lexsort(tuple(union.T[::-1]) + (pair_gate,))
        grouped, grouped_gate = union[order], pair_gate[order]
        repeat = (grouped_gate[1:] == grouped_gate[:-1]) & (
            grouped[1:] == grouped[:-1]
        ).all(axis=1)
        first = np.ones(len(order), dtype=bool)
        first[order[1:][repeat]] = False
        gate, leaves = pair_gate[first], union[first]
        depth = np.maximum(depth[base], pool.depth[cut])[first]
        prov = np.column_stack([prov[base], cut])[first]
    return gate, leaves, depth, prov


def _prune_and_order(
    gate: np.ndarray, leaves: np.ndarray, depth: np.ndarray,
    sentinel: int, cap: int,
) -> np.ndarray:
    """The reference's dominance prune, sort and truncation.

    Rows are grouped by gate, each group in cross-merge order. A cut
    is dropped when another cut of its gate is a proper subset of it.
    The reference drops a cut when a cut it already kept is a proper
    subset; both rules drop the same cuts, since every cut it drops
    has a kept subset. The survivors are sorted stably by
    ``(depth, size)`` and cut to ``cap - 1`` per gate. Returns their
    row indices, in the final order.
    """
    size = (leaves < sentinel).sum(axis=1)
    head = np.searchsorted(gate, gate)
    group = np.bincount(gate)[gate]
    smaller = np.repeat(np.arange(len(gate)), group)
    larger = head[smaller] + _run_offsets(group)
    pairs = size[smaller] < size[larger]
    smaller, larger = smaller[pairs], larger[pairs]
    inner, outer = leaves[smaller], leaves[larger]
    subset = (
        (inner[:, :, None] == outer[:, None, :]).any(axis=2)
        | (inner == sentinel)
    ).all(axis=1)
    dominated = np.zeros(len(gate), dtype=bool)
    dominated[larger[subset]] = True
    kept = np.flatnonzero(~dominated)
    order = kept[np.lexsort((size[kept], depth[kept], gate[kept]))]
    position = np.arange(len(order)) - np.searchsorted(
        gate[order], gate[order]
    )
    return order[position < cap - 1]


def _carry_tables(
    cm: NetArrays, pool: _CutPool, gates: np.ndarray,
    gate: np.ndarray, leaves: np.ndarray, size: np.ndarray,
    prov: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Truth tables and cone filters of one level's kept cuts (of the
    gates ``gates``).

    A cut's table is its gate's function applied to the tables of the
    fanin cuts that formed it, each expanded onto the cut's leaf
    positions. That equals ``cone_function``'s table unless a leaf of
    the cut lies inside one of those fanin cones (the reference then
    treats it as a free input); the Bloom filters flag every such cut,
    and a flagged cut's table is collapsed by ``cone_function`` itself.
    Cuts wider than :data:`MAX_CONE_LEAVES` get no table.
    """
    sentinel = pool.sentinel
    n_rows, k = leaves.shape
    fits = size <= MAX_CONE_LEAVES
    width = 1 << int(size[fits].max(initial=1))
    combo = np.arange(width)
    # planes[p] = bit p of every combination (all zero for p >= log2
    # width, which is where padding leaves point).
    planes = ((combo >> np.arange(k + 2)[:, None]) & 1).astype(
        np.min_scalar_type(width - 1)
    )
    # Per (row, fanin stage): where each leaf of the fanin cut sits
    # among the cut's leaves, then each cut combination's combination
    # of the fanin cut, and the fanin cut's table bit there.
    fanin_leaves = pool.leaves[prov]
    position = (leaves[:, None, None, :] < fanin_leaves[..., None]).sum(
        axis=3
    )
    position[(fanin_leaves == sentinel) | ~fits[:, None, None]] = k + 1
    sub = np.bitwise_or.reduce(
        planes[position] << np.arange(k, dtype=planes.dtype)[:, None],
        axis=2,
    )
    stages = np.arange(prov.shape[1], dtype=np.intp)[:, None]
    index = np.bitwise_or.reduce(
        pool.bits[prov[..., None], sub].astype(np.intp) << stages, axis=1
    )
    inner = np.bitwise_or.reduce(pool.inner[prov], axis=1)

    # Each gate's function as one byte per input combination.
    n_bytes = max(1, (1 << prov.shape[1]) // 8)
    functions = np.unpackbits(np.frombuffer(b"".join(
        cm.tables[g].bits.to_bytes(n_bytes, "little")
        for g in gates.tolist()
    ), dtype=np.uint8).reshape(len(gates), n_bytes), axis=1,
        bitorder="little")
    bits = functions[gate[:, None], index]
    bits[combo >= (1 << np.minimum(size, MAX_CONE_LEAVES))[:, None]] = 0
    bits[~fits] = 0

    leaf_bits = np.bitwise_or.reduce(pool.leaf_bit[leaves], axis=1)
    redundant = np.flatnonzero(fits & ((leaf_bits & inner) != 0))
    gate_ids = cm.n_sources + gates
    for row in redundant.tolist():
        names = [cm.names[i] for i in pool.id_of[leaves[row, :size[row]]]]
        table = cone_function(cm.netlist, cm.names[gate_ids[gate[row]]],
                              names)
        bits[row, :1 << size[row]] = [
            (table.bits >> c) & 1 for c in range(1 << size[row])
        ]
    own = (gate_ids[gate] & 63).astype(np.uint64)
    return bits, inner | np.left_shift(np.uint64(1), own)


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
    cached hash instead of two hops). Glitch-aware values are rows of
    one kernel call's flat outputs, ``(out_prob, total, times, raws,
    lo, hi)``: the steps are ``times[lo:hi]`` (normalized so the
    earliest leaf trigger is 0 — callers shift them back) with their
    unclamped activities ``raws[lo:hi]``; glitch-blind values are
    ``(out_prob, activity)``.

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

    def lookup(
        self, exact_key: "HashedKey", count: int = 1
    ) -> Optional[Tuple]:
        """The entry under ``exact_key`` (None if absent), counted as
        ``count`` lookups: the candidates that share one key."""
        value = self.entries.get(exact_key)
        if value is None:
            self.misses += count
        else:
            self.hits += count
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

"""Vectorized binding engines — the flow's only bind implementation.

The seed binders (:func:`~repro.binding.hlpower.bind_hlpower`,
:func:`~repro.binding.lopass.bind_lopass`) are exact but spend their
time in per-edge Python loops: HLPower rebuilds an Equation-(4) weight
dict pair by pair every matching round, and the LOPASS baseline hands
networkx a 30k-edge graph whose network-simplex pivot search walks
Python generators edge by edge. This module re-implements both inner
loops on dense numpy arrays while keeping every *decision* — edge
ordering, tie-breaks, pivot selection, matching extraction —
bit-for-bit identical to the seed binders, the same contract the PR-4
tech mapper establishes (``tests/binding/test_engine_differential.py``
pins the equivalence):

* operations, registers and busy control steps are interned to dense
  int ids once per schedule and carried as packed ``uint64`` bitsets,
  so node-merge bookkeeping is bitwise OR and multiplexer sizes are
  popcounts;
* the HLPower weight matrix of each matching round is built as one
  array expression — batched SA-table lookups over the unique
  ``(mux_a, mux_b)`` pairs, muxDiff as an array reduction — and the
  per-round ``(compatibility, muxDiff, SA)`` blocks are memoized in a
  :class:`BindMemo` shared across matching rounds and (through the
  flow's artifact cache, keyed on the bind-stage inputs) across sweep
  cells that differ only in ``alpha``;
* the LOPASS min-cost flow runs through :func:`_network_simplex`, a
  faithful re-implementation of networkx's primal network simplex
  whose Dantzig/Bland pivot search evaluates reduced costs a block at
  a time with numpy instead of one Python call per edge.

The seed binders stay untouched as the differential-testing oracles;
tests and benches call them directly.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BindingError, ConfigError, ResourceError
from repro.binding.base import (
    BindingSolution,
    FUBinding,
    FunctionalUnit,
    PortAssignment,
    RegisterBinding,
)
from repro.binding.compat import select_initial_sets
from repro.binding.hlpower import HLPowerConfig, _port_registers
from repro.binding.lopass import _COVER_REWARD
from repro.binding.matching import _linear_sum_assignment
from repro.binding.registers import assign_ports, bind_registers
from repro.binding.sa_table import SATable
from repro.binding.weights import DEFAULT_BETA
from repro.cdfg.schedule import Schedule

def _popcount(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array, summed over the last axis."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _pack_bitsets(
    members: Sequence[FrozenSet[int]], index: Mapping[int, int]
) -> np.ndarray:
    """Rows of packed uint64 bitsets, one per member set."""
    n_words = max(1, (len(index) + 63) // 64)
    rows = np.zeros((len(members), n_words), dtype=np.uint64)
    for row, items in enumerate(members):
        for item in items:
            bit = index[item]
            rows[row, bit >> 6] |= np.uint64(1 << (bit & 63))
    return rows


class BindMemo:
    """Cross-round, cross-cell memo of HLPower weight blocks.

    One entry per (FU class, matching-round node sets): the
    compatibility mask, the muxDiff matrix, and the SA matrix of that
    round's bipartite graph. Weights themselves are *not* stored —
    they are an O(n^2) array expression over the block and depend on
    ``alpha``, so sweep cells that differ only in alpha share every
    block. The flow pipeline registers one memo per bind-stage input
    fingerprint (schedule/constraints/registers/ports + SA-table
    settings) in its artifact cache, the same pattern as the tech
    mapper's ConeMemo.
    """

    def __init__(self) -> None:
        self._blocks: Dict[Tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Tuple):
        block = self._blocks.get(key)
        if block is None:
            self.misses += 1
            return None
        self.hits += 1
        return block

    def store(self, key: Tuple, block) -> None:
        self._blocks[key] = block

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._blocks),
            "hits": self.hits,
            "misses": self.misses,
        }


# ---------------------------------------------------------------------------
# HLPower (Algorithm 1) on dense arrays.
# ---------------------------------------------------------------------------


class _ClassArrays:
    """Dense per-class binding state mirroring hlpower._ClassState."""

    def __init__(
        self,
        schedule: Schedule,
        fu_class: str,
        registers: RegisterBinding,
        ports: PortAssignment,
    ):
        u_nodes, v_nodes = select_initial_sets(schedule, fu_class)
        nodes = u_nodes + v_nodes
        self.n_u = len(u_nodes)
        self.ops: List[FrozenSet[int]] = [node.ops for node in nodes]
        regs_a: List[FrozenSet[int]] = []
        regs_b: List[FrozenSet[int]] = []
        for node in nodes:
            a, b = _port_registers(schedule, node, registers, ports)
            regs_a.append(a)
            regs_b.append(b)
        reg_ids = sorted(set().union(*regs_a, *regs_b)) if nodes else []
        reg_index = {reg: i for i, reg in enumerate(reg_ids)}
        step_index = {
            step: step - 1 for step in range(1, schedule.length + 1)
        }
        self.reg_a = _pack_bitsets(regs_a, reg_index)
        self.reg_b = _pack_bitsets(regs_b, reg_index)
        self.busy = _pack_bitsets([node.busy for node in nodes], step_index)

    def __len__(self) -> int:
        return len(self.ops)

    def split(self) -> Tuple[slice, slice]:
        return slice(0, self.n_u), slice(self.n_u, len(self.ops))

    def signature(self) -> Tuple:
        """Content key of the current round's node sets (memo key)."""
        return (
            self.n_u,
            tuple(tuple(sorted(ops)) for ops in self.ops),
        )

    def merge(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Apply one matching: merge V node ``j`` into U node ``i``.

        ``j`` indexes the V block (0-based within V). Mirrors
        ``hlpower._apply_matching``: U rows update in place, absorbed V
        rows disappear, surviving V rows keep their order.
        """
        absorbed = set()
        for i, j in pairs:
            v = self.n_u + j
            self.ops[i] = self.ops[i] | self.ops[v]
            self.reg_a[i] |= self.reg_a[v]
            self.reg_b[i] |= self.reg_b[v]
            self.busy[i] |= self.busy[v]
            absorbed.add(v)
        keep = [
            row for row in range(len(self.ops)) if row not in absorbed
        ]
        self.ops = [self.ops[row] for row in keep]
        keep_idx = np.array(keep, dtype=np.intp)
        self.reg_a = self.reg_a[keep_idx]
        self.reg_b = self.reg_b[keep_idx]
        self.busy = self.busy[keep_idx]


def _weight_block(
    state: _ClassArrays, fu_class: str, table: SATable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The round's (mask, muxDiff, SA) matrices over U x V.

    ``mask[i, j]`` is True for compatible pairs; ``diff`` and ``sa``
    are only meaningful where the mask holds. SA values come from the
    shared table via one batched lookup over the unique normalized
    ``(mux_lo, mux_hi)`` pairs.
    """
    u_sl, v_sl = state.split()
    busy_u, busy_v = state.busy[u_sl], state.busy[v_sl]
    mask = ~np.any(
        busy_u[:, None, :] & busy_v[None, :, :], axis=-1
    )
    mux_a = _popcount(state.reg_a[u_sl][:, None, :] | state.reg_a[v_sl][None, :, :])
    mux_b = _popcount(state.reg_b[u_sl][:, None, :] | state.reg_b[v_sl][None, :, :])
    diff = np.abs(mux_a - mux_b)
    lo = np.minimum(mux_a, mux_b)
    hi = np.maximum(mux_a, mux_b)

    sa = np.zeros(mask.shape, dtype=np.float64)
    if mask.any():
        span = int(hi.max()) + 1
        keys = (lo * span + hi)[mask]
        unique, inverse = np.unique(keys, return_inverse=True)
        values = np.array(
            [
                table.get(fu_class, int(key // span), int(key % span))
                for key in unique
            ],
            dtype=np.float64,
        )
        if not (values > 0.0).all():
            # Same guard as weights.edge_weight: a corrupt persisted
            # table must raise, not produce inf/negative weights.
            bad = float(values[values <= 0.0][0])
            raise ConfigError(f"SA must be positive, got {bad}")
        sa[mask] = values[inverse]
    return mask, diff, sa


def _round_weights(
    mask: np.ndarray,
    diff: np.ndarray,
    sa: np.ndarray,
    n_u: int,
    n_v: int,
    alpha: float,
    scale: float,
) -> np.ndarray:
    """The padded assignment matrix of one round (Equation 4).

    Identical float arithmetic to ``weights.edge_weight`` — same
    operation order, elementwise in float64 — and the same square
    zero-padded layout ``matching.max_weight_matching`` builds, so
    ``linear_sum_assignment`` sees byte-identical input.
    """
    n = max(n_u, n_v)
    matrix = np.zeros((n, n), dtype=np.float64)
    weights = alpha * (1.0 / np.where(mask, sa, 1.0)) + (1.0 - alpha) * (
        1.0 / ((diff + 1) * scale)
    )
    matrix[:n_u, :n_v] = np.where(mask, weights, 0.0)
    return matrix


def bind_hlpower_fast(
    schedule: Schedule,
    constraints: Mapping[str, int],
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
    config: Optional[HLPowerConfig] = None,
    memo: Optional[BindMemo] = None,
) -> BindingSolution:
    """Vectorized Algorithm 1; decision-identical to ``bind_hlpower``."""
    started = time.perf_counter()
    cfg = config or HLPowerConfig()
    if not 0.0 <= cfg.alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {cfg.alpha}")
    cdfg = schedule.cdfg
    if registers is None:
        registers = bind_registers(schedule)
    if ports is None:
        ports = assign_ports(cdfg)
    table = cfg.sa_table if cfg.sa_table is not None else SATable()
    scales = cfg.beta or DEFAULT_BETA

    linear_sum_assignment = _linear_sum_assignment()

    units: List[FunctionalUnit] = []
    constraint_met = True
    for fu_class in cdfg.resource_classes():
        limit = constraints.get(fu_class)
        if limit is None:
            raise ResourceError(f"no constraint for class {fu_class!r}")

        state = _ClassArrays(schedule, fu_class, registers, ports)
        if len(state):
            iterations = 0
            while iterations < cfg.max_iterations:
                n_u = state.n_u
                n_v = len(state) - n_u
                if cfg.stop_at_constraint and len(state) <= limit:
                    break
                if n_v == 0:
                    break
                key = (fu_class,) + state.signature()
                block = memo.lookup(key) if memo is not None else None
                if block is None:
                    block = _weight_block(state, fu_class, table)
                    if memo is not None:
                        memo.store(key, block)
                mask, diff, sa = block
                if not mask.any():
                    break
                # Validated exactly where the reference's edge_weight
                # would first be called (a class that never weights an
                # edge never needs its beta).
                scale = scales.get(fu_class)
                if scale is None or scale <= 0.0:
                    raise ConfigError(
                        f"no positive beta for class {fu_class!r}"
                    )
                matrix = _round_weights(
                    mask, diff, sa, n_u, n_v, cfg.alpha, scale
                )
                rows, cols = linear_sum_assignment(matrix, maximize=True)
                pairs = [
                    (int(row), int(col))
                    for row, col in zip(rows, cols)
                    if row < n_u and col < n_v and matrix[row, col] > 0.0
                ]
                if not pairs:
                    break
                state.merge(pairs)
                iterations += 1
        if len(state) > limit:
            constraint_met = False
        for ops in state.ops:
            units.append(FunctionalUnit(len(units), fu_class, ops))

    solution = BindingSolution(
        schedule=schedule,
        registers=registers,
        ports=ports,
        fus=FUBinding(units, constraint_met),
        algorithm="hlpower",
        runtime_s=time.perf_counter() - started,
    )
    solution.validate()
    return solution


# ---------------------------------------------------------------------------
# LOPASS (min-cost network flow) on dense arrays.
# ---------------------------------------------------------------------------


def bind_lopass_fast(
    schedule: Schedule,
    constraints: Mapping[str, int],
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
) -> BindingSolution:
    """Vectorized flow baseline; decision-identical to ``bind_lopass``."""
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
        chains = _bind_class_flow(schedule, fu_class, limit, ports)
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


def _bind_class_flow(
    schedule: Schedule,
    fu_class: str,
    limit: int,
    ports: PortAssignment,
) -> List[List[int]]:
    """One class through the vectorized min-cost-flow formulation.

    Builds the exact edge list ``lopass._bind_class`` hands networkx —
    same node numbering, same adjacency-order edge enumeration, same
    integer costs — and solves it with :func:`_network_simplex`, whose
    pivots replicate networkx's, so the resulting chains are
    identical.
    """
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
    n_ops = len(ops)
    starts = np.array([schedule.start_of(op) for op in ops], dtype=np.int64)
    ends = np.array([schedule.end_of(op) for op in ops], dtype=np.int64)

    # Densest-step count via a step-occupancy difference array —
    # equal, by construction, to schedule.densest_step(fu_class)[1].
    occupancy = np.zeros(int(ends.max()) + 2, dtype=np.int64)
    np.add.at(occupancy, starts, 1)
    np.add.at(occupancy, ends + 1, -1)
    density = int(np.cumsum(occupancy).max())
    if limit < density:
        raise ResourceError(
            f"constraint {limit} for {fu_class!r} below the "
            f"densest-step bound {density}"
        )
    port_a = np.array([ports.of(op)[0] for op in ops], dtype=np.int64)
    port_b = np.array([ports.of(op)[1] for op in ops], dtype=np.int64)

    # Node numbering mirrors the reference graph's insertion order:
    # S, T, then (in_i, out_i) per operation; in_i = 2 + 2i.
    node_s, node_t = 0, 1
    in_nodes = np.arange(n_ops, dtype=np.int64) * 2 + 2
    out_nodes = in_nodes + 1

    # Compatible (earlier, later) pairs: later index, strictly after.
    pair_ok = np.triu(np.ones((n_ops, n_ops), dtype=bool), k=1)
    pair_ok &= ends[:, None] < starts[None, :]
    # np.nonzero is row-major: i ascending, j ascending within i —
    # exactly the reference's pair-loop insertion order.
    pair_i, pair_j = np.nonzero(pair_ok)
    pair_w = (port_a[pair_i] != port_a[pair_j]).astype(np.int64) + (
        port_b[pair_i] != port_b[pair_j]
    ).astype(np.int64)

    # Edge list in networkx adjacency iteration order: S's out-edges
    # (S->T first, then S->in_i), then per operation the group
    # [in_i->out_i, out_i->T, out_i->in_j...] with successors
    # ascending.
    counts = pair_ok.sum(axis=1)
    group_offsets = (
        1 + n_ops + np.concatenate(([0], np.cumsum(2 + counts[:-1])))
    )
    n_edges = int(1 + n_ops + (2 + counts).sum())
    edge_srcs = np.empty(n_edges, dtype=np.int64)
    edge_tgts = np.empty(n_edges, dtype=np.int64)
    edge_caps = np.ones(n_edges, dtype=np.int64)
    edge_weights = np.zeros(n_edges, dtype=np.int64)
    edge_srcs[0], edge_tgts[0], edge_caps[0] = node_s, node_t, limit
    edge_srcs[1: 1 + n_ops] = node_s
    edge_tgts[1: 1 + n_ops] = in_nodes
    edge_weights[1: 1 + n_ops] = 2
    edge_srcs[group_offsets] = in_nodes
    edge_tgts[group_offsets] = out_nodes
    edge_weights[group_offsets] = -_COVER_REWARD
    edge_srcs[group_offsets + 1] = out_nodes
    edge_tgts[group_offsets + 1] = node_t
    pair_rank = np.arange(len(pair_i)) - np.repeat(
        np.concatenate(([0], np.cumsum(counts[:-1]))), counts
    )
    pair_pos = group_offsets[pair_i] + 2 + pair_rank
    edge_srcs[pair_pos] = out_nodes[pair_i]
    edge_tgts[pair_pos] = in_nodes[pair_j]
    edge_weights[pair_pos] = pair_w

    demands = np.zeros(2 + 2 * n_ops, dtype=np.int64)
    demands[node_s] = -limit
    demands[node_t] = limit

    flow = _network_simplex(
        demands, edge_srcs, edge_tgts, edge_caps, edge_weights
    )

    # Chain extraction mirrors lopass._extract_chains: the successor
    # of op ``i`` is the first positive-flow out_i->in_j edge in
    # adjacency order (at most one exists — unit capacities), and the
    # first op in order whose in->out edge carries no flow raises.
    uncovered = np.nonzero(flow[group_offsets] == 0)[0]
    if uncovered.size:
        raise BindingError(
            f"network flow left operation "
            f"{ops[int(uncovered[0])].op_id} uncovered"
        )
    next_index = np.full(n_ops, -1, dtype=np.int64)
    carrying = np.nonzero(flow[pair_pos] > 0)[0]
    next_index[pair_i[carrying]] = pair_j[carrying]

    chains: List[List[int]] = []
    for i in np.nonzero(flow[1: 1 + n_ops] > 0)[0]:
        chain = []
        current = int(i)
        while current >= 0:
            chain.append(ops[current].op_id)
            current = int(next_index[current])
        chains.append(chain)

    covered = {op_id for chain in chains for op_id in chain}
    if len(covered) != len(ops):
        raise BindingError(
            f"flow chains cover {len(covered)} of {len(ops)} operations"
        )
    return chains


# ---------------------------------------------------------------------------
# Primal network simplex, pivot-for-pivot faithful to networkx.
# ---------------------------------------------------------------------------

#: Largest number of pivot-search blocks evaluated per numpy batch.
_PIVOT_CHUNK = 8


def _network_simplex(
    demands: np.ndarray,
    srcs: np.ndarray,
    tgts: np.ndarray,
    caps: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Min-cost flow via the primal network simplex; returns edge flows.

    A line-for-line port of networkx's ``network_simplex`` onto numpy
    arrays: same artificial-root initialization, same
    ``ceil(sqrt(E))``-block Dantzig/Bland entering-edge rule with
    first-minimum tie-breaks, same leaving-edge rule — so the computed
    flow (not just its cost) matches networkx exactly. The entering
    search evaluates reduced costs as array expressions over edge
    arrays kept oriented by flow state (an edge carrying flow is stored
    reversed with its weight negated, so no sign flip is needed): one
    block at a time while pivots keep hitting, then in batches of
    doubling size (up to :data:`_PIVOT_CHUNK` blocks) through the
    optimality sweeps that must visit every block.

    All inputs are int64; raises :class:`~repro.errors.BindingError`
    when no flow satisfies the demands (networkx raises
    ``NetworkXUnfeasible``; the binding layer treats both as fatal).
    """
    n = len(demands)
    n_real = len(srcs)
    root = n

    # Artificial root edges: one per node, oriented by demand sign.
    dummy_srcs = np.where(demands > 0, root, np.arange(n))
    dummy_tgts = np.where(demands > 0, np.arange(n), root)
    faux_inf = 3 * max(
        int(caps.sum()),
        int(np.abs(weights).sum()),
        int(np.abs(demands).sum()),
    ) or 1

    e_src = np.concatenate([srcs, dummy_srcs]).astype(np.int64)
    e_tgt = np.concatenate([tgts, dummy_tgts]).astype(np.int64)
    e_weight = np.concatenate(
        [weights, np.full(n, faux_inf, dtype=np.int64)]
    )
    potentials = np.where(demands <= 0, faux_inf, -faux_inf).astype(np.int64)

    # Everything walked edge-at-a-time (cycle tracing, augmentation,
    # tree surgery) uses plain Python lists in the true orientation —
    # scalar numpy indexing would dominate the runtime. The endpoint
    # lists share one int object per node id. The arrays hold the real
    # edges for the entering-edge search, oriented by flow state:
    # (s, t, w) while the flow is 0, (t, s, -w) once it is positive;
    # augment_flow flips an entry when its flow crosses zero.
    node_ids = np.array(range(n + 1), dtype=object)
    src_l = node_ids[e_src].tolist()
    tgt_l = node_ids[e_tgt].tolist()
    cap_l = caps.tolist() + [faux_inf] * n
    flow_l = [0] * n_real + [abs(int(d)) for d in demands]
    weight_l = e_weight.tolist()
    parent: List[Optional[int]] = [root] * n + [None]
    parent_edge: List[Optional[int]] = list(range(n_real, n_real + n)) + [None]
    subtree_size = [1] * n + [n + 1]
    next_dft = list(range(1, n)) + [root, 0]
    prev_dft = [root] + list(range(n))
    last_dft = list(range(n)) + [n - 1]

    def find_apex(p: int, q: int) -> int:
        size_p = subtree_size[p]
        size_q = subtree_size[q]
        while True:
            while size_p < size_q:
                p = parent[p]
                size_p = subtree_size[p]
            while size_p > size_q:
                q = parent[q]
                size_q = subtree_size[q]
            if size_p == size_q:
                if p != q:
                    p = parent[p]
                    size_p = subtree_size[p]
                    q = parent[q]
                    size_q = subtree_size[q]
                else:
                    return p

    def trace_path(p: int, w: int) -> Tuple[List[int], List[int]]:
        nodes = [p]
        edges = []
        while p != w:
            edges.append(parent_edge[p])
            p = parent[p]
            nodes.append(p)
        return nodes, edges

    def find_cycle(i: int, p: int, q: int) -> Tuple[List[int], List[int]]:
        w = find_apex(p, q)
        nodes, edges = trace_path(p, w)
        nodes.reverse()
        edges.reverse()
        if edges != [i]:
            edges.append(i)
        nodes_r, edges_r = trace_path(q, w)
        del nodes_r[-1]
        nodes += nodes_r
        edges += edges_r
        return nodes, edges

    def find_leaving_edge(
        cycle_nodes: List[int], cycle_edges: List[int]
    ) -> Tuple[int, int, int, int]:
        # The first strict minimum of the residual capacities in the
        # reversed walk. Residuals are never negative, so the first
        # zero is that minimum and ends the walk.
        best = None
        best_res = None
        for j, s in zip(reversed(cycle_edges), reversed(cycle_nodes)):
            res = cap_l[j] - flow_l[j] if src_l[j] == s else flow_l[j]
            if best_res is None or res < best_res:
                best, best_res = (j, s), res
                if res == 0:
                    break
        j, s = best
        t = tgt_l[j] if src_l[j] == s else src_l[j]
        return j, s, t, best_res

    def augment_flow(
        cycle_nodes: List[int], cycle_edges: List[int], f: int
    ) -> None:
        if f == 0:
            return
        for i, p in zip(cycle_edges, cycle_nodes):
            old = flow_l[i]
            new = flow_l[i] = old + f if src_l[i] == p else old - f
            if (old == 0 or new == 0) and i < n_real:
                if new:
                    e_src[i], e_tgt[i] = tgt_l[i], src_l[i]
                    e_weight[i] = -weight_l[i]
                else:
                    e_src[i], e_tgt[i] = src_l[i], tgt_l[i]
                    e_weight[i] = weight_l[i]

    def trace_subtree(p: int) -> List[int]:
        nodes = [p]
        last = last_dft[p]
        while p != last:
            p = next_dft[p]
            nodes.append(p)
        return nodes

    def remove_edge(s: int, t: int) -> None:
        size_t = subtree_size[t]
        prev_t = prev_dft[t]
        last_t = last_dft[t]
        next_last_t = next_dft[last_t]
        parent[t] = None
        parent_edge[t] = None
        next_dft[prev_t] = next_last_t
        prev_dft[next_last_t] = prev_t
        next_dft[last_t] = t
        prev_dft[t] = last_t
        while s is not None:
            subtree_size[s] -= size_t
            if last_dft[s] == last_t:
                last_dft[s] = prev_t
            s = parent[s]

    def make_root(q: int) -> None:
        ancestors = []
        while q is not None:
            ancestors.append(q)
            q = parent[q]
        ancestors.reverse()
        for p, q in zip(ancestors, ancestors[1:]):
            size_p = subtree_size[p]
            last_p = last_dft[p]
            prev_q = prev_dft[q]
            last_q = last_dft[q]
            next_last_q = next_dft[last_q]
            parent[p] = q
            parent[q] = None
            parent_edge[p] = parent_edge[q]
            parent_edge[q] = None
            subtree_size[p] = size_p - subtree_size[q]
            subtree_size[q] = size_p
            next_dft[prev_q] = next_last_q
            prev_dft[next_last_q] = prev_q
            next_dft[last_q] = q
            prev_dft[q] = last_q
            if last_p == last_q:
                last_dft[p] = prev_q
                last_p = prev_q
            prev_dft[p] = last_q
            next_dft[last_q] = p
            next_dft[last_p] = q
            prev_dft[q] = last_p
            last_dft[q] = last_p

    def add_tree_edge(i: int, p: int, q: int) -> None:
        last_p = last_dft[p]
        next_last_p = next_dft[last_p]
        size_q = subtree_size[q]
        last_q = last_dft[q]
        parent[q] = p
        parent_edge[q] = i
        next_dft[last_p] = q
        prev_dft[q] = last_p
        prev_dft[next_last_p] = last_q
        next_dft[last_q] = next_last_p
        while p is not None:
            subtree_size[p] += size_q
            if last_dft[p] == last_p:
                last_dft[p] = last_q
            p = parent[p]

    def update_potentials(i: int, p: int, q: int) -> None:
        if q == tgt_l[i]:
            d = int(potentials[p]) - weight_l[i] - int(potentials[q])
        else:
            d = int(potentials[p]) + weight_l[i] - int(potentials[q])
        subtree = np.array(trace_subtree(q), dtype=np.intp)
        potentials[subtree] += d

    def entering_edges():
        """Entering edges by the batched Dantzig/Bland block search.

        The search state is frozen between pivots, so evaluating several
        blocks at once and taking the first with a negative minimum
        selects exactly the edge the one-block-at-a-time reference
        selects. After a hit the next search reads a single block; each
        miss doubles the batch up to :data:`_PIVOT_CHUNK` blocks.
        """
        if n_real == 0:
            return
        block = int(np.ceil(np.sqrt(n_real)))
        n_blocks = (n_real + block - 1) // block
        misses = 0
        f = 0
        batch = 1
        while misses < n_blocks:
            batch = min(batch, n_blocks - misses)
            end = f + batch * block
            if end <= n_real:
                c = e_weight[f:end] - potentials[e_src[f:end]]
                c += potentials[e_tgt[f:end]]
            else:
                idx = np.arange(f, end) % n_real
                c = e_weight[idx] - potentials[e_src[idx]]
                c += potentials[e_tgt[idx]]
            j = int(c.argmin())
            if c[j] >= 0:
                misses += batch
                f = end % n_real
                batch = min(batch * 2, _PIVOT_CHUNK)
                continue
            if batch > 1:
                # The first minimum of the first block holding a
                # negative reduced cost.
                start = int((c < 0).argmax()) // block * block
                j = start + int(c[start: start + block].argmin())
            i = (f + j) % n_real
            f = (f + (j // block + 1) * block) % n_real
            misses = 0
            batch = 1
            yield i, e_src[i].item(), e_tgt[i].item()

    for i, p, q in entering_edges():
        cycle_nodes, cycle_edges = find_cycle(i, p, q)
        j, s, t, f = find_leaving_edge(cycle_nodes, cycle_edges)
        augment_flow(cycle_nodes, cycle_edges, f)
        if i != j:
            if parent[t] != s:
                s, t = t, s
            if cycle_edges.index(i) > cycle_edges.index(j):
                p, q = q, p
            remove_edge(s, t)
            make_root(q)
            add_tree_edge(i, p, q)
            update_potentials(i, p, q)

    if any(flow_l[i] != 0 for i in range(n_real, n_real + n)):
        raise BindingError("no flow satisfies all node demands")
    real_flow = np.array(flow_l[:n_real], dtype=np.int64)
    if np.any(real_flow * 2 >= faux_inf):
        raise BindingError("negative cycle with infinite capacity found")
    return real_flow

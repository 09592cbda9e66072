"""Monte-Carlo tree search binding (``binder="mcts"``).

Resource binding for mux reduction is NP-complete (Pangrle [18]), the
exact branch-and-bound binder (:mod:`~repro.binding.optimal`) only
scales to :data:`~repro.binding.optimal.MAX_OPS_PER_CLASS` operations
per class, and ``repro corpus --oracle`` shows both heuristics leaving
a measurable FU-mux-length gap against it. This module closes part of
that gap with a search binder that stays cheap and deterministic:

* **State space.** FU binding decomposes per resource class, and a
  per-class state is "the first *i* operations (in schedule order)
  assigned to units". Each unit is summarized by three bitsets — busy
  c-steps, port-A source registers, port-B source registers — because
  the cost of every completion depends only on those masks, not on
  which concrete operations produced them. States are therefore
  canonicalized to ``(i, sorted unit-mask triples)`` and the search
  runs on the resulting DAG with a transposition table: symmetric
  assignments (any permutation of units, any choice among empty units)
  collapse into one node, the same canonical pruning that makes
  CbO-style closed-set enumeration tractable.

* **Incumbent baseline.** Both heuristics (HLPower and LOPASS, via the
  PR-5 vectorized fast paths) are run first with the *same* register
  binding and port assignment. Their per-class groupings seed the
  search's incumbent, so MCTS can never return a worse solution than
  the best heuristic; a budget of 0 degenerates to exactly the best
  heuristic's assignment.

* **Search.** Standard UCT selection over canonical child states with
  best-cost backup (costs are ``(mux length, muxDiff sum)`` tuples —
  the branch-and-bound objective of Tables 3/4 — scalarized with the
  diff as tie-break). Expansion adds one node per iteration; playouts
  are heuristic-guided: candidate units are ranked by added mux
  inputs, then by whether the unit already holds an operation the
  incumbent grouped with this one, then by added muxDiff, with ties
  broken by an explicit :class:`random.Random` stream seeded from
  ``(mcts_seed, class)`` — never the global RNG — so repeat runs are
  byte-identical everywhere (flow, sweep, executor, serve).

The same machinery — seeded playouts over a canonical decision DAG
with cheap bitset evaluators — can later search input *vector sets*
for worst-case power, ATPG-style.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from math import log, sqrt
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError, ResourceError
from repro.binding.base import (
    BindingSolution,
    FUBinding,
    FunctionalUnit,
    PortAssignment,
    RegisterBinding,
)
from repro.binding.compile import BindMemo, bind_hlpower_fast, bind_lopass_fast
from repro.binding.hlpower import HLPowerConfig
from repro.binding.registers import assign_ports, bind_registers
from repro.binding.sa_table import SATable
from repro.cdfg.schedule import Schedule

#: Every named binder ``run_binder`` dispatches on, in tie-break order.
BINDER_NAMES: Tuple[str, ...] = ("hlpower", "lopass", "mcts")

#: Default per-class iteration budget (one expansion + playout each).
DEFAULT_MCTS_BUDGET = 256
#: Default playout seed.
DEFAULT_MCTS_SEED = 1
#: UCT exploration constant (sqrt(2), the textbook default).
UCT_EXPLORATION = 1.4142135623730951

#: muxDiff tie-break field width in the scalarized cost.
_DIFF_SCALE = 1 << 16
_INF = float("inf")


@dataclass
class MCTSConfig:
    """Tunables of the MCTS binder.

    ``budget`` is the number of search iterations *per resource class*;
    each iteration expands one tree node and completes one playout.
    With ``budget=0`` no search runs and the result is exactly the best
    heuristic's assignment. The heuristic incumbents come from the
    vectorized binders, which share the optional ``bind_memo``.
    """

    budget: int = DEFAULT_MCTS_BUDGET
    seed: int = DEFAULT_MCTS_SEED
    alpha: float = 0.5
    sa_table: Optional[SATable] = None
    exploration: float = UCT_EXPLORATION
    bind_memo: Optional[BindMemo] = None


def bind_mcts(
    schedule: Schedule,
    constraints: Mapping[str, int],
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
    config: Optional[MCTSConfig] = None,
) -> BindingSolution:
    """Search-based binding, never worse than the best heuristic."""
    started = time.perf_counter()
    cfg = config or MCTSConfig()
    if not isinstance(cfg.budget, int) or isinstance(cfg.budget, bool):
        raise ConfigError(f"mcts budget must be an int, got {cfg.budget!r}")
    if cfg.budget < 0:
        raise ConfigError(f"mcts budget must be >= 0, got {cfg.budget}")
    if not isinstance(cfg.seed, int) or isinstance(cfg.seed, bool):
        raise ConfigError(f"mcts seed must be an int, got {cfg.seed!r}")
    cdfg = schedule.cdfg
    if registers is None:
        registers = bind_registers(schedule)
    if ports is None:
        ports = assign_ports(cdfg)

    heuristics = _heuristic_incumbents(
        schedule, constraints, registers, ports, cfg
    )

    classes = list(cdfg.resource_classes())
    insts: Dict[str, _ClassInstance] = {}
    for fu_class in classes:
        if constraints.get(fu_class) is None:
            raise ResourceError(f"no constraint for class {fu_class!r}")
        insts[fu_class] = _ClassInstance(schedule, fu_class, registers, ports)

    # The globally better heuristic: budget=0 degenerates to exactly
    # this solution's assignment. Ties resolve to HLPower (first).
    totals = []
    for sol in heuristics:
        length = diff = 0
        for fu_class in classes:
            inst = insts[fu_class]
            part = inst.cost_of(inst.groups_of(sol, fu_class))
            length += part[0]
            diff += part[1]
        totals.append((length, diff))
    global_best = heuristics[totals.index(min(totals))]

    units: List[FunctionalUnit] = []
    constraint_met = True
    for fu_class in classes:
        limit = constraints[fu_class]
        inst = insts[fu_class]
        if cfg.budget == 0:
            best_groups = inst.groups_of(global_best, fu_class)
        else:
            groups_, _ = _incumbent_groups(inst, fu_class, heuristics)
            best_groups = groups_
        groups, met = _bind_class(
            schedule, fu_class, limit, inst, best_groups, cfg
        )
        constraint_met &= met
        for ops in groups:
            units.append(FunctionalUnit(len(units), fu_class, ops))

    solution = BindingSolution(
        schedule=schedule,
        registers=registers,
        ports=ports,
        fus=FUBinding(units, constraint_met),
        algorithm="mcts",
        runtime_s=time.perf_counter() - started,
    )
    solution.validate()
    return solution


def _heuristic_incumbents(
    schedule: Schedule,
    constraints: Mapping[str, int],
    registers: RegisterBinding,
    ports: PortAssignment,
    cfg: MCTSConfig,
) -> Tuple[BindingSolution, ...]:
    """Both heuristic solutions over the *same* registers and ports.

    Order matters: HLPower first, so cost ties between the two resolve
    the same way everywhere.
    """
    hl_cfg = HLPowerConfig(alpha=cfg.alpha, sa_table=cfg.sa_table)
    hlpower = bind_hlpower_fast(
        schedule, constraints, registers, ports, hl_cfg, memo=cfg.bind_memo,
    )
    lopass = bind_lopass_fast(schedule, constraints, registers, ports)
    return (hlpower, lopass)


class _ClassInstance:
    """Bitset view of one resource class's binding subproblem."""

    def __init__(
        self,
        schedule: Schedule,
        fu_class: str,
        registers: RegisterBinding,
        ports: PortAssignment,
    ) -> None:
        cdfg = schedule.cdfg
        self.ops = sorted(
            (
                op
                for op in cdfg.operations.values()
                if op.resource_class == fu_class
            ),
            key=lambda op: (schedule.start_of(op), op.op_id),
        )
        self.index_of = {op.op_id: i for i, op in enumerate(self.ops)}
        reg_bits: Dict[int, int] = {}
        self.busy: List[int] = []
        self.a_bit: List[int] = []
        self.b_bit: List[int] = []
        for op in self.ops:
            start, end = schedule.busy_interval(op)
            mask = 0
            for step in range(start, end + 1):
                mask |= 1 << step
            self.busy.append(mask)
            var_a, var_b = ports.of(op)
            for var, out in ((var_a, self.a_bit), (var_b, self.b_bit)):
                reg = registers.register_of(var)
                bit = reg_bits.setdefault(reg, 1 << len(reg_bits))
                out.append(bit)

    def __len__(self) -> int:
        return len(self.ops)

    def groups_of(self, solution: BindingSolution, fu_class: str
                  ) -> List[List[int]]:
        """A heuristic's grouping of this class, as sorted op indexes."""
        groups = [
            sorted(self.index_of[op_id] for op_id in unit.ops)
            for unit in solution.fus.units_of_class(fu_class)
        ]
        groups.sort(key=lambda group: group[0])
        return groups

    def cost_of(self, groups: Sequence[Sequence[int]]) -> Tuple[int, int]:
        """``(mux length, muxDiff sum)`` of a complete grouping."""
        length = diff = 0
        for group in groups:
            mask_a = mask_b = 0
            for i in group:
                mask_a |= self.a_bit[i]
                mask_b |= self.b_bit[i]
            size_a = mask_a.bit_count()
            size_b = mask_b.bit_count()
            length += (size_a if size_a > 1 else 0) + (
                size_b if size_b > 1 else 0
            )
            diff += abs(size_a - size_b)
        return length, diff


def _scalar(cost: Tuple[int, int]) -> int:
    length, diff = cost
    return length * _DIFF_SCALE + min(diff, _DIFF_SCALE - 1)


def _mux_len(count: int) -> int:
    return count if count > 1 else 0


def _incumbent_groups(
    inst: _ClassInstance,
    fu_class: str,
    heuristics: Tuple[BindingSolution, ...],
) -> Tuple[List[List[int]], Tuple[int, int]]:
    """Per-class incumbent: the better heuristic grouping under the
    class cost (HLPower wins ties via candidate order)."""
    candidates = [inst.groups_of(sol, fu_class) for sol in heuristics]
    best = min(candidates, key=inst.cost_of)
    return best, inst.cost_of(best)


def _bind_class(
    schedule: Schedule,
    fu_class: str,
    limit: int,
    inst: _ClassInstance,
    best_groups: List[List[int]],
    cfg: MCTSConfig,
) -> Tuple[List[FrozenSet[int]], bool]:
    if not len(inst):
        return [], True
    best_cost = inst.cost_of(best_groups)

    _, density = schedule.densest_step(fu_class)
    searchable = cfg.budget > 0 and limit >= density
    if searchable:
        found = _search_class(inst, limit, best_groups, best_cost, cfg,
                              fu_class)
        if found is not None:
            best_groups, best_cost = found
    met = len(best_groups) <= limit
    groups = [
        frozenset(inst.ops[i].op_id for i in group) for group in best_groups
    ]
    return groups, met


def _search_class(
    inst: _ClassInstance,
    limit: int,
    incumbent_groups: List[List[int]],
    incumbent_cost: Tuple[int, int],
    cfg: MCTSConfig,
    fu_class: str,
) -> Optional[Tuple[List[List[int]], Tuple[int, int]]]:
    """UCT search over the class's canonical assignment DAG.

    Returns a strictly better grouping than the incumbent, or ``None``.
    """
    n = len(inst)
    busy, a_bit, b_bit = inst.busy, inst.a_bit, inst.b_bit
    # Seeding from ``(seed, class)`` as a string goes through the
    # PYTHONHASHSEED-independent str path of random.seed.
    rng = random.Random(f"repro-mcts:{cfg.seed}:{fu_class}")
    exploration = cfg.exploration
    norm = float(max(_scalar(incumbent_cost), 1))

    group_of = [0] * n
    for gid, group in enumerate(incumbent_groups):
        for i in group:
            group_of[i] = gid

    best_scalar = _scalar(incumbent_cost)
    best_assign: Optional[List[int]] = None

    # node: [visits, best scalar seen below]
    nodes: Dict[Tuple[int, Tuple[Tuple[int, int, int], ...]], List] = {
        (0, ()): [0, _INF]
    }

    def child_sig(units: List[List[int]], u_idx: int, i: int
                  ) -> Tuple[Tuple[int, int, int], ...]:
        sig = [
            (u[0], u[1], u[2]) for k, u in enumerate(units) if k != u_idx
        ]
        if u_idx == len(units):
            sig.append((busy[i], a_bit[i], b_bit[i]))
        else:
            u = units[u_idx]
            sig.append((u[0] | busy[i], u[1] | a_bit[i], u[2] | b_bit[i]))
        return tuple(sorted(sig))

    def apply(units: List[List[int]], u_idx: int, i: int) -> None:
        if u_idx == len(units):
            units.append([busy[i], a_bit[i], b_bit[i], 1 << group_of[i]])
        else:
            u = units[u_idx]
            u[0] |= busy[i]
            u[1] |= a_bit[i]
            u[2] |= b_bit[i]
            u[3] |= 1 << group_of[i]

    def actions(units: List[List[int]], i: int
                ) -> List[Tuple[int, Tuple[Tuple[int, int, int], ...]]]:
        acts = []
        seen = set()
        for u_idx, u in enumerate(units):
            if u[0] & busy[i]:
                continue
            sig = child_sig(units, u_idx, i)
            if sig in seen:
                continue
            seen.add(sig)
            acts.append((u_idx, sig))
        if len(units) < limit:
            sig = child_sig(units, len(units), i)
            if sig not in seen:
                acts.append((len(units), sig))
        return acts

    def playout(units: List[List[int]], assign: List[int], start: int
                ) -> bool:
        for j in range(start, n):
            best_key = None
            ties: List[int] = []
            for u_idx, u in enumerate(units):
                if u[0] & busy[j]:
                    continue
                pa, pb = u[1].bit_count(), u[2].bit_count()
                na = pa + (0 if u[1] & a_bit[j] else 1)
                nb = pb + (0 if u[2] & b_bit[j] else 1)
                d_len = (
                    _mux_len(na) + _mux_len(nb) - _mux_len(pa) - _mux_len(pb)
                )
                d_diff = abs(na - nb) - abs(pa - pb)
                mate = 0 if u[3] >> group_of[j] & 1 else 1
                key = (d_len, mate, d_diff)
                if best_key is None or key < best_key:
                    best_key, ties = key, [u_idx]
                elif key == best_key:
                    ties.append(u_idx)
            if len(units) < limit:
                key = (0, 1, 0)
                if best_key is None or key < best_key:
                    best_key, ties = key, [len(units)]
                elif key == best_key:
                    ties.append(len(units))
            if not ties:
                return False
            pick = ties[0] if len(ties) == 1 else rng.choice(ties)
            apply(units, pick, j)
            assign[j] = pick
        return True

    for _ in range(cfg.budget):
        units: List[List[int]] = []
        assign = [-1] * n
        node = nodes[(0, ())]
        path = [node]
        i = 0
        complete = True
        while i < n:
            acts = actions(units, i)
            if not acts:
                complete = False
                break
            expand = None
            for u_idx, sig in acts:
                if (i + 1, sig) not in nodes:
                    expand = (u_idx, sig)
                    break
            if expand is not None:
                u_idx, sig = expand
                apply(units, u_idx, i)
                assign[i] = u_idx
                child = nodes[(i + 1, sig)] = [0, _INF]
                path.append(child)
                complete = playout(units, assign, i + 1)
                break
            parent_visits = max(node[0], 1)
            best_score = -_INF
            pick = acts[0]
            for u_idx, sig in acts:
                child = nodes[(i + 1, sig)]
                quality = 1.0 - child[1] / norm
                score = quality + exploration * sqrt(
                    log(parent_visits) / child[0]
                )
                if score > best_score:
                    best_score = score
                    pick = (u_idx, sig)
            u_idx, sig = pick
            apply(units, u_idx, i)
            assign[i] = u_idx
            node = nodes[(i + 1, sig)]
            path.append(node)
            i += 1
        if not complete:
            for nd in path:
                nd[0] += 1
            continue
        scalar = _scalar(_eval(units))
        for nd in path:
            nd[0] += 1
            if scalar < nd[1]:
                nd[1] = scalar
        if scalar < best_scalar:
            best_scalar = scalar
            best_assign = assign

    if best_assign is None:
        return None
    by_unit: Dict[int, List[int]] = {}
    for i, u_idx in enumerate(best_assign):
        by_unit.setdefault(u_idx, []).append(i)
    groups = sorted(by_unit.values(), key=lambda group: group[0])
    return groups, inst.cost_of(groups)


def _eval(units: List[List[int]]) -> Tuple[int, int]:
    length = diff = 0
    for u in units:
        size_a = u[1].bit_count()
        size_b = u[2].bit_count()
        length += _mux_len(size_a) + _mux_len(size_b)
        diff += abs(size_a - size_b)
    return length, diff

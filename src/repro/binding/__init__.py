"""High-level binding algorithms (the paper's core contribution).

* :mod:`~repro.binding.base` — binding result types shared by all
  binders (register binding, FU binding, port assignment).
* :mod:`~repro.binding.registers` — weighted-bipartite register
  binding in the style of Huang et al. [11] (Section 5.1).
* :mod:`~repro.binding.matching` — max-weight bipartite matching.
* :mod:`~repro.binding.compat` — FU-node compatibility and the U/V
  split of Section 5.2.1.
* :mod:`~repro.binding.sa_table` — the precalculated glitch-aware SA
  table for (FU, mux, mux) combinations (Section 5.2.2).
* :mod:`~repro.binding.weights` — Equation (4) edge weights.
* :mod:`~repro.binding.hlpower` — Algorithm 1, the HLPower binder.
* :mod:`~repro.binding.lopass` — the network-flow baseline binder
  standing in for LOPASS [3,4] (see DESIGN.md substitutions).
* :mod:`~repro.binding.compile` — vectorized engines for both binders
  (what the flow runs), decision-identical to the seed binders.
* :mod:`~repro.binding.mcts` — seeded Monte-Carlo tree search binder
  (``binder="mcts"``), never worse than the best heuristic.
"""

from repro.binding.base import (
    BindingSolution,
    FunctionalUnit,
    FUBinding,
    PortAssignment,
    RegisterBinding,
)
from repro.binding.matching import max_weight_matching
from repro.binding.registers import assign_ports, bind_registers
from repro.binding.compat import BindingNode, select_initial_sets
from repro.binding.sa_table import SATable
from repro.binding.weights import DEFAULT_BETA, edge_weight
from repro.binding.hlpower import HLPowerConfig, bind_hlpower
from repro.binding.portopt import optimize_ports
from repro.binding.lopass import bind_lopass
from repro.binding.leftedge import bind_registers_left_edge
from repro.binding.optimal import bind_optimal
from repro.binding.compile import (
    BindMemo,
    bind_hlpower_fast,
    bind_lopass_fast,
)
from repro.binding.mcts import (
    BINDER_NAMES,
    DEFAULT_MCTS_BUDGET,
    DEFAULT_MCTS_SEED,
    MCTSConfig,
    bind_mcts,
)

__all__ = [
    "BINDER_NAMES",
    "DEFAULT_MCTS_BUDGET",
    "DEFAULT_MCTS_SEED",
    "MCTSConfig",
    "bind_mcts",
    "BindMemo",
    "bind_hlpower_fast",
    "bind_lopass_fast",
    "BindingSolution",
    "FunctionalUnit",
    "FUBinding",
    "PortAssignment",
    "RegisterBinding",
    "max_weight_matching",
    "assign_ports",
    "bind_registers",
    "BindingNode",
    "select_initial_sets",
    "SATable",
    "DEFAULT_BETA",
    "edge_weight",
    "HLPowerConfig",
    "bind_hlpower",
    "optimize_ports",
    "bind_lopass",
    "bind_registers_left_edge",
    "bind_optimal",
]

"""Maximum-weight bipartite matching.

Both binding stages solve weighted bipartite graphs ("solve G for
maximum weight", Algorithm 1 line 14). Two implementations:

* :func:`max_weight_matching` — reduction to a rectangular assignment
  problem solved by ``scipy.optimize.linear_sum_assignment``: pad the
  weight matrix to square with zero-weight "stay unmatched" cells, take
  the maximum assignment, and drop pairs that use no real edge.
* :func:`max_weight_matching_python` — a pure-Python exact solver
  (augmenting search over vertex orderings is exponential, so this uses
  the same Hungarian reduction implemented directly); retained for
  environments without scipy and as a differential-test oracle.

The solver is scipy's compiled ``scipy/optimize/_lsap`` extension,
loaded on its own by :func:`_linear_sum_assignment`. Importing
``scipy.optimize`` would pull in ~500 modules (``scipy.linalg``,
``numpy.f2py``, ...): 0.45 s and ~50 MB in every cold process, paid
inside the first register binding. The loaded module is registered
under its package name, so a later ``import scipy.optimize`` reuses it
and both names give the same C function.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from typing import (
    Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import BindingError

Edge = Tuple[Hashable, Hashable]

_LSAP = "scipy.optimize._lsap"


def _lsap_file() -> Optional[str]:
    """Path of scipy's compiled assignment module, if it is installed."""
    spec = importlib.util.find_spec("scipy")  # does not run scipy's __init__
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _linear_sum_assignment() -> Callable:
    """scipy's ``linear_sum_assignment``, without ``scipy.optimize``.

    Loads the compiled module directly when its file is where scipy
    ships it; otherwise falls back to the public import.
    """
    module = sys.modules.get(_LSAP)
    if module is None:
        path = _lsap_file()
        if path is None:
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        spec = importlib.util.spec_from_file_location(_LSAP, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # an ExtensionFileLoader
        sys.modules[_LSAP] = module
    return module.linear_sum_assignment


def max_weight_matching(
    left: Sequence[Hashable],
    right: Sequence[Hashable],
    weights: Mapping[Edge, float],
) -> Dict[Hashable, Hashable]:
    """Maximum-total-weight matching of a bipartite graph.

    ``weights`` maps ``(left_node, right_node)`` to a strictly positive
    weight; absent pairs are not edges. Returns a dict
    ``left_node -> right_node`` containing only genuinely matched
    pairs. Raises on non-positive weights (a zero-weight edge is
    indistinguishable from "no edge" in the reduction).
    """
    _check(left, right, weights)
    if not weights:
        return {}
    n = max(len(left), len(right))
    matrix = np.zeros((n, n), dtype=np.float64)
    left_index = {node: i for i, node in enumerate(left)}
    right_index = {node: j for j, node in enumerate(right)}
    for (u, v), w in weights.items():
        matrix[left_index[u], right_index[v]] = w

    rows, cols = _linear_sum_assignment()(matrix, maximize=True)
    result: Dict[Hashable, Hashable] = {}
    for row, col in zip(rows, cols):
        if row < len(left) and col < len(right) and matrix[row, col] > 0.0:
            result[left[row]] = right[col]
    return result


def max_weight_matching_python(
    left: Sequence[Hashable],
    right: Sequence[Hashable],
    weights: Mapping[Edge, float],
) -> Dict[Hashable, Hashable]:
    """Pure-Python Hungarian algorithm (O(n^3)); scipy-free oracle."""
    _check(left, right, weights)
    if not weights:
        return {}
    n = max(len(left), len(right))
    left_index = {node: i for i, node in enumerate(left)}
    right_index = {node: j for j, node in enumerate(right)}
    cost = [[0.0] * (n + 1) for _ in range(n + 1)]  # 1-based, minimize
    for (u, v), w in weights.items():
        cost[left_index[u] + 1][right_index[v] + 1] = -w

    # Jonker-Volgenant style shortest augmenting path Hungarian.
    u_pot = [0.0] * (n + 1)
    v_pot = [0.0] * (n + 1)
    match_col = [0] * (n + 1)  # column -> row
    for row in range(1, n + 1):
        match_col[0] = row
        j0 = 0
        minv = [float("inf")] * (n + 1)
        used = [False] * (n + 1)
        way = [0] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = float("inf")
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                current = cost[i0][j] - u_pot[i0] - v_pot[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u_pot[match_col[j]] += delta
                    v_pot[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    result: Dict[Hashable, Hashable] = {}
    for col in range(1, n + 1):
        row = match_col[col]
        if 1 <= row <= len(left) and col <= len(right):
            u = left[row - 1]
            v = right[col - 1]
            if weights.get((u, v), 0.0) > 0.0:
                result[u] = v
    return result


def matching_weight(
    matching: Mapping[Hashable, Hashable],
    weights: Mapping[Edge, float],
) -> float:
    """Total weight of a matching."""
    return sum(weights[(u, v)] for u, v in matching.items())


def _check(
    left: Sequence[Hashable],
    right: Sequence[Hashable],
    weights: Mapping[Edge, float],
) -> None:
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        raise BindingError("duplicate nodes in bipartite vertex set")
    left_set, right_set = set(left), set(right)
    for (u, v), w in weights.items():
        if u not in left_set or v not in right_set:
            raise BindingError(f"edge ({u!r}, {v!r}) references unknown node")
        if not w > 0.0:
            raise BindingError(
                f"edge ({u!r}, {v!r}) must have positive weight, got {w}"
            )

"""Transition density and simultaneous-switching activity.

Two estimators from the paper's model stack:

* :func:`najm_density` — Najm's transition density (Equation (1)):
  ``s(y) = sum_i P(dy/dx_i) * s(x_i)``. Fast, but over-counts when
  several inputs switch in the same cycle.
* :func:`switching_activity` — the Chou-Roy [7] correction used by the
  paper (Equation (2)). With independent fanins, the joint law of
  ``(x_i(t), x_i(t+T))`` is fully determined by ``(P_i, s_i)``:

  ====== =====================
  (1,1)  ``P_i - s_i / 2``
  (1,0)  ``s_i / 2``
  (0,1)  ``s_i / 2``
  (0,0)  ``1 - P_i - s_i / 2``
  ====== =====================

  and ``s(y)`` is the probability that the output differs between the
  two instants: ``sum over (a, b) with f(a) != f(b)`` of the product of
  per-input joint terms. This reduces exactly to Equation (2) of the
  paper; we compute the pair sum directly with numpy.

The exact pair computation is quadratic in the number of input
combinations, so it is restricted to ``MAX_EXACT_INPUTS`` inputs
(matching K-LUT arities); wider gates fall back to Najm's formula.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.activity.probability import gate_output_probability
from repro.netlist.gates import TruthTable

#: Widest gate for which the exact pair-space computation is used.
MAX_EXACT_INPUTS = 6


def pair_distribution(prob: float, activity: float) -> np.ndarray:
    """Joint distribution matrix ``J[a, b] = P(x(t)=a, x(t+T)=b)``.

    Requires ``activity <= 2 * min(prob, 1 - prob)`` — a signal that is
    1 with probability ``P`` cannot toggle more often than it visits the
    rarer state twice per period. Violations raise
    :class:`~repro.errors.EstimationError`.
    """
    if not 0.0 <= prob <= 1.0:
        raise EstimationError(f"probability out of range: {prob}")
    if activity < 0.0:
        raise EstimationError(f"negative switching activity: {activity}")
    limit = 2.0 * min(prob, 1.0 - prob)
    if activity > limit + 1e-9:
        raise EstimationError(
            f"activity {activity} inconsistent with probability {prob} "
            f"(max {limit})"
        )
    half = activity / 2.0
    return np.array(
        [
            [1.0 - prob - half, half],
            [half, prob - half],
        ],
        dtype=np.float64,
    )


def joint_input_matrix(
    n_inputs: int,
    probs: Sequence[float],
    activities: Sequence[float],
) -> np.ndarray:
    """``M[a, b]`` = probability inputs read ``a`` at ``t``, ``b`` at ``t+T``.

    ``a`` and ``b`` range over the ``2**n`` input combinations; inputs
    are independent, each with the :func:`pair_distribution` law.
    """
    if len(probs) != n_inputs or len(activities) != n_inputs:
        raise EstimationError("probs/activities arity mismatch")
    if n_inputs > MAX_EXACT_INPUTS:
        raise EstimationError(
            f"exact pair computation limited to {MAX_EXACT_INPUTS} inputs"
        )
    return mixed_joint_matrix(n_inputs, [
        pair_distribution(probs[i], activities[i]) for i in range(n_inputs)
    ])


def switching_activity(
    table: TruthTable,
    probs: Sequence[float],
    activities: Sequence[float],
) -> float:
    """Exact (independence-assuming) output switching activity.

    Equals Equation (2): ``s(y) = 2 (P(y) - P(y(t) y(t+T)))``. Falls
    back to :func:`najm_density` for gates wider than
    ``MAX_EXACT_INPUTS``.
    """
    if table.n_inputs == 0:
        return 0.0
    if table.n_inputs > MAX_EXACT_INPUTS:
        return najm_density(table, probs, activities)
    matrix = joint_input_matrix(table.n_inputs, probs, activities)
    column = np.array(table.output_column(), dtype=np.float64)
    differs = column[:, None] != column[None, :]
    return float(matrix[differs].sum())


def najm_density(
    table: TruthTable,
    probs: Sequence[float],
    activities: Sequence[float],
) -> float:
    """Equation (1): ``s(y) = sum_i P(dy/dx_i) s(x_i)``."""
    if len(probs) != table.n_inputs or len(activities) != table.n_inputs:
        raise EstimationError("probs/activities arity mismatch")
    total = 0.0
    for i in range(table.n_inputs):
        if activities[i] == 0.0:
            continue
        difference = table.boolean_difference(i)
        other_probs = [p for k, p in enumerate(probs) if k != i]
        sensitivity = gate_output_probability(difference, other_probs)
        total += sensitivity * activities[i]
    return total


def held_distribution(prob: float) -> np.ndarray:
    """Joint law of a signal that cannot switch between the two instants."""
    if not 0.0 <= prob <= 1.0:
        raise EstimationError(f"probability out of range: {prob}")
    return np.array(
        [[1.0 - prob, 0.0], [0.0, prob]],
        dtype=np.float64,
    )


def activity_bound(prob: float) -> float:
    """Maximum feasible switching activity for signal probability ``prob``."""
    return 2.0 * min(prob, 1.0 - prob)


def clamp_activity(prob: float, activity: float) -> float:
    """Clamp ``activity`` into the feasible range for ``prob``.

    Propagation through long chains can accumulate floating-point error
    that pushes an activity epsilon past its bound; estimators clamp
    before building :func:`pair_distribution` matrices.
    """
    return float(min(max(activity, 0.0), activity_bound(prob)))


def mixed_joint_matrix(
    n_inputs: int,
    joints: Sequence[np.ndarray],
) -> np.ndarray:
    """Like :func:`joint_input_matrix` but with explicit per-input laws.

    Used by the glitch model, where at a given time step some fanins can
    switch (pair law from their ``s_t``) and others are held
    (:func:`held_distribution`).
    """
    if len(joints) != n_inputs:
        raise EstimationError("joint law arity mismatch")
    if n_inputs > MAX_EXACT_INPUTS:
        raise EstimationError(
            f"exact pair computation limited to {MAX_EXACT_INPUTS} inputs"
        )
    size = 1 << n_inputs
    matrix = np.ones((size, size), dtype=np.float64)
    for i, joint in enumerate(joints):
        matrix *= joint[_bit_grid(n_inputs, i)]
    return matrix


#: Per ``(n_inputs, input position)``: the ``np.ix_`` grid that spreads
#: one input's 2x2 law over the ``2**n x 2**n`` pair space.
_BIT_GRIDS: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


def _bit_grid(n_inputs: int, position: int) -> Tuple[np.ndarray, np.ndarray]:
    grid = _BIT_GRIDS.get((n_inputs, position))
    if grid is None:
        bits = (np.arange(1 << n_inputs) >> position) & 1
        grid = _BIT_GRIDS[(n_inputs, position)] = np.ix_(bits, bits)
    return grid

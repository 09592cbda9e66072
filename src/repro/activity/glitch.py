"""Unit-delay glitch-aware switching-activity propagation.

This is the GlitchMap [6] model the paper builds its estimator on
(Section 4): under the unit delay model every gate/LUT switches only at
discrete time steps ``1, 2, ..., D``, where ``D`` is the node's depth.
The transition at time ``D`` is the functional transition; transitions
at earlier steps are glitches caused by unbalanced path delays.

Every net carries a :class:`GlitchWaveform`: its static signal
probability plus a map ``time -> switching activity at that step``. A
gate's output may switch at ``t + 1`` for every time ``t`` at which any
fanin may switch. At each such step the fanins that can switch
contribute their ``(P, s_t)`` pair law; quiescent fanins are held
(Equation (2) evaluated under a mixed joint law — see
:mod:`repro.activity.transition`).

The *effective* switching activity of a node is the sum of its per-step
activities, and the netlist total (Equation (3)) is the sum over all
nodes — computed in :mod:`repro.activity.estimator`.

One numpy kernel, :func:`batch_evaluate`, evaluates that step for many
gates at once, for :func:`propagate_waveforms` and the tech mapper
alike. It equals the per-gate evaluation (one
:func:`~repro.activity.transition.mixed_joint_matrix` per trigger time,
summed over the "output differs" pairs) to the bit, because it keeps
every floating-point operation, in order: each joint-matrix element is
``((J_0 * J_1) * J_2) * ...`` in input order (a Kronecker broadcast,
one leaf law at a time); each activity is the pairwise sum of the same
elements, gathered into the rows of one C-contiguous 2-D array whose
last axis numpy reduces as it sums a 1-D array (a strided array may
block the sum differently; ``tests/activity/test_batch_evaluate.py``
pins the contiguous case). :func:`clamped_totals` adds a job's clamped
steps with ``np.add.accumulate``, a left-to-right recurrence, in
ascending time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.activity.probability import (
    DEFAULT_INPUT_PROBABILITY,
    propagate_probabilities,
)
from repro.activity.transition import (
    MAX_EXACT_INPUTS,
    clamp_activity,
    najm_density,
)
from repro.netlist.compile import net_arrays
from repro.netlist.gates import Netlist, TruthTable

#: Default per-cycle switching activity of primary inputs.
DEFAULT_INPUT_ACTIVITY = 0.5


@dataclass
class GlitchWaveform:
    """Per-net probabilistic waveform under the unit-delay model."""

    probability: float
    steps: Dict[int, float] = field(default_factory=dict)
    #: Structural arrival time of the functional transition — the
    #: unit-delay depth ``1 + max(fanin depths)`` (0 for sources).
    #: Stored explicitly because the functional step may be *absent*
    #: from ``steps`` (its activity can clamp to zero while earlier
    #: glitch steps stay positive); inferring it from the recorded
    #: steps would misattribute the latest glitch as the functional
    #: transition. Defaults to the latest recorded step for
    #: hand-constructed waveforms.
    depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.depth is None:
            self.depth = max(self.steps, default=0)

    def total(self) -> float:
        """Effective switching activity: sum over all time steps."""
        return float(sum(self.steps.values()))

    def functional(self) -> float:
        """Activity of the transition at the node's depth."""
        return self.steps.get(self.depth, 0.0)

    def glitch(self) -> float:
        """Activity of all transitions before the functional one."""
        return self.total() - self.functional()

    def switch_times(self) -> List[int]:
        return sorted(self.steps)


def source_waveform(
    probability: float = DEFAULT_INPUT_PROBABILITY,
    activity: float = DEFAULT_INPUT_ACTIVITY,
    time: int = 0,
) -> GlitchWaveform:
    """Waveform of a primary input or register output.

    Sources change at most once per clock cycle, at ``time`` (0 by
    default): no glitches originate there.
    """
    activity = clamp_activity(probability, activity)
    steps = {time: activity} if activity > 0.0 else {}
    return GlitchWaveform(probability, steps, time)


def clamped_steps(
    out_prob: float, times: Sequence[int], raws: Sequence[float],
    shift: int = 0,
) -> Dict[int, float]:
    """The waveform steps of raw kernel activities: the positive ones,
    clamped as ``clamp_activity(out_prob, raw)``, ``shift`` later."""
    bound = 2.0 * min(out_prob, 1.0 - out_prob)
    return {
        t + shift: (raw if raw < bound else bound)
        for t, raw in zip(times, raws)
        if raw > 0.0
    }


def propagate_waveforms(
    netlist: Netlist,
    input_probs: Optional[Mapping[str, float]] = None,
    input_activities: Optional[Mapping[str, float]] = None,
    default_probability: float = DEFAULT_INPUT_PROBABILITY,
    default_activity: float = DEFAULT_INPUT_ACTIVITY,
) -> Dict[str, GlitchWaveform]:
    """Compute a :class:`GlitchWaveform` for every net of ``netlist``.

    Sources (primary inputs and latch outputs) switch once at time 0
    with the given activity; gate outputs accumulate per-step activities
    as described in the module docstring. Gates wider than the exact
    pair-space limit fall back to Najm's density placed entirely at the
    node's depth (no glitch decomposition) — the structural library and
    the 4-LUT mapper never produce such gates, but imported netlists
    might.

    The gates of one structural depth and arity are one
    :func:`batch_evaluate` call; gates reading the same fanins share a
    row of leaf statistics.
    """
    arrays = net_arrays(netlist)
    names = arrays.names
    probs = propagate_probabilities(netlist, input_probs, default_probability)
    waves: Dict[str, GlitchWaveform] = {}
    for net in names[:arrays.n_sources]:
        activity = (input_activities or {}).get(net, default_activity)
        waves[net] = source_waveform(probs[net], activity)
    # Every gate takes its place now: the order of ``waves`` is the
    # topological order, which the estimator's totals sum in.
    for net in names[arrays.n_sources:]:
        waves[net] = GlitchWaveform(probs[net], {}, 0)

    for depth, level in enumerate(arrays.by_level[1:], 1):
        arity = arrays.arity[level]
        # Arities in order of first appearance, as the level's gates.
        _, first = np.unique(arity, return_index=True)
        for n_inputs in arity[np.sort(first)].tolist():
            nets = [names[arrays.n_sources + g]
                    for g in level[arity == n_inputs].tolist()]
            gates = [netlist.gates[net] for net in nets]
            if n_inputs > MAX_EXACT_INPUTS:
                for net, gate in zip(nets, gates):
                    waves[net] = _wide_gate_waveform(
                        gate, [waves[name] for name in gate.inputs],
                        probs[net],
                    )
                continue
            rows: Dict[Tuple[str, ...], int] = {}
            job_row = [
                rows.setdefault(gate.inputs, len(rows)) for gate in gates
            ]
            leaves = [waves[name] for fanins in rows for name in fanins]
            out_probs = [probs[net] for net in nets]
            result = batch_evaluate(
                n_inputs, [gate.table.bits for gate in gates], job_row,
                [wave.probability for wave in leaves],
                [len(wave.steps) for wave in leaves],
                [t for wave in leaves for t in wave.steps],
                [s for wave in leaves for s in wave.steps.values()],
            )
            ptr, times, raws = (array.tolist() for array in result)
            for net, out_prob, lo, hi in zip(nets, out_probs, ptr, ptr[1:]):
                waves[net] = GlitchWaveform(
                    out_prob,
                    clamped_steps(out_prob, times[lo:hi], raws[lo:hi]),
                    depth,
                )
    return waves


def _wide_gate_waveform(
    gate,
    fanin_waves: List[GlitchWaveform],
    out_prob: float,
) -> GlitchWaveform:
    """Fallback for gates too wide for the exact pair computation."""
    totals = [wave.total() for wave in fanin_waves]
    fanin_probs = [wave.probability for wave in fanin_waves]
    activity = najm_density(gate.table, fanin_probs, totals)
    activity = clamp_activity(out_prob, activity)
    depth = 1 + max(wave.depth for wave in fanin_waves)
    steps = {depth: activity} if activity > 0.0 else {}
    return GlitchWaveform(out_prob, steps, depth)


# ---------------------------------------------------------------------------
# The batched glitch-step kernel.
# ---------------------------------------------------------------------------


class GlitchSteps(NamedTuple):
    """Per job ``j``: entries ``ptr[j]:ptr[j + 1]`` of ``time`` (trigger
    time + 1, ascending) and ``raw`` (the unclamped activity)."""

    ptr: np.ndarray
    time: np.ndarray
    raw: np.ndarray


#: Per ``(n_inputs, bits)``: flat indices of the "output differs" pairs
#: of the ``2**n x 2**n`` joint matrix.
_TABLE_EVAL: Dict[Tuple[int, int], np.ndarray] = {}


def _differs_index(n: int, bits: int) -> np.ndarray:
    cached = _TABLE_EVAL.get((n, bits))
    if cached is None:
        column = np.array(TruthTable(n, bits).output_column())
        cached = np.flatnonzero(column[:, None] != column[None, :])
        _TABLE_EVAL[(n, bits)] = cached
    return cached


def batch_evaluate(
    n: int,
    bits: Sequence[int],
    job_row: Sequence[int],
    probs: Sequence[float],
    counts: Sequence[int],
    times: Sequence[int],
    acts: Sequence[float],
) -> GlitchSteps:
    """The glitch step of many ``n``-input gates (*jobs*) at once.

    Job ``j`` is table ``bits[j]`` over row ``job_row[j]`` of leaf
    statistics. Leaf ``i`` of row ``r`` has probability
    ``probs[r * n + i]`` and the next ``counts[r * n + i]`` of the
    ``(times, acts)`` steps, ascending in time. Like the reference,
    refuses ``n`` above :data:`MAX_EXACT_INPUTS` (``EstimationError``)
    once a leaf has a step.
    """
    n_jobs = len(bits)
    times = np.asarray(times, dtype=np.int64)
    if not len(times):
        return GlitchSteps(
            np.zeros(n_jobs + 1, dtype=np.int64), times, np.zeros(0)
        )
    if n > MAX_EXACT_INPUTS:
        raise EstimationError(
            f"exact pair computation limited to {MAX_EXACT_INPUTS} inputs"
        )
    n_rows = len(counts) // n
    row, position = np.divmod(np.repeat(np.arange(n_rows * n), counts), n)
    # One evaluation *unit* per (row, trigger time), numbered row-major
    # and ascending in time by an occupancy map (times are small ints).
    span = int(times.max()) + 1
    step_key = row * span + times
    occupied = np.zeros(n_rows * span, dtype=bool)
    occupied[step_key] = True
    keys = occupied.nonzero()[0]
    n_units = len(keys)
    unit_row = keys // span
    n_triggers = np.bincount(unit_row, minlength=n_rows)
    first_unit = np.cumsum(n_triggers) - n_triggers

    # Per (leaf, unit): the step activity, 0 (for which the pair law
    # is the held law) without a step; units run along the last axis.
    s_t = np.zeros((n, n_units))
    s_t[position, (np.cumsum(occupied) - 1)[step_key]] = acts
    p = np.asarray(probs, dtype=np.float64).reshape(n_rows, n).T[:, unit_row]
    # clamp_activity, then pair_distribution's [[(1 - p) - h, h], [h,
    # p - h]] with h = s / 2, in the reference's exact expressions.
    half = np.minimum(np.maximum(s_t, 0.0), 2.0 * np.minimum(p, 1.0 - p))
    half /= 2.0
    laws = np.empty((n, 2, 2, n_units))
    laws[:, 0, 0] = (1.0 - p) - half
    laws[:, 0, 1] = half
    laws[:, 1, 0] = half
    laws[:, 1, 1] = p - half
    # The Kronecker product, left-associated in input order as the
    # reference's ``ones *= J_0 ... *= J_{n-1}``; leaf i is bit i.
    matrices = laws[0]
    width = 2
    for leaf in range(1, n):
        matrices = (
            matrices.reshape(1, width, 1, width, n_units)
            * laws[leaf][:, None, :, None, :]
        ).reshape(2 * width, 2 * width, n_units)
        width *= 2
    flat = matrices.reshape(-1)

    # Per output step: its job, its position in the job and its unit.
    job_row = np.asarray(job_row, dtype=np.int64)
    steps_of = n_triggers[job_row]
    ptr = np.zeros(n_jobs + 1, dtype=np.int64)
    np.cumsum(steps_of, out=ptr[1:])
    job = np.repeat(np.arange(n_jobs), steps_of)
    column = np.arange(len(job)) - ptr[job]
    unit = first_unit[job_row[job]] + column
    # The steps of the jobs with one count of "output differs" pairs
    # gather their elements into one C-contiguous array (``take``
    # returns one; the guard keeps that a contract), reduced in one call.
    differs = [_differs_index(n, b) for b in bits]
    sizes = np.array([len(index) for index in differs])
    raw = np.empty(len(job))
    for size in set(sizes.tolist()):
        members = sizes == size
        at = members[job]
        picks = np.array([d for d, m in zip(differs, members) if m]) * n_units
        picks = picks[(np.cumsum(members) - 1)[job[at]]]
        picks += unit[at, None]
        picked = np.ascontiguousarray(flat.take(picks))
        raw[at] = np.add.reduce(picked, axis=-1)

    return GlitchSteps(ptr, keys[unit] % span + 1, raw)


def clamped_totals(
    steps: GlitchSteps, out_prob: Sequence[float]
) -> np.ndarray:
    """Per job, the total of its :func:`clamped_steps`: one step column
    at a time in ascending time, as the reference ``sum()`` adds them."""
    out_prob = np.asarray(out_prob, dtype=np.float64)
    counts = np.diff(steps.ptr)
    job = np.repeat(np.arange(len(counts)), counts)
    bound = 2.0 * np.minimum(out_prob, 1.0 - out_prob)
    padded = np.zeros((len(counts), int(counts.max(initial=0)) + 1))
    padded[job, np.arange(len(job)) - steps.ptr[job]] = np.where(
        steps.raw > 0.0, np.minimum(steps.raw, bound[job]), 0.0
    )
    return np.add.accumulate(padded, axis=1)[:, -1]

"""The per-gate glitch propagation, the oracle of the batched one.

:func:`propagate_waveforms_reference` is the seed's
``repro.activity.glitch.propagate_waveforms``, verbatim: one
:func:`~repro.activity.transition.mixed_joint_matrix` per gate and
trigger time, summed over the "output differs" pairs. The shipped
function evaluates the same step through the batched kernel
(:func:`repro.activity.glitch.batch_evaluate`) and must agree with this
one to the bit.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.activity.glitch import (
    DEFAULT_INPUT_ACTIVITY,
    GlitchWaveform,
    _wide_gate_waveform,
    source_waveform,
)
from repro.activity.probability import (
    DEFAULT_INPUT_PROBABILITY,
    propagate_probabilities,
)
from repro.activity.transition import (
    MAX_EXACT_INPUTS,
    clamp_activity,
    held_distribution,
    mixed_joint_matrix,
    pair_distribution,
)
from repro.netlist.gates import Netlist


def propagate_waveforms_reference(
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
    """
    probs = propagate_probabilities(netlist, input_probs, default_probability)
    waves: Dict[str, GlitchWaveform] = {}
    for net in list(netlist.inputs) + list(netlist.latches):
        activity = (input_activities or {}).get(net, default_activity)
        waves[net] = source_waveform(probs[net], activity)

    for net in netlist.topological_order():
        gate = netlist.gates[net]
        out_prob = probs[net]
        if not gate.inputs:
            waves[net] = GlitchWaveform(out_prob, {}, 0)
            continue
        fanin_waves = [waves[name] for name in gate.inputs]
        depth = 1 + max(wave.depth for wave in fanin_waves)
        if gate.table.n_inputs > MAX_EXACT_INPUTS:
            waves[net] = _wide_gate_waveform(gate, fanin_waves, out_prob)
            continue
        steps: Dict[int, float] = {}
        trigger_times = sorted(
            {t for wave in fanin_waves for t in wave.steps}
        )
        column = np.array(gate.table.output_column(), dtype=np.float64)
        differs = column[:, None] != column[None, :]
        for t in trigger_times:
            joints = []
            for wave in fanin_waves:
                s_t = wave.steps.get(t, 0.0)
                if s_t > 0.0:
                    s_t = clamp_activity(wave.probability, s_t)
                    joints.append(pair_distribution(wave.probability, s_t))
                else:
                    joints.append(held_distribution(wave.probability))
            matrix = mixed_joint_matrix(gate.table.n_inputs, joints)
            activity = float(matrix[differs].sum())
            if activity > 0.0:
                steps[t + 1] = clamp_activity(out_prob, activity)
        waves[net] = GlitchWaveform(out_prob, steps, depth)
    return waves

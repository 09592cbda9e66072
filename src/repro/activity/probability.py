"""Signal probability propagation.

The signal probability ``P(y)`` of a net is the fraction of time it is
logic 1 (Najm [17]). Under the standard fanin-independence assumption
the probability of a gate output is an exact sum over minterms; this is
the "weighted averaging" style of computation of Krishnamurthy-Tollis
[12] used by the paper's estimator for every K-input cut.

Primary inputs are assumed to have ``P = 0.5`` unless told otherwise,
exactly as in the paper ("Primary inputs are assumed to have signal
probabilities and switching activities of 0.5").
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.netlist.gates import Netlist, TruthTable

#: Default probability for primary inputs and register outputs.
DEFAULT_INPUT_PROBABILITY = 0.5


def _check_probability(value: float, what: str) -> float:
    if not 0.0 <= value <= 1.0:
        raise EstimationError(f"{what} out of range [0,1]: {value}")
    return float(value)


def minterm_probabilities(
    n_inputs: int, probs: Sequence[float]
) -> np.ndarray:
    """Probability of each of the ``2**n`` input combinations.

    ``probs[i]`` is the probability input ``i`` is 1; inputs are assumed
    independent. Combination ``c`` uses input ``i``'s value from bit
    ``i`` of ``c``.
    """
    if len(probs) != n_inputs:
        raise EstimationError(
            f"expected {n_inputs} probabilities, got {len(probs)}"
        )
    result = np.ones(1 << n_inputs, dtype=np.float64)
    for i, p in enumerate(probs):
        p = _check_probability(p, f"input {i} probability")
        bit = (np.arange(1 << n_inputs) >> i) & 1
        result *= np.where(bit == 1, p, 1.0 - p)
    return result


def gate_output_probability(
    table: TruthTable, probs: Sequence[float]
) -> float:
    """``P(out)`` of a gate given independent input probabilities.

    The dot product of non-negative terms can round past 1.0 (never
    below 0.0), so it is capped there.
    """
    weights = minterm_probabilities(table.n_inputs, probs)
    column = np.array(table.output_column(), dtype=np.float64)
    return min(1.0, float(np.dot(weights, column)))


def propagate_probabilities(
    netlist: Netlist,
    input_probs: Optional[Mapping[str, float]] = None,
    default: float = DEFAULT_INPUT_PROBABILITY,
) -> Dict[str, float]:
    """Signal probability for every net of ``netlist``.

    ``input_probs`` overrides individual sources (primary inputs or
    latch outputs); everything else defaults to ``default``. Gate
    outputs are computed in topological order under the independence
    assumption, once per distinct ``(table, fanin probabilities)``.
    """
    _check_probability(default, "default probability")
    memo: Dict[tuple, float] = {}
    probs: Dict[str, float] = {}
    for net in netlist.inputs:
        probs[net] = _check_probability(
            (input_probs or {}).get(net, default), f"P({net})"
        )
    for net in netlist.latches:
        probs[net] = _check_probability(
            (input_probs or {}).get(net, default), f"P({net})"
        )
    for net in netlist.topological_order():
        gate = netlist.gates[net]
        fanin = tuple(probs[name] for name in gate.inputs)
        key = (gate.table.bits, gate.table.n_inputs, fanin)
        value = memo.get(key)
        if value is None:
            value = memo[key] = gate_output_probability(gate.table, fanin)
        probs[net] = value
    return probs

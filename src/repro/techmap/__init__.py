"""FPGA technology mapping (GlitchMap [6] reimplementation).

K-feasible cut enumeration with dominance pruning (Cong-Wu-Ding [8])
and a glitch-aware low-power LUT mapper that selects, per node, the cut
with the lowest effective switching activity under the unit-delay model
of Section 4. The mapper is the connection between the high-level
binding and the gate level: the paper's dynamic power estimation "is
accomplished using a low-power FPGA technology mapper [6]".

Two implementations share the algorithm (see docs/techmap.md): the
compiled fast path (:mod:`repro.techmap.compile` — interned net ids,
array cut sets with carried truth tables, NPN-keyed cone memoization,
batched numpy evaluation) and the seed mapper, kept verbatim as
:func:`repro.techmap.mapper._map_reference`, the differential-testing
oracle. ``effort="exhaustive"`` lifts the per-node evaluation budget.
"""

from repro.techmap.compile import (
    ConeMemo,
    enumerate_cuts_ids,
    npn_key,
)
from repro.techmap.cuts import Cut, cone_function, enumerate_cuts
from repro.techmap.mapper import (
    MAP_EFFORTS,
    MapResult,
    map_netlist,
)

__all__ = [
    "ConeMemo",
    "Cut",
    "MAP_EFFORTS",
    "MapResult",
    "cone_function",
    "enumerate_cuts",
    "enumerate_cuts_ids",
    "map_netlist",
    "npn_key",
]

"""Critical-path timing (the Quartus timing-analysis substitute).

The clock period is derived from the mapped netlist's critical path:
register overhead plus one LUT + routing delay per logic level. The
paper's Table 3 reports clock periods of 20-27 ns for these designs on
Cyclone II; the default device model lands in the same range for
comparable depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.fpga.device import CYCLONE_II_LIKE, DeviceModel
from repro.netlist.compile import net_arrays
from repro.netlist.gates import Netlist
from repro.techmap.mapper import MapResult


@dataclass
class TimingReport:
    """Critical path of one mapped design."""

    depth_levels: int
    clock_period_ns: float

    @property
    def fmax_mhz(self) -> float:
        return 1e3 / self.clock_period_ns


def timing_report(
    mapped: Union[MapResult, Netlist], device: DeviceModel = CYCLONE_II_LIKE
) -> TimingReport:
    """Clock period of a mapped netlist under ``device``'s delays.

    A :class:`MapResult` already knows its LUT depth; a bare netlist
    is levelized here.
    """
    if isinstance(mapped, MapResult):
        depth = mapped.depth
    else:
        depth = int(net_arrays(mapped).level.max(initial=0))
    return TimingReport(depth, device.clock_period_ns(depth))

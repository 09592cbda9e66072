"""Virtual Cyclone II flow (the Quartus II / PowerPlay substitute).

The paper verifies bindings by synthesizing VHDL with Quartus II for a
Cyclone II device, simulating 1000 random vectors, and reading dynamic
power from the PowerPlay analyzer. This subpackage is the reproduction
of that measurement harness (see DESIGN.md, substitution table):

* :mod:`~repro.fpga.device` — Cyclone II-like device constants;
* :mod:`~repro.fpga.elaborate` — datapath to flat gate netlist;
* :mod:`~repro.fpga.vectors` — random stimulus (the ``.vwf`` stand-in);
* :mod:`~repro.fpga.simulate` — exact unit-delay gate/LUT simulation
  counting every transition, functional and glitch;
* :mod:`~repro.fpga.timing` — critical path / clock period;
* :mod:`~repro.fpga.power` — the PowerPlay-like dynamic power model.
"""

from repro.fpga.device import CYCLONE_II_LIKE, DeviceModel
from repro.fpga.elaborate import ElaboratedDesign, elaborate_datapath
from repro.fpga.compile import (
    elaborate_datapath_fast,
    elaborate_design,
)
from repro.fpga.vectors import (
    VectorSet,
    pack_values,
    random_vectors,
    unpack_lane_values,
    unpack_values,
)
from repro.fpga.simulate import (
    BatchConfig,
    CompiledNetlist,
    SimulationResult,
    compile_netlist,
    simulate_batch,
    simulate_design,
)
from repro.fpga.timing import TimingReport, timing_report
from repro.fpga.power import PowerReport, power_report

__all__ = [
    "CYCLONE_II_LIKE",
    "DeviceModel",
    "ElaboratedDesign",
    "elaborate_datapath",
    "elaborate_datapath_fast",
    "elaborate_design",
    "VectorSet",
    "pack_values",
    "random_vectors",
    "unpack_lane_values",
    "unpack_values",
    "BatchConfig",
    "CompiledNetlist",
    "SimulationResult",
    "compile_netlist",
    "simulate_batch",
    "simulate_design",
    "TimingReport",
    "timing_report",
    "PowerReport",
    "power_report",
]

"""One-call high-level synthesis driver (the paper's future work).

"Future work will include integrating HLPower into a complete
high-level synthesis algorithm that includes scheduling" — this module
is that integration: a single :func:`synthesize` call takes a raw
(unscheduled) CDFG plus either a resource constraint or a latency
target, runs scheduling (list or force-directed), register binding,
HLPower (or the baseline), optional port optimization, and hands back
the bound solution, datapath and VHDL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.errors import ConfigError
from repro.binding import SATable, assign_ports, bind_registers
from repro.binding.base import BindingSolution
from repro.flow.knobs import KNOBS
from repro.flow.pipeline import run_binder
from repro.binding.portopt import optimize_ports
from repro.cdfg.graph import CDFG
from repro.cdfg.schedule import Schedule
from repro.rtl import Datapath, build_datapath, emit_vhdl, mux_report
from repro.rtl.metrics import MuxReport
from repro.scheduling import force_directed_schedule, list_schedule


@dataclass
class HLSConfig:
    """Settings for the integrated flow."""

    #: "list" (resource-constrained) or "force" (latency-constrained).
    scheduler: str = KNOBS["scheduler"].default
    #: Latency target for the force-directed scheduler (None = critical
    #: path).
    latency: Optional[int] = None
    binder: str = "hlpower"
    alpha: float = KNOBS["alpha"].default
    optimize_port_assignment: bool = True
    width: int = KNOBS["width"].default
    sa_table: Optional[SATable] = None
    latencies: Optional[Mapping[str, int]] = None
    #: MCTS binder knobs (ignored by the other binders).
    mcts_budget: int = KNOBS["mcts_budget"].default
    mcts_seed: int = KNOBS["mcts_seed"].default


@dataclass
class HLSResult:
    """Everything the integrated flow produces."""

    schedule: Schedule
    solution: BindingSolution
    datapath: Datapath
    muxes: MuxReport
    vhdl: str
    port_flips: int = 0

    @property
    def allocation(self) -> Dict[str, int]:
        return self.solution.fus.allocation()


def synthesize(
    cdfg: CDFG,
    constraints: Optional[Mapping[str, int]] = None,
    config: Optional[HLSConfig] = None,
    entity: str = "design",
) -> HLSResult:
    """Schedule, bind, and emit RTL for ``cdfg`` in one call.

    With the list scheduler, ``constraints`` are required and drive the
    schedule. With the force-directed scheduler, ``constraints``
    default to the balanced schedule's own lower bound — the minimum
    allocation Theorem 1 guarantees HLPower can reach.
    """
    cfg = config or HLSConfig()
    cdfg.validate()

    if cfg.scheduler == "list":
        if constraints is None:
            raise ConfigError("the list scheduler needs resource constraints")
        schedule = list_schedule(cdfg, constraints, cfg.latencies)
    elif cfg.scheduler == "force":
        schedule = force_directed_schedule(cdfg, cfg.latency, cfg.latencies)
        if constraints is None:
            constraints = schedule.min_resources()
    else:
        raise ConfigError(f"unknown scheduler {cfg.scheduler!r}")

    registers = bind_registers(schedule)
    ports = assign_ports(cdfg)
    # Same dispatch the flow pipeline's bind stage uses, so the
    # integrated flow and the measurement flow cannot drift apart.
    solution = run_binder(
        cfg.binder, schedule, constraints, registers, ports,
        alpha=cfg.alpha, sa_table=cfg.sa_table,
        mcts_budget=cfg.mcts_budget, mcts_seed=cfg.mcts_seed,
    )

    flips = 0
    if cfg.optimize_port_assignment:
        solution, flips = optimize_ports(solution)

    datapath = build_datapath(solution, cfg.width)
    return HLSResult(
        schedule=schedule,
        solution=solution,
        datapath=datapath,
        muxes=mux_report(solution),
        vhdl=emit_vhdl(datapath, entity),
        port_flips=flips,
    )

"""The end-to-end flow (Section 6.1's experimental pipeline).

One :func:`run_flow` call reproduces, for one benchmark and one binder,
everything the paper extracts from Quartus II: dynamic power, clock
period, LUT count, multiplexer statistics, and the average toggle
rate. :func:`compare_binders` runs LOPASS and HLPower on *identical*
schedules, register bindings and port assignments — the paper's
methodology — and returns both results.

Both are thin drivers over the staged pipeline
(:mod:`repro.flow.pipeline`): the chain bind → datapath → elaborate →
techmap → timing → vectors → simulate → power runs stage by stage,
each stage content-fingerprinted into an
:class:`~repro.flow.cache.ArtifactCache` so repeated runs that share a
prefix (same binder and mapping, different simulation knobs) reuse the
expensive bound-and-mapped artifacts. :func:`run_estimate` is the
partial-flow entry point: it stops after tech-map/timing and reports
the Equation-(3) switching-activity estimate without ever invoking the
simulator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.binding import (
    BindingSolution,
    PortAssignment,
    RegisterBinding,
    SATable,
    assign_ports,
    bind_registers,
)
from repro.cdfg.schedule import Schedule
from repro.flow.cache import ArtifactCache, Encoded
from repro.flow.knobs import CONFIG_KNOBS, check_knob, knob_fields
from repro.flow.pipeline import (
    ESTIMATE_STAGES,
    Binder,
    Pipeline,
    batch_simulate_pipelines,
)
from repro.fpga.elaborate import ElaboratedDesign
from repro.fpga.power import PowerReport
from repro.fpga.simulate import SimulationResult
from repro.fpga.timing import TimingReport
from repro.rtl.controller import build_controller
from repro.rtl.datapath import Datapath
from repro.rtl.metrics import MuxReport, mux_report
from repro.techmap import MapResult

@dataclass
@knob_fields(*((k.name, k.type, k.default) for k in CONFIG_KNOBS))
class FlowConfig:
    """Knobs of the measurement flow: one field per ``config`` row of
    :data:`~repro.flow.knobs.KNOBS` (type, default, check and the
    stages reading it are documented there).

    Validated eagerly on construction: every field goes through
    :func:`~repro.flow.knobs.check_knob`, so a bad value raises
    :class:`~repro.errors.ConfigError` (a ``ValueError``) here instead
    of failing deep inside the flow.
    """

    def __post_init__(self) -> None:
        for knob in CONFIG_KNOBS:
            check_knob(knob.name, getattr(self, knob.name))


@dataclass
class FlowResult:
    """Everything measured for one (benchmark, binder) pair."""

    solution: BindingSolution
    datapath: Datapath
    design: ElaboratedDesign
    mapping: MapResult
    muxes: MuxReport
    timing: TimingReport
    simulation: SimulationResult
    power: PowerReport
    area_luts: int
    controller_luts: int
    runtime_s: float
    #: Per-stage wall clock of this run (cache hits included, at the
    #: cost of the lookup). Excluded from :meth:`metrics`.
    stage_timings: Dict[str, float] = field(default_factory=dict)
    #: Pipeline stages served from the artifact cache.
    cache_hits: List[str] = field(default_factory=list)

    @property
    def estimated_sa(self) -> float:
        """The Equation-(3) estimate for the whole mapped design."""
        return self.mapping.total_sa

    def metrics(self) -> Dict[str, float]:
        """Flat, JSON-serializable summary of everything measured.

        This is the per-cell record of the sweep engine and is fully
        deterministic for a given flow input — wall-clock
        (:attr:`runtime_s`, :attr:`stage_timings`) is deliberately
        excluded so records from parallel, serial, cached and cold
        runs compare byte-identically.
        """
        return {
            "dynamic_power_mw": self.power.dynamic_power_mw,
            "comb_power_mw": self.power.comb_power_mw,
            "register_power_mw": self.power.register_power_mw,
            "io_power_mw": self.power.io_power_mw,
            "toggle_rate_mhz": self.power.toggle_rate_mhz,
            "total_toggles": self.power.total_toggles,
            "clock_period_ns": self.timing.clock_period_ns,
            "depth_levels": self.timing.depth_levels,
            "area_luts": self.area_luts,
            "datapath_luts": self.mapping.area,
            "controller_luts": self.controller_luts,
            "largest_mux": self.muxes.largest_mux,
            "mux_length": self.muxes.mux_length,
            "fu_mux_length": self.muxes.fu_mux_length,
            "mux_diff_mean": self.muxes.mux_diff_mean,
            "mux_diff_sum": sum(self.muxes.mux_diffs),
            "n_registers": self.solution.registers.n_registers,
            "estimated_sa": self.mapping.total_sa,
            "glitch_fraction": self.mapping.glitch_fraction,
        }


@dataclass
class EstimateResult:
    """The estimate-only (no simulation) flow's product.

    Everything here comes from the bind → map → timing prefix of the
    pipeline: the Equation-(3) switching-activity estimate, the mapped
    area, and the structural mux/register statistics. No vectors are
    drawn and the simulator never runs.
    """

    solution: BindingSolution
    datapath: Datapath
    design: ElaboratedDesign
    mapping: MapResult
    muxes: MuxReport
    timing: TimingReport
    area_luts: int
    controller_luts: int
    runtime_s: float
    stage_timings: Dict[str, float] = field(default_factory=dict)
    cache_hits: List[str] = field(default_factory=list)

    @property
    def estimated_sa(self) -> float:
        """The Equation-(3) estimate for the whole mapped design."""
        return self.mapping.total_sa

    def metrics(self) -> Dict[str, float]:
        """Deterministic flat record (the estimate-sweep cell)."""
        return {
            "estimated_sa": self.mapping.total_sa,
            "functional_sa": self.mapping.functional_sa,
            "glitch_sa": self.mapping.glitch_sa,
            "glitch_fraction": self.mapping.glitch_fraction,
            "clock_period_ns": self.timing.clock_period_ns,
            "depth_levels": self.timing.depth_levels,
            "area_luts": self.area_luts,
            "datapath_luts": self.mapping.area,
            "controller_luts": self.controller_luts,
            "largest_mux": self.muxes.largest_mux,
            "mux_length": self.muxes.mux_length,
            "fu_mux_length": self.muxes.fu_mux_length,
            "mux_diff_mean": self.muxes.mux_diff_mean,
            "mux_diff_sum": sum(self.muxes.mux_diffs),
            "n_registers": self.solution.registers.n_registers,
        }


def prepare_flow_inputs(
    schedule: Schedule,
) -> Tuple[RegisterBinding, PortAssignment]:
    """Register binding and port assignment shared across binders.

    Both are functions of the schedule alone — the paper's methodology
    compares binders on *identical* registers and ports — so the sweep
    engine computes them once per (benchmark, scheduler) cell and every
    binder/alpha/seed job reuses them.
    """
    return bind_registers(schedule), assign_ports(schedule.cdfg)


def build_pipeline(
    schedule: Schedule,
    constraints: Mapping[str, int],
    binder: Binder = "hlpower",
    config: Optional[FlowConfig] = None,
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
    cache: Optional[ArtifactCache] = None,
    input_token: Optional[Encoded] = None,
) -> Pipeline:
    """Assemble a :class:`Pipeline`, deriving missing registers/ports.

    ``input_token`` is :func:`~repro.flow.cache.encode` of
    :func:`~repro.flow.pipeline.flow_input_token` over these inputs,
    for callers that hold them unchanged across many flows (the
    executor encodes once per elaboration-memo entry). Without it the
    pipeline encodes the inputs itself: they may have been mutated
    since any earlier call.
    """
    cfg = config or FlowConfig()
    if registers is None:
        registers = bind_registers(schedule)
    if ports is None:
        ports = assign_ports(schedule.cdfg)
    return Pipeline(schedule, constraints, binder, cfg, registers, ports,
                    cache, input_token)


def _controller_luts(pipe: Pipeline) -> int:
    controller = pipe.derived(
        "controller", ("datapath",),
        lambda: build_controller(pipe.artifact("datapath")),
    )
    return controller.estimated_luts(pipe.cfg.k)


def _muxes(pipe: Pipeline) -> MuxReport:
    return pipe.derived("mux-report", ("bind",),
                        lambda: mux_report(pipe.artifact("bind")))


def run_flow(
    schedule: Schedule,
    constraints: Mapping[str, int],
    binder: Binder = "hlpower",
    config: Optional[FlowConfig] = None,
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
    cache: Optional[ArtifactCache] = None,
    input_token: Optional[Encoded] = None,
) -> FlowResult:
    """Bind, build, map, simulate, and measure one design.

    Pass a shared ``cache`` to reuse stage artifacts across calls;
    results are byte-identical with and without one.
    """
    return flow_result(build_pipeline(
        schedule, constraints, binder, config, registers, ports, cache,
        input_token,
    ))


def flow_result(pipe: Pipeline) -> FlowResult:
    """The full flow's result over ``pipe``, reusing (and counting in
    ``runtime_s``) the stages it already holds, e.g. from a batched
    simulate pass over many pipelines."""
    started = time.perf_counter() - sum(pipe.timings.values())
    if pipe.cfg.flow == "estimate":
        raise ConfigError(
            "run_flow executes the full flow; use run_estimate for "
            "FlowConfig(flow='estimate')"
        )
    solution = pipe.artifact("bind")
    mapped = pipe.artifact("techmap")
    timing = pipe.artifact("timing")
    simulation = pipe.artifact("simulate").result
    power = pipe.artifact("power")
    controller_luts = _controller_luts(pipe)

    return FlowResult(
        solution=solution,
        datapath=pipe.artifact("datapath"),
        design=mapped.design,
        mapping=mapped.mapping,
        muxes=_muxes(pipe),
        timing=timing,
        simulation=simulation,
        power=power,
        area_luts=mapped.mapping.area + controller_luts,
        controller_luts=controller_luts,
        runtime_s=time.perf_counter() - started,
        stage_timings=dict(pipe.timings),
        cache_hits=pipe.hit_stages,
    )


def run_estimate(
    schedule: Schedule,
    constraints: Mapping[str, int],
    binder: Binder = "hlpower",
    config: Optional[FlowConfig] = None,
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
    cache: Optional[ArtifactCache] = None,
    input_token: Optional[Encoded] = None,
) -> EstimateResult:
    """The estimate-only partial flow: stop after tech-map/timing.

    Reports the Equation-(3) switching-activity and area numbers
    without drawing vectors or invoking the simulator — the cheap
    screening entry point for wide sweeps (``repro estimate``,
    ``repro sweep --flow estimate``).
    """
    return estimate_result(build_pipeline(
        schedule, constraints, binder, config, registers, ports, cache,
        input_token,
    ))


def estimate_result(pipe: Pipeline) -> EstimateResult:
    """The estimate flow's result over ``pipe`` (see :func:`flow_result`)."""
    started = time.perf_counter() - sum(pipe.timings.values())
    pipe.run_stages(ESTIMATE_STAGES)
    solution = pipe.artifact("bind")
    mapped = pipe.artifact("techmap")
    controller_luts = _controller_luts(pipe)

    return EstimateResult(
        solution=solution,
        datapath=pipe.artifact("datapath"),
        design=mapped.design,
        mapping=mapped.mapping,
        muxes=_muxes(pipe),
        timing=pipe.artifact("timing"),
        area_luts=mapped.mapping.area + controller_luts,
        controller_luts=controller_luts,
        runtime_s=time.perf_counter() - started,
        stage_timings=dict(pipe.timings),
        cache_hits=pipe.hit_stages,
    )


def execute_flow(
    schedule: Schedule,
    constraints: Mapping[str, int],
    binder: Binder = "hlpower",
    config: Optional[FlowConfig] = None,
    registers: Optional[RegisterBinding] = None,
    ports: Optional[PortAssignment] = None,
    cache: Optional[ArtifactCache] = None,
    input_token: Optional[Encoded] = None,
) -> Union[FlowResult, EstimateResult]:
    """Dispatch on ``config.flow``: the full or the estimate-only flow."""
    cfg = config or FlowConfig()
    runner = run_estimate if cfg.flow == "estimate" else run_flow
    return runner(schedule, constraints, binder, cfg, registers, ports,
                  cache, input_token)


def compare_binders(
    schedule: Schedule,
    constraints: Mapping[str, int],
    config: Optional[FlowConfig] = None,
    binders: Optional[Mapping[str, Binder]] = None,
    cache: Optional[ArtifactCache] = None,
) -> Dict[str, FlowResult]:
    """Run several binders on identical schedule/registers/ports.

    Default comparison is the paper's: ``lopass`` vs ``hlpower``. The
    caller's ``config`` is never mutated; when it carries no SA table
    a fresh one is shared across the compared binders via
    :func:`dataclasses.replace`. The binders' designs simulate together
    in one batched kernel pass (see
    :func:`~repro.flow.pipeline.batch_simulate_pipelines`).
    """
    cfg = config or FlowConfig()
    registers, ports = prepare_flow_inputs(schedule)
    if cfg.sa_table is None:
        cfg = replace(cfg, sa_table=SATable())
    if binders is None:
        binders = {"lopass": "lopass", "hlpower": "hlpower"}
    shared_cache = cache if cache is not None else ArtifactCache()
    pipes = {
        name: build_pipeline(schedule, constraints, binder, cfg, registers,
                             ports, shared_cache)
        for name, binder in binders.items()
    }
    batch_simulate_pipelines(list(pipes.values()))
    return {name: flow_result(pipe) for name, pipe in pipes.items()}

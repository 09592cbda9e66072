"""Flow entry for ingested designs.

External designs join the staged pipeline at the ``elaborate``/
``techmap`` boundary: there is no schedule or binder to run, so a
:class:`DesignPipeline` has three stage rows on the
:class:`~repro.flow.pipeline.Pipeline` engine. Its root ``elaborate``
is addressed by the **canonicalized design text** (see
:func:`repro.ingest.module.canonical_text`) instead of by flow inputs;
its ``techmap`` reads the generator techmap's knob rows, and ``timing``
is the generator's own row. Fingerprints, the shared
:class:`~repro.flow.cache.ArtifactCache`, the mapper's cross-design
ConeMemo and per-stage timing are therefore the generator flow's
machinery, not a copy of it. Stage names and the
:class:`DesignEstimate` metrics schema mirror
:class:`repro.flow.run.EstimateResult`, so sweep cells, reports, the
resident executor and ``repro serve`` handle design jobs unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.flow.cache import ArtifactCache
from repro.flow.pipeline import (
    STAGES,
    MappedDesign,
    Pipeline,
    Stage,
    techmap_netlist,
)
from repro.flow.run import FlowConfig
from repro.fpga.timing import TimingReport
from repro.ingest.bitblast import elaborate_design
from repro.ingest.module import ExternalDesign
from repro.techmap.mapper import MapResult


def _run_techmap(p: "DesignPipeline") -> MappedDesign:
    elaborated = p.artifact("elaborate")
    return MappedDesign(
        mapping=techmap_netlist(p, elaborated.netlist,
                                elaborated.control_nets),
        design=None,
    )


@dataclass
class DesignEstimate:
    """Estimate-flow result for one ingested design.

    ``metrics()`` carries the full
    :meth:`repro.flow.run.EstimateResult.metrics` key set — binding
    -specific fields (mux statistics, controller area) are zero because
    an external design has no binder — so sweep aggregation, report
    columns and serve payloads need no special cases.
    """

    design: str
    mapping: MapResult
    timing: TimingReport
    n_registers: int
    runtime_s: float = 0.0
    stage_timings: Dict[str, float] = field(default_factory=dict)
    cache_hits: List[str] = field(default_factory=list)

    @property
    def estimated_sa(self) -> float:
        return self.mapping.total_sa

    def metrics(self) -> Dict[str, float]:
        return {
            "estimated_sa": self.mapping.total_sa,
            "functional_sa": self.mapping.functional_sa,
            "glitch_sa": self.mapping.glitch_sa,
            "glitch_fraction": self.mapping.glitch_fraction,
            "clock_period_ns": self.timing.clock_period_ns,
            "depth_levels": self.timing.depth_levels,
            "area_luts": self.mapping.area,
            "datapath_luts": self.mapping.area,
            "controller_luts": 0,
            "largest_mux": 0,
            "mux_length": 0,
            "fu_mux_length": 0,
            "mux_diff_mean": 0.0,
            "mux_diff_sum": 0,
            "n_registers": self.n_registers,
        }


class DesignPipeline(Pipeline):
    """The estimate flow of one external design: elaborate → techmap →
    timing on the :class:`~repro.flow.pipeline.Pipeline` engine."""

    stages = {
        stage.name: stage
        for stage in (
            Stage("elaborate", deps=(), config_fields=(),
                  run=lambda p: elaborate_design(p.design),
                  uses_flow_inputs=False,
                  extra=lambda p: ("design", p.design.kind,
                                   p.design.canonical)),
            Stage("techmap", deps=("elaborate",),
                  config_fields=STAGES["techmap"].config_fields,
                  run=_run_techmap),
            STAGES["timing"],
        )
    }

    def __init__(self, design: ExternalDesign,
                 cfg: Optional[FlowConfig] = None,
                 cache: Optional[ArtifactCache] = None):
        self.design = design
        self._start(cfg or FlowConfig(flow="estimate"), cache)

    def result(self) -> DesignEstimate:
        """Run every stage; the estimate read from their artifacts."""
        self.run_stages(INGEST_STAGES)
        return DesignEstimate(
            design=self.design.name,
            mapping=self.artifact("techmap").mapping,
            timing=self.artifact("timing"),
            n_registers=self.artifact("elaborate").n_registers,
            runtime_s=sum(self.timings.values()),
            stage_timings=dict(self.timings),
            cache_hits=self.hit_stages,
        )


#: Stage names reuse the pipeline vocabulary so report ordering
#: (:func:`repro.flow.report.in_stage_order`) applies as-is.
INGEST_STAGES = tuple(DesignPipeline.stages)


def run_design_estimate(
    design: ExternalDesign,
    cfg: Optional[FlowConfig] = None,
    cache: Optional[ArtifactCache] = None,
) -> DesignEstimate:
    """Estimate one external design through elaborate → techmap → timing.

    Deterministic: the result is a pure function of (canonical design
    text, config); the cache only ever substitutes byte-identical
    recomputations, so cold, warm and daemon runs agree exactly.
    """
    return DesignPipeline(design, cfg, cache).result()

"""Flow entry for ingested designs.

External designs join the staged pipeline at the ``elaborate``/
``techmap`` boundary: there is no schedule or binder to run, so the
elaborate artifact is fingerprinted from the **canonicalized design
text** (see :func:`repro.ingest.module.canonical_text`) instead of from
flow inputs, and everything downstream — LUT mapping, timing, the
shared :class:`~repro.flow.cache.ArtifactCache`, the mapper's
cross-design ConeMemo — is the exact machinery the generator flow uses.
Stage names (``elaborate``/``techmap``/``timing``) and the
:class:`DesignEstimate` metrics schema deliberately mirror
:class:`repro.flow.run.EstimateResult`, so sweep cells, reports, the
resident executor and ``repro serve`` handle design jobs unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.flow.cache import ArtifactCache, fingerprint
from repro.flow.pipeline import CACHE_SALT, cone_memo
from repro.flow.run import FlowConfig
from repro.fpga.timing import TimingReport, timing_report
from repro.ingest.bitblast import IngestedDesign, elaborate_design
from repro.ingest.module import ExternalDesign
from repro.techmap.mapper import MapResult, map_netlist

#: Stage names reuse the pipeline vocabulary so report ordering
#: (:func:`repro.flow.report.in_stage_order`) applies as-is.
INGEST_STAGES = ("elaborate", "techmap", "timing")


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


def design_fingerprint(design: ExternalDesign) -> str:
    """Content address of the elaborate artifact for ``design``."""
    return fingerprint(CACHE_SALT, "ingest-elaborate", design.kind,
                       design.canonical)


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
    cfg = cfg or FlowConfig(flow="estimate")
    started = time.perf_counter()
    timings: Dict[str, float] = {}
    hits: List[str] = []

    def artifact(name, digest, compute, persist=True):
        stage_started = time.perf_counter()
        hit = False
        value = None
        if cache is not None:
            hit, value = cache.lookup(digest)
        if not hit:
            value = compute()
            if cache is not None:
                cache.store(digest, value, persist=persist)
        else:
            hits.append(name)
        timings[name] = time.perf_counter() - stage_started
        return value

    elaborate_fp = design_fingerprint(design)
    elaborated: IngestedDesign = artifact(
        "elaborate", elaborate_fp, lambda: elaborate_design(design))

    techmap_fp = fingerprint(CACHE_SALT, "ingest-techmap", elaborate_fp,
                             cfg.k, cfg.control_activity, cfg.map_effort)

    def run_techmap() -> MapResult:
        input_activities = {
            net: cfg.control_activity for net in elaborated.control_nets
        }
        return map_netlist(
            elaborated.netlist,
            k=cfg.k,
            input_activities=input_activities,
            effort=cfg.map_effort,
            cone_memo=cone_memo(cache),
        )

    mapping: MapResult = artifact("techmap", techmap_fp, run_techmap)

    timing_fp = fingerprint(CACHE_SALT, "ingest-timing", techmap_fp,
                            cfg.device)
    timing: TimingReport = artifact(
        "timing", timing_fp,
        lambda: timing_report(mapping, cfg.device))

    return DesignEstimate(
        design=design.name,
        mapping=mapping,
        timing=timing,
        n_registers=elaborated.n_registers,
        runtime_s=time.perf_counter() - started,
        stage_timings=timings,
        cache_hits=hits,
    )

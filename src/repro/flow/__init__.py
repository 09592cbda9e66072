"""End-to-end synthesis + measurement flow.

:mod:`repro.flow.pipeline` is the core: the flow is an explicit stage
graph — bind -> datapath -> elaborate -> techmap -> timing / vectors
-> simulate -> power — whose typed :class:`~repro.flow.pipeline.Stage`
objects declare their inputs and the subset of
:class:`~repro.flow.run.FlowConfig` they read (the rows of the knob
table, :mod:`repro.flow.knobs`, that name them), and store their
artifacts in a content-addressed
:class:`~repro.flow.cache.ArtifactCache` (see docs/architecture.md).

:func:`~repro.flow.run.run_flow` chains the full reproduction pipeline
as a thin driver over those stages: scheduled CDFG -> register binding
-> FU binding (HLPower or the LOPASS baseline) -> datapath ->
gate-level elaboration -> K-LUT mapping -> unit-delay simulation ->
timing and power reports. :func:`~repro.flow.run.run_estimate` is the
partial-flow entry point: it stops after tech-map and reports the
Equation-(3) estimates without invoking the simulator.

The sweep subsystem scales those calls into declarative experiment
grids across three layers: :mod:`repro.flow.grid` is the model
(:class:`~repro.flow.grid.SweepSpec` describes a ``benchmark x binder
x alpha x width x effort x idle x jitter x seed`` grid),
:mod:`repro.flow.executor` is the resident execution layer
(:class:`~repro.flow.executor.FlowExecutor` owns warm worker state —
memoized elaborations, the artifact cache, shared SA-table values —
that survives across submissions), and :mod:`repro.flow.batch` is the
driver (:func:`~repro.flow.batch.run_sweep` expands a spec, submits
it, and collects per-cell records into a JSON-serializable
:class:`~repro.flow.batch.SweepResult`). Cells differing only in
simulation knobs become simulate-only work via the shared cache; the
``repro serve`` daemon (:mod:`repro.serve`) keeps one resident
executor warm across requests.
"""

from repro.flow.cache import ArtifactCache, CacheStats, fingerprint
from repro.flow.executor import ExecutorStats, FlowExecutor, Submission
from repro.flow.pipeline import (
    ESTIMATE_STAGES,
    STAGE_NAMES,
    STAGES,
    MappedDesign,
    Pipeline,
    Stage,
    batch_simulate_pipelines,
    run_binder,
)
from repro.flow.run import (
    EstimateResult,
    FlowConfig,
    FlowResult,
    build_pipeline,
    compare_binders,
    execute_flow,
    prepare_flow_inputs,
    run_estimate,
    run_flow,
)
from repro.flow.batch import (
    BinderConfig,
    SweepCell,
    SweepJob,
    SweepResult,
    SweepSpec,
    expand_grid,
    run_sweep,
)
from repro.flow.report import (
    format_change,
    format_sweep_summary,
    format_table,
    percent_change,
)

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "ExecutorStats",
    "FlowExecutor",
    "Submission",
    "fingerprint",
    "ESTIMATE_STAGES",
    "STAGE_NAMES",
    "STAGES",
    "MappedDesign",
    "Pipeline",
    "Stage",
    "batch_simulate_pipelines",
    "run_binder",
    "EstimateResult",
    "FlowConfig",
    "FlowResult",
    "build_pipeline",
    "compare_binders",
    "execute_flow",
    "prepare_flow_inputs",
    "run_estimate",
    "run_flow",
    "BinderConfig",
    "SweepCell",
    "SweepJob",
    "SweepResult",
    "SweepSpec",
    "expand_grid",
    "run_sweep",
    "format_change",
    "format_sweep_summary",
    "format_table",
    "percent_change",
]

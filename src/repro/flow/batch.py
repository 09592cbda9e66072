"""Sweep driver and result store for the experiment flow.

The paper's results are all grids of the same measurement: every table
and figure is ``benchmark x binder x alpha x seed`` cells of
:func:`~repro.flow.run.run_flow`. The sweep subsystem splits that
shape across three layers:

* :mod:`repro.flow.grid` — the declarative model
  (:class:`SweepSpec` / :func:`expand_grid` / :class:`SweepJob` /
  :class:`SweepCell`), re-exported here for compatibility;
* :mod:`repro.flow.executor` — the resident execution layer: a
  :class:`~repro.flow.executor.FlowExecutor` owns the warm per-worker
  state (elaboration memo, artifact cache, SA-table snapshot, process
  pool) and survives across submissions;
* this module — :func:`run_sweep`, a thin client that expands a spec,
  submits it to an executor, and collects the per-cell records into a
  JSON-serializable :class:`SweepResult`.

By default :func:`run_sweep` builds a **transient** executor per call,
preserving the historical semantics (every sweep starts with fresh
in-process worker state, so only an explicit ``cache_dir`` carries
artifacts across calls). Pass a resident
:class:`~repro.flow.executor.FlowExecutor` via ``executor=`` to reuse
warm memos across many sweeps — that is what the ``repro serve``
daemon does.

Determinism: every per-cell ``metrics`` record is a pure function of
the cell's inputs — SA-table values are themselves deterministic, so
cache state cannot influence binding decisions; the artifact cache
only ever substitutes byte-identical recomputations — and ``jobs=N``
(cached or cold, transient or resident) produces byte-identical
metrics to ``jobs=1``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.binding import SATable
from repro.errors import ConfigError
from repro.flow.executor import DEFAULT_CACHE_ENTRIES, FlowExecutor
from repro.flow.grid import (  # noqa: F401  (compatibility re-exports)
    BinderConfig,
    SweepCell,
    SweepJob,
    SweepSpec,
    expand_grid,
)
from repro.flow.knobs import AXIS_KNOBS
from repro.flow.run import FlowResult


# ---------------------------------------------------------------------------
# Result store.
# ---------------------------------------------------------------------------


def _stdev(values: List[float]) -> float:
    """Sample standard deviation; 0.0 for a single value."""
    return statistics.stdev(values) if len(values) > 1 else 0.0


@dataclass
class SweepResult:
    """Structured store of one sweep's per-cell records and stats."""

    spec: SweepSpec
    cells: List[SweepCell]
    jobs: int
    wall_s: float
    schedule_cache_hits: int
    schedule_cache_misses: int
    sa_precalc_entries: int
    sa_new_entries: int
    #: Pipeline-stage cache traffic summed over all cells.
    stage_cache_hits: int = 0
    stage_cache_misses: int = 0
    #: Batched-simulation dispatch: kernel passes run, cells served by
    #: them, and their total kernel wall clock (see SweepSpec.sim_batch).
    sim_batches: int = 0
    sim_batched_cells: int = 0
    sim_batch_wall_s: float = 0.0
    #: Full FlowResults keyed by cell key; only populated when
    #: ``run_sweep(..., keep_results=True)``.
    results: Dict[Tuple, Any] = field(default_factory=dict, repr=False)

    def cell(self, benchmark: str, config: str, **coords: Any) -> SweepCell:
        """The unique cell matching the given coordinates: keyword
        arguments name grid axes (``width=8``, ``vector_seed=7``, ...);
        an axis left out matches any value."""
        unknown = sorted(set(coords) - {knob.name for knob in AXIS_KNOBS})
        if unknown:
            raise TypeError(
                f"unknown cell coordinate(s) {unknown}; the grid axes are "
                f"{[knob.name for knob in AXIS_KNOBS]}"
            )
        matches = [
            c
            for c in self.cells
            if c.benchmark == benchmark
            and c.config == config
            and all(getattr(c, name) == value
                    for name, value in coords.items())
        ]
        if not matches:
            raise KeyError((benchmark, config, coords))
        if len(matches) > 1:
            raise KeyError(
                f"ambiguous cell {(benchmark, config)}: {len(matches)} "
                f"matches; pass "
                + "/".join(knob.name for knob in AXIS_KNOBS)
            )
        return matches[0]

    def result_of(self, benchmark: str, config: str,
                  **coords: Any) -> FlowResult:
        """The retained FlowResult for a cell (needs keep_results)."""
        return self.results[self.cell(benchmark, config, **coords).key]

    # -- aggregation -------------------------------------------------------

    def aggregates(self) -> List[Dict[str, Any]]:
        """Per-group stats across vector seeds.

        Groups are ``(benchmark, config)`` and every grid axis but the
        averaged one (the vector seed). Full-flow groups report
        mean/stdev dynamic power and toggle rate (the seed-sensitive
        metrics); estimate-flow groups report the Equation-(3)
        switching-activity estimate and glitch fraction instead (keys
        ``sa_mean`` / ``sa_stdev`` / ``glitch_fraction``). Both carry
        the seed-invariant area/mux/clock numbers and the percentage
        change of the primary metric versus the spec's baseline binder
        on the same group coordinates — ``None`` when the sweep
        contains no baseline cells.
        """
        from repro.flow.report import percent_change
        estimate = self.spec.flow == "estimate"
        primary_key = "estimated_sa" if estimate else "dynamic_power_mw"
        axes = [knob.name for knob in AXIS_KNOBS if knob.column]
        groups: Dict[Tuple, List[SweepCell]] = {}
        for cell in self.cells:
            group = (cell.benchmark, cell.config,
                     *(getattr(cell, name) for name in axes))
            groups.setdefault(group, []).append(cell)

        baseline = self.spec.baseline
        baseline_primary: Dict[Tuple, float] = {}
        if baseline and baseline != "none":
            for group, cells in groups.items():
                coords = (group[0],) + group[2:]  # all but the config
                if group[1] == baseline or (
                    cells[0].binder == baseline
                    and coords not in baseline_primary
                ):
                    baseline_primary[coords] = statistics.fmean(
                        c.metrics[primary_key] for c in cells
                    )

        out = []
        for group, cells in groups.items():
            primary = [c.metrics[primary_key] for c in cells]
            base = baseline_primary.get((group[0],) + group[2:])
            mean_primary = statistics.fmean(primary)
            delta = (percent_change(base, mean_primary) if base is not None
                     else None)
            record = {
                "benchmark": group[0],
                "config": group[1],
                **dict(zip(axes, group[2:])),
                "n_seeds": len(cells),
                "area_luts": cells[0].metrics["area_luts"],
                "largest_mux": cells[0].metrics["largest_mux"],
                "clock_period_ns": cells[0].metrics["clock_period_ns"],
                "runtime_s": sum(c.runtime_s for c in cells),
            }
            if estimate:
                record.update(
                    sa_mean=mean_primary,
                    sa_stdev=_stdev(primary),
                    glitch_fraction=statistics.fmean(
                        c.metrics["glitch_fraction"] for c in cells
                    ),
                    d_sa_vs_baseline_pct=delta,
                )
            else:
                rates = [c.metrics["toggle_rate_mhz"] for c in cells]
                record.update(
                    power_mean_mw=mean_primary,
                    power_stdev_mw=_stdev(primary),
                    toggle_rate_mean_mhz=statistics.fmean(rates),
                    toggle_rate_stdev_mhz=_stdev(rates),
                    d_power_vs_baseline_pct=delta,
                )
            out.append(record)
        return out

    def stage_time_totals(self) -> Dict[str, float]:
        """Wall clock per pipeline stage summed over all cells."""
        totals: Dict[str, float] = {}
        for cell in self.cells:
            for stage, seconds in cell.stage_timings.items():
                totals[stage] = totals.get(stage, 0.0) + seconds
        return totals

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            **{name: getattr(self, name) for name in _STATS},
            "stage_time_totals": self.stage_time_totals(),
            "cells": [asdict(cell) for cell in self.cells],
            "aggregates": self.aggregates(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepResult":
        return cls(
            spec=SweepSpec.from_dict(data["spec"]),
            cells=[SweepCell(**cell) for cell in data["cells"]],
            **{name: data[name] for name in _STATS if name in data},
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "SweepResult":
        with open(path) as handle:
            return cls.from_json(handle.read())


#: The run statistics a stored sweep holds besides its spec and cells.
_STATS = tuple(
    f.name for f in fields(SweepResult)
    if f.name not in ("spec", "cells", "results")
)


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    sa_table: Optional[SATable] = None,
    precalc_max_mux: int = 0,
    keep_results: bool = False,
    progress: Optional[Callable[[SweepCell], None]] = None,
    use_cache: bool = True,
    cache_entries: int = DEFAULT_CACHE_ENTRIES,
    cache_dir: Optional[str] = None,
    executor: Optional[FlowExecutor] = None,
) -> SweepResult:
    """Expand ``spec`` and run every cell, ``jobs`` at a time.

    ``jobs=1`` runs everything in-process (no pickling, deterministic,
    what the tests and bench fixtures use); ``jobs>1`` fans out over a
    process pool. Per-cell ``metrics`` are identical either way.

    ``sa_table`` is the shared Section 5.2.2 table; pass a file-backed
    one to persist across sweeps (the caller saves it — typically via
    ``save_if_dirty()`` — exactly once, after the sweep). With
    ``precalc_max_mux > 0`` the table is bulk-filled up to that mux
    size before any job runs, so workers start fully warm.

    ``use_cache`` controls the per-worker pipeline artifact cache
    (``cache_entries`` bounds it; ``cache_dir`` adds a persistent
    on-disk layer shared across worker processes and sweeps). Metrics
    are byte-identical with the cache on or off — ``use_cache=False``
    exists for differential tests and benchmarking the speedup.

    ``keep_results`` retains the full :class:`FlowResult` objects in
    :attr:`SweepResult.results`; it requires ``jobs=1`` (the objects
    are deliberately not shipped across process boundaries).

    ``executor`` submits the sweep to a **resident**
    :class:`~repro.flow.executor.FlowExecutor` instead of a transient
    one, so warm memos carry across calls. The executor then owns all
    execution knobs — passing ``jobs``/``sa_table``/cache arguments
    alongside it is a configuration conflict and raises.
    """
    if executor is not None:
        if (jobs != 1 or sa_table is not None or not use_cache
                or cache_entries != DEFAULT_CACHE_ENTRIES
                or cache_dir is not None):
            raise ConfigError(
                "run_sweep(executor=...) conflicts with jobs/sa_table/"
                "use_cache/cache_entries/cache_dir — the resident "
                "executor owns those knobs"
            )
        if keep_results and executor.jobs > 1:
            raise ConfigError(
                "keep_results requires jobs=1 (in-process mode)"
            )
    else:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if keep_results and jobs > 1:
            raise ConfigError(
                "keep_results requires jobs=1 (in-process mode)"
            )
        if cache_dir is not None and not use_cache:
            raise ConfigError(
                "cache_dir requires use_cache=True (the disk layer lives "
                "inside the artifact cache)"
            )
    started = time.perf_counter()
    job_list = expand_grid(spec)

    transient: Optional[FlowExecutor] = None
    if executor is None:
        table = sa_table if sa_table is not None else SATable()
        transient = FlowExecutor(
            jobs=jobs,
            sa_table=table,
            use_cache=use_cache,
            cache_entries=cache_entries,
            cache_dir=cache_dir,
        )
        executor = transient
    table = executor.sa_table
    precalc_entries = (
        table.precalculate(precalc_max_mux) if precalc_max_mux > 0 else 0
    )

    try:
        submission = executor.run_jobs(
            spec, job_list, keep_results=keep_results, progress=progress,
        )
    finally:
        if transient is not None:
            transient.shutdown()

    cells = submission.cells
    hits = sum(1 for cell in cells if cell.schedule_cache_hit)
    stage_hits = sum(len(cell.cache_hits) for cell in cells)
    stage_total = sum(len(cell.stage_timings) for cell in cells)
    return SweepResult(
        spec=spec,
        cells=cells,
        jobs=executor.jobs,
        wall_s=time.perf_counter() - started,
        schedule_cache_hits=hits,
        schedule_cache_misses=len(cells) - hits,
        sa_precalc_entries=precalc_entries,
        sa_new_entries=submission.sa_new_entries,
        stage_cache_hits=stage_hits,
        stage_cache_misses=stage_total - stage_hits,
        sim_batches=submission.sim_batches,
        sim_batched_cells=submission.sim_batched_cells,
        sim_batch_wall_s=submission.sim_batch_wall_s,
        results=submission.results,
    )

"""The declarative sweep-grid model.

This module is the pure data layer under the sweep engine: a
:class:`SweepSpec` describes one experiment grid (benchmarks, binder
configurations, widths, effort/simulation axes, seeds, shared
flow knobs), :func:`expand_grid` expands it into concrete
:class:`SweepJob` cells, and :class:`SweepCell` is the record one job
produces. Execution lives in :mod:`repro.flow.executor` (the resident
worker-pool layer) and :mod:`repro.flow.batch` (the ``run_sweep``
driver and result store); the ``repro serve`` daemon builds
single-cell grids out of HTTP requests through the same model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.binding import BINDER_NAMES
from repro.cdfg import benchmark_spec
from repro.errors import ConfigError
from repro.flow.knobs import (
    AXIS_KNOBS,
    DESIGN_STAGES,
    NESTED_AXES,
    SWEEP_KNOBS,
    Knob,
    check_knob,
    full_flow_only,
    knob_fields,
    read_only_by,
)


@dataclass(frozen=True)
class BinderConfig:
    """One binder column of the grid.

    ``label`` names the column in records and reports ("lopass",
    "hlpower_a05", ...); ``alpha`` is Equation (4)'s weight and is
    ignored by binders that do not consume it (LOPASS).
    """

    label: str
    binder: str
    alpha: float = 0.5


def _sweep_fields():
    """SweepSpec's knob fields: a scalar per ``scalar`` row, a tuple
    per ``axis`` row (None when the scalar field doubles as its
    one-value default)."""
    for knob in SWEEP_KNOBS:
        if knob.scalar:
            yield knob.name, knob.type, knob.default
        if knob.axis:
            yield knob.axis, tuple, None if knob.scalar else (knob.default,)


@dataclass
@knob_fields(*_sweep_fields())
class SweepSpec:
    """Declarative description of one experiment grid.

    The grid is the cross product of ``benchmarks``, the binder
    configurations and the grid axes of the knob table
    (:data:`~repro.flow.knobs.NESTED_AXES`: width, mapper effort, the
    simulation model, vector seed). Binder configurations come either
    from the ``binders x alphas`` cross product (the default) or from
    an explicit ``configs`` list when the columns are not a product —
    e.g. the bench suite's ``lopass / hlpower_a1 / hlpower_a05``. The
    full-flow-only axes vary nothing before the vectors stage, so the
    pipeline cache turns them into simulation-only work.

    Besides the fields below, each ``scalar`` row of the knob table
    (:mod:`repro.flow.knobs`) is a field shared by all cells (``k``,
    ``n_vectors``, ``flow``, ``sim_batch``, ...) and each ``axis`` row
    a tuple field named by its ``axis`` (``widths``, ``alphas``, ...;
    ``map_efforts`` None = ``(map_effort,)``). Every value is checked
    on construction and by :meth:`validate`.
    """

    benchmarks: Sequence[str] = ()
    binders: Sequence[str] = ("lopass", "hlpower")
    configs: Optional[Sequence[BinderConfig]] = None
    #: Binder label (or binder name) used as the reference for
    #: percentage changes; "none" (or empty) disables the comparison.
    baseline: str = "lopass"
    #: External designs to estimate alongside (or instead of) the
    #: benchmarks: design name -> design text (``repro-module-v1`` JSON
    #: or flat BLIF; see :mod:`repro.ingest`). Design cells appear as
    #: benchmark ``design:<name>`` with binder column ``ingest`` and
    #: run the estimate flow only — they have no schedule or binder, so
    #: only the ``k``/``map_efforts`` knobs apply to them. The text
    #: rides in :meth:`to_dict`, so serve request deduplication and
    #: worker-pool shipping see the design content.
    designs: Optional[Mapping[str, str]] = None

    def __post_init__(self) -> None:
        self._check_knobs()

    def _check_knobs(self) -> None:
        """Every knob value (scalars, axis entries, binder columns)."""
        for knob in SWEEP_KNOBS:
            if knob.scalar:
                check_knob(knob.name, getattr(self, knob.name))
            values = getattr(self, knob.axis) if knob.axis else None
            if values is None:
                continue
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(
                    f"{knob.axis} must be a non-empty list, got {values!r}"
                )
            for value in values:
                check_knob(knob.name, value)
        configs = self.binder_configs()
        if not configs:
            raise ConfigError("sweep spec has no binder configurations")
        for config in configs:
            if config.binder not in BINDER_NAMES:
                raise ConfigError(
                    f"unknown binder {config.binder!r}; choose from "
                    f"{BINDER_NAMES}"
                )
            check_knob("alpha", config.alpha)

    def binder_configs(self) -> List[BinderConfig]:
        if self.configs is not None:
            return list(self.configs)
        out = []
        for binder in self.binders:
            for alpha in self.alphas:
                label = binder if len(self.alphas) == 1 else (
                    f"{binder}_a{alpha:g}"
                )
                out.append(BinderConfig(label, binder, alpha))
        return out

    def axis_values(self, knob: Knob) -> Tuple[Any, ...]:
        """The values grid axis ``knob`` takes in this spec's cells.

        An axis left None takes its scalar field's value. The estimate
        flow keeps only the first value of a full-flow-only axis: it
        cannot move an estimate metric, so more cells would only
        duplicate records.
        """
        values = getattr(self, knob.axis)
        if values is None:
            values = (getattr(self, knob.name),)
        if self.flow == "estimate" and full_flow_only(knob):
            values = values[:1]
        return tuple(values)

    def validate(self) -> None:
        self._check_knobs()
        if not self.benchmarks and not self.designs:
            raise ConfigError("sweep spec has no benchmarks or designs")
        for name in self.benchmarks:
            benchmark_spec(name)  # raises on unknown names
        if self.designs is not None:
            self._validate_designs()
        configs = self.binder_configs()
        labels = [config.label for config in configs]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate binder labels: {labels}")
        if self.baseline and self.baseline != "none":
            if self.baseline not in labels:
                matches = [
                    c for c in configs if c.binder == self.baseline
                ]
                if not matches:
                    raise ConfigError(
                        f"baseline {self.baseline!r} matches no binder "
                        f"configuration; choose from {sorted(labels)} or "
                        f"pass 'none'"
                    )
                # LOPASS ignores alpha, so all its grid columns hold
                # identical cells and any of them can anchor the
                # comparison; an alpha-sensitive binder must be named
                # by its exact label.
                if len(matches) > 1 and self.baseline != "lopass":
                    raise ConfigError(
                        f"baseline {self.baseline!r} is ambiguous across "
                        f"alphas; use an explicit label such as "
                        f"{matches[0].label!r}"
                    )

    def _validate_designs(self) -> None:
        # Local import: the ingest frontend sits above this pure data
        # layer and must stay importable without it.
        from repro.errors import ReproError
        from repro.ingest import load_design_text

        if not isinstance(self.designs, Mapping):
            raise ConfigError("designs must map name -> design text")
        if self.flow != "estimate":
            raise ConfigError(
                "external designs have no schedule or binder; they run "
                "the estimate flow only (set flow='estimate')"
            )
        for name, text in self.designs.items():
            if not isinstance(name, str) or not name:
                raise ConfigError(f"bad design name {name!r}")
            try:
                load_design_text(text, name=name)
            except ReproError as exc:
                raise ConfigError(f"design {name!r}: {exc}") from exc

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["benchmarks"] = list(self.benchmarks)
        data["binders"] = list(self.binders)
        for knob in SWEEP_KNOBS:
            values = getattr(self, knob.axis) if knob.axis else None
            if values is not None:
                data[knob.axis] = list(values)
        if self.configs is not None:
            data["configs"] = [asdict(config) for config in self.configs]
        if self.designs is not None:
            data["designs"] = dict(self.designs)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        kwargs = dict(data)
        if kwargs.get("configs") is not None:
            kwargs["configs"] = [
                BinderConfig(**config) for config in kwargs["configs"]
            ]
        return cls(**kwargs)


def _axis_fields(knobs: Sequence[Knob]):
    """A ``(name, type, default)`` coordinate field per grid axis."""
    return [(knob.name, knob.type, knob.default) for knob in knobs]


@dataclass(frozen=True, kw_only=True)
@knob_fields(*_axis_fields(AXIS_KNOBS))
class SweepJob:
    """One expanded grid cell, ready to run: a field per grid axis
    (``width``, ``vector_seed``, ...) holds its coordinate."""

    index: int
    benchmark: str
    config: BinderConfig
    #: Set for external-design cells: the key into ``spec.designs``.
    design: Optional[str] = None

    @property
    def alpha(self) -> float:
        """The binder column's alpha (the job's ``alphas`` coordinate)."""
        return self.config.alpha


#: Binder column shown for external-design cells (which have none).
INGEST_CONFIG = BinderConfig("ingest", "ingest", 0.0)

#: A cell record holds the grid axes in row order, around the
#: measurements as stored sweep files have them: the axes up to the
#: averaged one (no summary column) before ``metrics``, the later ones
#: before ``stage_timings``.
_SPLIT = [knob.column for knob in AXIS_KNOBS].index(None) + 1
#: (position, value) of the ``SweepCell.key`` slots that held the
#: retired sim_kernel / bind_engine / elab_engine knobs.
_RETIRED_KEY_SLOTS = ((6, "event"), (8, "fast"), (9, "fast"))


@dataclass(kw_only=True)
@knob_fields(*_axis_fields(AXIS_KNOBS[_SPLIT:]), before="stage_timings")
@knob_fields(*_axis_fields(AXIS_KNOBS[:_SPLIT]), before="metrics")
class SweepCell:
    """The record one job produces: its grid coordinates + metrics."""

    benchmark: str
    config: str
    binder: str
    alpha: float
    #: Deterministic measurements (see :meth:`FlowResult.metrics` /
    #: :meth:`EstimateResult.metrics` depending on the spec's flow).
    metrics: Dict[str, float]
    runtime_s: float
    schedule_cache_hit: bool
    sa_new_entries: int
    #: Per-pipeline-stage wall clock of this cell's flow run.
    stage_timings: Dict[str, float] = field(default_factory=dict)
    #: Pipeline stages served from the worker's artifact cache.
    cache_hits: List[str] = field(default_factory=list)
    #: Size of the batched simulation pass that produced this cell's
    #: trace (0 = solo kernel run, batching off or group too small).
    sim_batch: int = 0
    #: This cell's share of its batched pass's kernel wall clock
    #: (total pass seconds / configurations in the pass).
    sim_batch_s: float = 0.0

    @property
    def key(self) -> Tuple:
        """``(benchmark, config, *axis coordinates in row order)``.

        The retired knobs' slots stay as their only former values: the
        benchmark's committed output digests key sweep cells by
        ``"|".join(map(str, key))``, so dropping them waits for a change
        that re-records those digests.
        """
        key = [self.benchmark, self.config]
        key += [getattr(self, knob.name) for knob in AXIS_KNOBS]
        for slot, value in _RETIRED_KEY_SLOTS:
            key.insert(slot, value)
        return tuple(key)


def expand_grid(spec: SweepSpec) -> List[SweepJob]:
    """Expand the spec into jobs, benchmark-major.

    Benchmark-major order keeps jobs that share an elaboration-memo key
    adjacent; within a binder column the axes nest in
    :data:`~repro.flow.knobs.NESTED_AXES` order, so consecutive jobs
    share the longest cached pipeline prefix. Each axis takes
    :meth:`SweepSpec.axis_values` (one value per full-flow-only axis
    in the estimate flow).
    """
    spec.validate()
    names = [knob.name for knob in NESTED_AXES]
    axes = [spec.axis_values(knob) for knob in NESTED_AXES]
    jobs: List[SweepJob] = []
    for benchmark in spec.benchmarks:
        for config in spec.binder_configs():
            for coords in product(*axes):
                jobs.append(SweepJob(
                    index=len(jobs), benchmark=benchmark, config=config,
                    **dict(zip(names, coords)),
                ))
    if spec.designs:
        # Design cells run the estimate flow only (validate() enforces
        # it) and have no schedule or binder: only an axis the design
        # stages alone read can move a design metric, and the others
        # keep their first value. width=0 marks "the design defines its
        # own widths".
        axes = [
            values if read_only_by(knob, DESIGN_STAGES) else values[:1]
            for knob, values in zip(NESTED_AXES, axes)
        ]
        for name in sorted(spec.designs):
            for coords in product(*axes):
                jobs.append(SweepJob(
                    index=len(jobs), benchmark=f"design:{name}",
                    config=INGEST_CONFIG, design=name,
                    **dict(zip(names, coords), width=0),
                ))
    return jobs

"""The staged flow pipeline (bind → … → power) behind every driver.

The measurement flow is a fixed chain of pure stages, each reading a
declared subset of :class:`~repro.flow.run.FlowConfig` — the knob rows
of :data:`~repro.flow.knobs.KNOBS` that name the stage:

====================  ===========================  ========================
stage                 inputs                       config fields read
====================  ===========================  ========================
``bind``              schedule/constraints/        ``alpha`` + SA-table
                      registers/ports/binder       settings (hlpower and
                                                   mcts), ``mcts_budget,
                                                   mcts_seed`` (mcts);
                                                   via ``binder_token``
``datapath``          ``bind``                     ``width``
``elaborate``         ``datapath``                 (none)
``techmap``           ``elaborate``                ``k, control_activity,
                                                   map_effort``
``timing``            ``techmap``                  ``device``
``vectors``           #primary inputs              ``width, n_vectors,
                                                   vector_seed``
``simulate``          ``techmap, vectors``         ``idle_selects,
                                                   delay_jitter``
``power``             ``simulate, techmap``        ``sim_clock_ns, device``
====================  ===========================  ========================

Each :class:`Stage` fingerprints its inputs — upstream fingerprints
chained with the config subset — and stores its artifact in a
content-addressed :class:`~repro.flow.cache.ArtifactCache`. Two runs
that differ only in late-stage knobs (vector seed, jitter, idle
policy) therefore share the bound-and-mapped prefix, which
is exactly the dominant sweep shape; the sweep engine
(:mod:`repro.flow.batch`) keeps one cache per worker process.

Partial flows are first-class: a :class:`Pipeline` materializes only
the stages a driver asks for, so the ``estimate`` entry point
(:func:`repro.flow.run.run_estimate`) stops after ``timing`` and
reports the Equation-(3) activity estimate without ever building
vectors or invoking the simulator.

Custom binder callables are supported but uncacheable (their behavior
is not content-addressable); every downstream stage then recomputes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigError, SimulationError
from repro.binding import (
    BINDER_NAMES,
    DEFAULT_MCTS_BUDGET,
    DEFAULT_MCTS_SEED,
    BindingSolution,
    HLPowerConfig,
    MCTSConfig,
    PortAssignment,
    RegisterBinding,
    bind_mcts,
)
from repro.binding.compile import (
    BindMemo,
    bind_hlpower_fast,
    bind_lopass_fast,
)
from repro.binding.sa_table import SATableConfig
from repro.binding.weights import DEFAULT_ALPHA
from repro.cdfg.schedule import Schedule
from repro.flow.cache import ArtifactCache, fingerprint
from repro.flow.knobs import CONFIG_KNOBS
from repro.fpga.compile import elaborate_design
from repro.fpga.elaborate import ElaboratedDesign
from repro.fpga.power import PowerReport, power_report
from repro.fpga.simulate import (
    BatchConfig,
    SimulationResult,
    golden_outputs,
    simulate_batch,
    simulate_design,
)
from repro.fpga.timing import TimingReport, timing_report
from repro.fpga.vectors import VectorSet, random_vectors
from repro.rtl.datapath import Datapath, build_datapath
from repro.techmap import ConeMemo, MapResult, map_netlist

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flow.run import FlowConfig

Binder = Union[str, Callable[..., BindingSolution]]

#: Salt mixed into every stage fingerprint. Bump the suffix whenever a
#: stage's *behavior* changes (new mapper heuristic, simulator fix, …)
#: so persisted on-disk caches from older code cannot serve stale
#: artifacts that no longer match a fresh recomputation.
CACHE_SALT = "repro-pipeline-v1"


def run_binder(
    binder: Binder,
    schedule: Schedule,
    constraints: Mapping[str, int],
    registers: RegisterBinding,
    ports: PortAssignment,
    alpha: float = DEFAULT_ALPHA,
    sa_table=None,
    bind_memo: Optional[BindMemo] = None,
    mcts_budget: int = DEFAULT_MCTS_BUDGET,
    mcts_seed: int = DEFAULT_MCTS_SEED,
) -> BindingSolution:
    """Dispatch one binder by name or callable (shared with repro.hls).

    Named binders run the vectorized engines of
    :mod:`repro.binding.compile`, decision-identical to the seed
    binders. ``bind_memo`` is the HLPower engine's cross-round /
    cross-cell weight-block memo. ``mcts_budget``/``mcts_seed`` only
    reach the ``"mcts"`` binder (its heuristic incumbents share
    ``bind_memo``).
    """
    if callable(binder):
        return binder(schedule, constraints, registers, ports)
    if binder == "hlpower":
        return bind_hlpower_fast(
            schedule, constraints, registers, ports,
            HLPowerConfig(alpha=alpha, sa_table=sa_table), memo=bind_memo,
        )
    if binder == "lopass":
        return bind_lopass_fast(schedule, constraints, registers, ports)
    if binder == "mcts":
        return bind_mcts(
            schedule, constraints, registers, ports,
            MCTSConfig(
                budget=mcts_budget, seed=mcts_seed, alpha=alpha,
                sa_table=sa_table, bind_memo=bind_memo,
            ),
        )
    raise ConfigError(
        f"unknown binder {binder!r}; choose from {BINDER_NAMES}"
    )


# ---------------------------------------------------------------------------
# Composite artifacts.
# ---------------------------------------------------------------------------


@dataclass
class MappedDesign:
    """The tech-map stage's artifact: the mapping plus the remapped
    design (same name maps, LUT netlist) the simulator consumes."""

    mapping: MapResult
    design: ElaboratedDesign


@dataclass
class SimulatedDesign:
    """The simulate stage's artifact.

    ``checked`` records whether the trace was verified against CDFG
    semantics, so a cache hit coming from an unchecked run still gets
    the golden-output comparison when the consumer asks for it.
    """

    result: SimulationResult
    checked: bool


# ---------------------------------------------------------------------------
# Input fingerprints.
# ---------------------------------------------------------------------------


def schedule_token(schedule: Schedule) -> Tuple:
    """Content token of a scheduled CDFG (graph + start times)."""
    cdfg = schedule.cdfg
    return (
        "schedule",
        cdfg.name,
        tuple(cdfg.primary_inputs),
        tuple(cdfg.primary_outputs),
        tuple(
            (op.op_id, op.op_type, op.inputs, op.output)
            for _, op in sorted(cdfg.operations.items())
        ),
        tuple(sorted(schedule.start.items())),
        tuple(sorted(schedule.latencies.items())),
    )


def registers_token(registers: RegisterBinding) -> Tuple:
    return (
        "registers",
        registers.n_registers,
        tuple(sorted(registers.assignment.items())),
    )


def ports_token(ports: PortAssignment) -> Tuple:
    return ("ports", tuple(sorted(ports.ports.items())))


def binder_token(binder: Binder, cfg: "FlowConfig") -> Optional[Tuple]:
    """Content token of the binder choice, or None when uncacheable.

    LOPASS ignores ``alpha`` and the SA table, so neither enters its
    token (an alpha grid over LOPASS columns hits the same artifact);
    HLPower's token carries ``alpha`` plus the SA-table *settings* —
    table values are deterministic functions of those settings, so the
    table's fill state cannot change the binding and stays out of the
    fingerprint. The MCTS binder extends the HLPower token with its
    node budget and playout seed: both change the search's decisions,
    so both must enter the digest. Callables have no content identity.
    """
    if callable(binder):
        return None
    if binder == "lopass":
        return ("lopass",)
    table_config = (
        cfg.sa_table.config if cfg.sa_table is not None else SATableConfig()
    )
    if binder == "mcts":
        return (binder, cfg.alpha, table_config, cfg.mcts_budget,
                cfg.mcts_seed)
    return (binder, cfg.alpha, table_config)


# ---------------------------------------------------------------------------
# Stage registry.
# ---------------------------------------------------------------------------


def _config_fields(stage: str) -> Tuple[str, ...]:
    """The FlowConfig fields entering ``stage``'s fingerprint: the
    knob rows naming it, in table order (the order is hashed)."""
    return tuple(k.name for k in CONFIG_KNOBS if stage in k.stages)


@dataclass(frozen=True)
class Stage:
    """One typed pipeline stage.

    ``config_fields`` is the subset of FlowConfig the stage reads — it
    is the stage's config fingerprint; ``extra`` contributes
    input-derived tokens (or ``None`` to mark this run uncacheable);
    ``uses_flow_inputs`` mixes the schedule/constraints/registers/
    ports token into a root stage's fingerprint (the vectors stage
    opts out — it reads nothing but the primary-input count, carried
    by its ``extra`` token, so identical stimuli are shared across
    designs); ``on_hit`` post-processes a cache hit (the simulate
    stage uses it to honor ``check_function`` on artifacts cached
    unchecked).
    """

    name: str
    deps: Tuple[str, ...]
    config_fields: Tuple[str, ...]
    run: Callable[["Pipeline"], Any]
    extra: Optional[Callable[["Pipeline"], Optional[Tuple]]] = None
    uses_flow_inputs: bool = True
    on_hit: Optional[Callable[["Pipeline", Any], None]] = None
    #: Publish to the cache's on-disk layer. Off for the simulate and
    #: power stages: their artifacts are unique per (seed, jitter,
    #: idle) cell — the dominant sweep shape would only fill
    #: the directory with large write-only pickles.
    persist_to_disk: bool = True


def _bind_memo(p: "Pipeline") -> Optional[BindMemo]:
    """The HLPower engine's weight-block memo, shared via the cache.

    Keyed by the bind stage's *inputs* (schedule/constraints/registers/
    ports plus the SA-table settings) but not by ``alpha`` or the
    binder: blocks are the alpha-independent part of Equation (4), so
    every hlpower cell of an alpha grid reuses the rounds whose node
    sets coincide. Memory-only: the memo mutates in place as cells add
    rounds, which an on-disk pickle would snapshot pointlessly.
    """
    if callable(p.binder):
        return None
    table_config = (
        p.cfg.sa_table.config
        if p.cfg.sa_table is not None
        else SATableConfig()
    )
    key = fingerprint(
        CACHE_SALT, "bind-memo", p._input_token, table_config
    )
    hit, memo = p.cache.lookup(key)
    if not hit:
        memo = BindMemo()
        p.cache.store(key, memo, persist=False)
    return memo


def _run_bind(p: "Pipeline") -> BindingSolution:
    return run_binder(
        p.binder, p.schedule, p.constraints, p.registers, p.ports,
        alpha=p.cfg.alpha, sa_table=p.cfg.sa_table,
        bind_memo=_bind_memo(p),
        mcts_budget=p.cfg.mcts_budget, mcts_seed=p.cfg.mcts_seed,
    )


def _run_datapath(p: "Pipeline") -> Datapath:
    return build_datapath(p.artifact("bind"), p.cfg.width)


def _run_elaborate(p: "Pipeline") -> ElaboratedDesign:
    return elaborate_design(p.artifact("datapath"))


def cone_memo(cache: Optional[ArtifactCache]) -> ConeMemo:
    """The tech mapper's cone-evaluation memo for a run on ``cache``.

    One memo per cache (:attr:`ArtifactCache.cone_memo`): its entries
    are exact-match evaluations, pure functions of their keys, so every
    netlist mapped through the cache — both binders, every benchmark,
    every sweep cell and daemon request, custom binders included —
    shares them. A run without a cache gets a fresh memo.
    """
    return cache.cone_memo if cache is not None else ConeMemo()


def _run_techmap(p: "Pipeline") -> MappedDesign:
    design = p.artifact("elaborate")
    input_activities = {
        net: p.cfg.control_activity
        for nets in design.control_nets.values()
        for net in nets
    }
    mapping = map_netlist(
        design.netlist, k=p.cfg.k, input_activities=input_activities,
        effort=p.cfg.map_effort, cone_memo=cone_memo(p.cache),
    )
    mapped = ElaboratedDesign(
        datapath=design.datapath,
        netlist=mapping.netlist,
        pad_nets=design.pad_nets,
        register_nets=design.register_nets,
        fu_nets=design.fu_nets,
        control_nets=design.control_nets,
        output_nets=design.output_nets,
    )
    return MappedDesign(mapping=mapping, design=mapped)


def _run_timing(p: "Pipeline") -> TimingReport:
    return timing_report(p.artifact("techmap").mapping.netlist, p.cfg.device)


def _run_vectors(p: "Pipeline") -> VectorSet:
    return random_vectors(
        len(p.schedule.cdfg.primary_inputs),
        p.cfg.width,
        p.cfg.n_vectors,
        p.cfg.vector_seed,
    )


def _golden_outputs_memo(p: "Pipeline", mapped: MappedDesign):
    """CDFG-semantics outputs, shared via the cache.

    Keyed by the techmap and vectors fingerprints: the expected outputs
    depend on nothing else, so every simulation knob cell of a sweep
    (idle x jitter over the same design and stimulus) verifies
    against one computation instead of re-deriving it per cell.
    Memory-only, like the artifacts it checks.
    """
    techmap_fp = p.stage_fingerprint("techmap")
    vectors_fp = p.stage_fingerprint("vectors")
    if techmap_fp is None or vectors_fp is None:
        return golden_outputs(mapped.design, p.artifact("vectors"))
    key = fingerprint(CACHE_SALT, "golden-outputs", techmap_fp, vectors_fp)
    hit, expected = p.cache.lookup(key)
    if not hit:
        expected = golden_outputs(mapped.design, p.artifact("vectors"))
        p.cache.store(key, expected, persist=False)
    return expected


def _check_simulation(p: "Pipeline", artifact: SimulatedDesign) -> None:
    if not p.cfg.check_function or artifact.checked:
        return
    mapped = p.artifact("techmap")
    expected = _golden_outputs_memo(p, mapped)
    if expected != artifact.result.outputs:
        solution = p.artifact("bind")
        raise SimulationError(
            f"simulated outputs disagree with CDFG semantics for "
            f"{p.schedule.cdfg.name!r} ({solution.algorithm})"
        )
    artifact.checked = True


def _run_simulate(p: "Pipeline") -> SimulatedDesign:
    mapped = p.artifact("techmap")
    simulation = simulate_design(
        mapped.design,
        p.artifact("vectors"),
        idle_selects=p.cfg.idle_selects,
        delay_jitter=p.cfg.delay_jitter,
    )
    artifact = SimulatedDesign(result=simulation, checked=False)
    _check_simulation(p, artifact)
    return artifact


def _run_power(p: "Pipeline") -> PowerReport:
    mapping = p.artifact("techmap").mapping
    n_design_nets = mapping.area + len(mapping.netlist.latches)
    return power_report(
        p.artifact("simulate").result,
        p.cfg.sim_clock_ns,
        p.cfg.device,
        n_nets=n_design_nets,
    )


#: The stage graph, in topological order.
STAGES: Dict[str, Stage] = {
    stage.name: stage
    for stage in (
        Stage(
            # The bind knobs enter through binder_token, not as config
            # fields: which of them count depends on the binder.
            "bind", deps=(), config_fields=(), run=_run_bind,
            extra=lambda p: binder_token(p.binder, p.cfg),
            # Memory-only: binding has a side effect the artifact does
            # not carry — HLPower populates the run's persistent SA
            # table. An in-process hit is fine (the same table object
            # was filled by the computing cell), but a disk hit from a
            # previous process would leave the caller's table empty.
            persist_to_disk=False,
        ),
        Stage("datapath", deps=("bind",),
              config_fields=_config_fields("datapath"), run=_run_datapath),
        Stage("elaborate", deps=("datapath",),
              config_fields=_config_fields("elaborate"),
              run=_run_elaborate),
        Stage("techmap", deps=("elaborate",),
              config_fields=_config_fields("techmap"), run=_run_techmap),
        Stage("timing", deps=("techmap",),
              config_fields=_config_fields("timing"), run=_run_timing),
        Stage(
            "vectors", deps=(), config_fields=_config_fields("vectors"),
            run=_run_vectors, uses_flow_inputs=False,
            extra=lambda p: (len(p.schedule.cdfg.primary_inputs),),
        ),
        Stage(
            "simulate", deps=("techmap", "vectors"),
            config_fields=_config_fields("simulate"),
            run=_run_simulate, on_hit=_check_simulation,
            persist_to_disk=False,
        ),
        Stage("power", deps=("simulate", "techmap"),
              config_fields=_config_fields("power"), run=_run_power,
              persist_to_disk=False),
    )
}

#: Stage names in execution order (the public stage vocabulary).
STAGE_NAMES: Tuple[str, ...] = tuple(STAGES)

#: Stages the estimate (no-simulation) flow materializes.
ESTIMATE_STAGES: Tuple[str, ...] = (
    "bind", "datapath", "elaborate", "techmap", "timing"
)


class Pipeline:
    """One flow execution: lazy stage artifacts over a shared cache.

    Ask for artifacts with :meth:`artifact`; only the requested stages
    (plus their transitive dependencies) ever run, which is what makes
    partial flows — estimate-only, map-only — first-class. Per-stage
    wall clock lands in :attr:`timings` and cache outcomes in
    :attr:`cache_hits` (both keyed by stage name, only for stages that
    were materialized).
    """

    def __init__(
        self,
        schedule: Schedule,
        constraints: Mapping[str, int],
        binder: Binder,
        cfg: "FlowConfig",
        registers: RegisterBinding,
        ports: PortAssignment,
        cache: Optional[ArtifactCache] = None,
    ):
        self.schedule = schedule
        self.constraints = dict(constraints)
        self.binder = binder
        self.cfg = cfg
        self.registers = registers
        self.ports = ports
        self.cache = cache if cache is not None else ArtifactCache()
        self.timings: Dict[str, float] = {}
        self.cache_hits: Dict[str, bool] = {}
        self._artifacts: Dict[str, Any] = {}
        self._fingerprints: Dict[str, Optional[str]] = {}
        self._input_token = (
            schedule_token(schedule),
            tuple(sorted(self.constraints.items())),
            registers_token(registers),
            ports_token(ports),
        )

    # -- fingerprints ------------------------------------------------------

    def stage_fingerprint(self, name: str) -> Optional[str]:
        """The content digest addressing ``name``'s artifact.

        ``None`` marks the stage uncacheable for this run (a custom
        binder callable somewhere in its dependency cone).
        """
        if name in self._fingerprints:
            return self._fingerprints[name]
        stage = _stage(name)
        parts: List[Any] = [CACHE_SALT, stage.name]
        uncacheable = False
        for dep in stage.deps:
            dep_fp = self.stage_fingerprint(dep)
            if dep_fp is None:
                uncacheable = True
                break
            parts.append(dep_fp)
        if not uncacheable:
            if not stage.deps and stage.uses_flow_inputs:
                parts.append(self._input_token)
            for field_name in stage.config_fields:
                parts.append(getattr(self.cfg, field_name))
            if stage.extra is not None:
                extra = stage.extra(self)
                if extra is None:
                    uncacheable = True
                else:
                    parts.append(extra)
        digest = None if uncacheable else fingerprint(*parts)
        self._fingerprints[name] = digest
        return digest

    # -- execution ---------------------------------------------------------

    def artifact(self, name: str) -> Any:
        """Materialize (or fetch) the artifact of stage ``name``."""
        if name in self._artifacts:
            return self._artifacts[name]
        stage = _stage(name)
        for dep in stage.deps:
            self.artifact(dep)
        digest = self.stage_fingerprint(name)
        started = time.perf_counter()
        hit = False
        value: Any = None
        if digest is not None:
            hit, value = self.cache.lookup(digest)
        if hit and stage.on_hit is not None:
            stage.on_hit(self, value)
        if not hit:
            value = stage.run(self)
            if digest is not None:
                self.cache.store(digest, value,
                                 persist=stage.persist_to_disk)
        self.timings[name] = (
            self.timings.get(name, 0.0) + time.perf_counter() - started
        )
        self.cache_hits[name] = hit
        self._artifacts[name] = value
        return value

    def run_stages(self, names: Tuple[str, ...]) -> None:
        """Materialize each named stage (dependencies included)."""
        for name in names:
            self.artifact(name)

    @property
    def hit_stages(self) -> List[str]:
        """Names of materialized stages served from the cache."""
        return [name for name in STAGE_NAMES if self.cache_hits.get(name)]


def _stage(name: str) -> Stage:
    try:
        return STAGES[name]
    except KeyError:
        raise ConfigError(
            f"unknown pipeline stage {name!r}; choose from {STAGE_NAMES}"
        )


def batch_simulate_pipelines(
    pipes: List[Pipeline], max_batch: int = 16
) -> List[Tuple[List[int], float]]:
    """Materialize missing simulate artifacts in batched kernel passes.

    Groups the given pipelines by their ``techmap`` stage fingerprint —
    equal fingerprints mean a byte-identical mapped design — and runs
    each group of two or more through :func:`simulate_batch` in chunks
    of at most ``max_batch`` configurations, storing one
    :class:`SimulatedDesign` per pipeline under its own ``simulate``
    fingerprint. A pipeline whose ``artifact("simulate")`` is asked for
    afterwards gets a cache hit instead of a solo kernel run.

    Only full-flow pipelines with a cacheable simulate stage
    participate; ones whose artifact is already cached, or that share a
    simulate fingerprint with an earlier pipeline in the list, are
    skipped. Each batched result passes the same golden-output
    verification a solo run would (honoring ``check_function``).

    Returns ``(member indices into pipes, kernel wall seconds)`` per
    executed batched pass — the kernel time only, excluding any
    upstream stages materialized to build the batch inputs.
    """
    if max_batch < 1:
        raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
    groups: Dict[str, List[Tuple[int, str, Pipeline]]] = {}
    seen: set = set()
    for index, pipe in enumerate(pipes):
        if pipe.cfg.flow != "full":
            continue
        sim_fp = pipe.stage_fingerprint("simulate")
        if sim_fp is None or sim_fp in seen or sim_fp in pipe.cache:
            continue
        seen.add(sim_fp)
        techmap_fp = pipe.stage_fingerprint("techmap")
        groups.setdefault(techmap_fp, []).append((index, sim_fp, pipe))

    passes: List[Tuple[List[int], float]] = []
    for members in groups.values():
        for start in range(0, len(members), max_batch):
            batch = members[start:start + max_batch]
            if len(batch) < 2:
                continue  # a solo run is no better than the plain stage
            design = batch[0][2].artifact("techmap").design
            configs = [
                BatchConfig(
                    vectors=pipe.artifact("vectors"),
                    idle_selects=pipe.cfg.idle_selects,
                    delay_jitter=pipe.cfg.delay_jitter,
                )
                for _, _, pipe in batch
            ]
            started = time.perf_counter()
            results = simulate_batch(design, configs)
            wall = time.perf_counter() - started
            for (index, sim_fp, pipe), result in zip(batch, results):
                artifact = SimulatedDesign(result=result, checked=False)
                _check_simulation(pipe, artifact)
                # Pinned: the consumer flow may run many cells later
                # in the chunk, after enough cache traffic to evict an
                # unprotected entry (the pin drops on first lookup).
                pipe.cache.store(sim_fp, artifact, persist=False, pin=True)
            passes.append(([index for index, _, _ in batch], wall))
    return passes

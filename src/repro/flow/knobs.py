"""The flow's knob table: every experiment setting, declared once.

Each :class:`Knob` row names one setting of the measurement flow (the
knobs Section 6.1 sweeps: width, alpha, vector count and seed, LUT
size K, idle-select policy, delay jitter, ...): its type, default and
check, the pipeline stages whose fingerprint it enters, and the
surfaces exposing it. FlowConfig and SweepSpec fields, stage config
fields, serve request fields and CLI flags are all derived from the
table (docs/architecture.md, "The knob table"), and :func:`check_knob`
is the one validator behind every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.activity.transition import MAX_EXACT_INPUTS
from repro.binding.mcts import DEFAULT_MCTS_BUDGET, DEFAULT_MCTS_SEED
from repro.binding.sa_table import SATable
from repro.binding.weights import DEFAULT_ALPHA
from repro.errors import ConfigError
from repro.fpga.device import CYCLONE_II_LIKE, DeviceModel
from repro.techmap.mapper import MAP_EFFORTS

#: Valid values of the ``flow`` knob.
FLOW_MODES = ("full", "estimate")

#: Subcommands that run flows (the CLI's knob-carrying commands).
_RUNS = ("bench", "suite", "sweep", "estimate", "corpus")


@dataclass(frozen=True)
class Knob:
    """One flow setting and every place it surfaces."""

    name: str
    type: type
    default: Any
    help: str  # CLI help; the default is appended
    choices: Tuple[Any, ...] = ()  # () = any value of ``type``
    low: Optional[float] = None  # inclusive bounds
    high: Optional[float] = None
    #: Pipeline stages whose fingerprint this knob enters.
    stages: Tuple[str, ...] = ()
    #: A :class:`~repro.flow.run.FlowConfig` field.
    config: bool = True
    #: A scalar :class:`~repro.flow.grid.SweepSpec` field of this name.
    scalar: bool = False
    #: The list-valued SweepSpec field sweeping this knob, if any. With
    #: ``scalar`` set too it defaults to None, meaning ``[scalar]``.
    axis: Optional[str] = None
    #: Settable per ``/estimate`` / ``/flow`` request.
    serve: bool = False
    #: CLI flag taking one value / a comma-separated axis, and the
    #: subcommands carrying each.
    flag: Optional[str] = None
    commands: Tuple[str, ...] = ()
    axis_flag: Optional[str] = None
    axis_commands: Tuple[str, ...] = ()


KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob("width", int, 8, "datapath bit-width", low=1,
             stages=("datapath", "vectors"), axis="widths", serve=True,
             flag="--width", commands=("bench", "suite", "estimate",
                                       "corpus", "synth"),
             axis_flag="--widths", axis_commands=("sweep",)),
        # The mapper needs K >= 2 and its exact SA evaluation covers
        # cones of at most MAX_EXACT_INPUTS leaves.
        Knob("k", int, 4, "LUT input count K", low=2,
             high=MAX_EXACT_INPUTS, stages=("techmap",), scalar=True,
             serve=True),
        Knob("n_vectors", int, 256, "random input vectors per cell", low=1,
             stages=("vectors",), scalar=True, serve=True, flag="--vectors",
             commands=("bench", "suite", "sweep")),
        Knob("vector_seed", int, 7, "random-vector seed",
             stages=("vectors",), axis="vector_seeds", serve=True),
        Knob("alpha", float, DEFAULT_ALPHA, "Equation (4) alpha", low=0.0,
             high=1.0, stages=("bind",), axis="alphas", serve=True,
             flag="--alpha", commands=("bench", "suite"),
             axis_flag="--alphas",
             axis_commands=("sweep", "estimate", "corpus")),
        # The table's *settings* (not its fill state) enter the
        # hlpower/mcts bind fingerprint; None = a fresh default table.
        Knob("sa_table", SATable, None, "SA table shared by the binders",
             stages=("bind",)),
        Knob("check_function", bool, True,
             "verify simulated outputs against CDFG semantics",
             scalar=True, serve=True),
        # Control selects change a couple of times per iteration, not
        # every cycle: their activity hint for the mapper.
        Knob("control_activity", float, 0.1,
             "mapper activity hint for control inputs", low=0.0, high=1.0,
             stages=("techmap",)),
        Knob("idle_selects", str, "zero",
             "idle-step control policy: 'zero' (plain FSM synthesis, the "
             "paper's flow) or 'hold' (operand isolation)",
             choices=("zero", "hold"), stages=("simulate",),
             axis="idle_modes", serve=True, axis_flag="--idle-modes",
             axis_commands=("sweep",)),
        # The .vwf time base shared by every design under comparison;
        # the achieved clock period is reported separately (Table 3).
        Knob("sim_clock_ns", float, 40.0, "stimulus clock period (ns)",
             stages=("power",)),
        Knob("device", DeviceModel, CYCLONE_II_LIKE, "FPGA device model",
             stages=("timing", "power")),
        Knob("delay_jitter", int, 0,
             "per-gate delay jitter (0 = pure unit delay, the paper's "
             "model)", low=0, stages=("simulate",), axis="jitters",
             serve=True, axis_flag="--jitters", axis_commands=("sweep",)),
        Knob("map_effort", str, MAP_EFFORTS[0],
             "technology-mapper effort ('exhaustive' evaluates every "
             "surviving cut per node)", choices=MAP_EFFORTS,
             stages=("techmap",), scalar=True, axis="map_efforts",
             serve=True, flag="--map-effort",
             commands=("bench", "suite", "estimate", "corpus"),
             axis_flag="--map-effort", axis_commands=("sweep",)),
        Knob("flow", str, FLOW_MODES[0],
             "'full' runs the measurement chain through simulation; "
             "'estimate' stops after tech-map (Equation-(3) numbers, no "
             "simulator)", choices=FLOW_MODES, scalar=True, flag="--flow",
             commands=("sweep",)),
        Knob("mcts_budget", int, DEFAULT_MCTS_BUDGET,
             "mcts binder search iterations per resource class (0 = best "
             "heuristic)", low=0, stages=("bind",), scalar=True, serve=True,
             flag="--mcts-budget", commands=_RUNS + ("synth",)),
        Knob("mcts_seed", int, DEFAULT_MCTS_SEED,
             "mcts binder playout seed (deterministic per seed)",
             stages=("bind",), scalar=True, serve=True, flag="--mcts-seed",
             commands=_RUNS + ("synth",)),
        # Not a FlowConfig field: the executor schedules before the
        # pipeline, so the scheduler moves the bind stage's inputs.
        Knob("scheduler", str, "list",
             "scheduler: 'list' (resource-constrained) or 'force' "
             "(latency-balanced)",
             choices=("list", "force"), config=False, scalar=True,
             serve=True, flag="--scheduler", commands=("sweep", "synth")),
        # Cells sharing the mapped design run through one batched
        # simulation pass in groups of up to this many; wider is cheaper
        # until word width dominates (32 measured best on chem).
        Knob("sim_batch", int, 32,
             "max configurations per batched simulation kernel pass (1 "
             "disables batching; metrics are byte-identical either way)",
             low=1, config=False, scalar=True, flag="--sim-batch",
             commands=("sweep",)),
    )
}

#: The FlowConfig rows, in field (and fingerprint) order.
CONFIG_KNOBS: Tuple[Knob, ...] = tuple(k for k in KNOBS.values() if k.config)

#: The SweepSpec rows (scalar fields and/or axes).
SWEEP_KNOBS: Tuple[Knob, ...] = tuple(
    k for k in KNOBS.values() if k.scalar or k.axis
)


def _expects(knob: Knob) -> str:
    if knob.choices:
        return f"one of {knob.choices}"
    if knob.type in (int, float):
        kind = "an integer" if knob.type is int else "a finite number"
        if knob.low is not None and knob.high is not None:
            return f"{kind} in [{knob.low:g}, {knob.high:g}]"
        if knob.low is not None:
            return f"{kind} >= {knob.low:g}"
        return kind
    name = knob.type.__name__
    return f"a {name}" + (" or None" if knob.default is None else "")


def check_knob(name: str, value: Any) -> Any:
    """Return ``value`` if it is valid for knob ``name``.

    Raises :class:`~repro.errors.ConfigError` naming the knob, the
    expected values and the offending one. ``bool`` is not an integer
    here, and float knobs take ints but never NaN or infinities.
    """
    knob = KNOBS[name]
    kind = knob.type
    if kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind is float:
        ok = (isinstance(value, (int, float))
              and not isinstance(value, bool) and math.isfinite(value))
    else:
        ok = isinstance(value, kind) or (
            value is None and knob.default is None
        )
    if ok and knob.choices:
        ok = value in knob.choices
    if ok and knob.low is not None:
        ok = value >= knob.low
    if ok and knob.high is not None:
        ok = value <= knob.high
    if not ok:
        raise ConfigError(f"{name} must be {_expects(knob)}, got {value!r}")
    return value


def knob_fields(*fields: Tuple[str, Any, Any]):
    """Class decorator: declare ``name: type = default`` per field.

    Apply it under ``@dataclass`` so the knob-derived fields become
    ordinary dataclass fields, after the class's own annotated fields.
    """

    def declare(cls):
        annotations = dict(cls.__dict__.get("__annotations__", {}))
        for name, kind, default in fields:
            annotations[name] = kind
            setattr(cls, name, default)
        cls.__annotations__ = annotations
        return cls

    return declare

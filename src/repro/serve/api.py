"""Request model of the ``repro serve`` daemon.

Every HTTP request is normalized into the same declarative model the
sweep engine runs on (:mod:`repro.flow.grid`): a single-cell
:class:`~repro.flow.grid.SweepSpec` for ``/estimate`` and ``/flow``,
a full client-supplied spec for ``/sweep``. Normalizing first is what
makes deduplication sound — :func:`request_key` fingerprints the
normalized spec (the same content-addressing machinery the artifact
cache uses), so two requests that differ only in JSON key order or in
spelling out a default map to the same in-flight key, and their
results are byte-for-byte the cells a direct
:func:`~repro.flow.batch.run_sweep` / :func:`~repro.flow.run.run_flow`
call would produce.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.errors import ConfigError, ReproError
from repro.flow.cache import fingerprint
from repro.flow.grid import BinderConfig, SweepCell, SweepSpec


class RequestError(ConfigError):
    """A malformed request body (maps to HTTP 400)."""


#: Accepted fields of a single-cell request, with defaults matching
#: :class:`~repro.flow.run.FlowConfig` so an empty request body means
#: exactly what a default ``run_flow`` call means. ``/estimate``
#: accepts only the fields upstream of the simulate stage.
_FLOW_FIELDS: Dict[str, Any] = {
    "benchmark": None,  # required
    "binder": "hlpower",
    "alpha": 0.5,
    "width": 8,
    "k": 4,
    "scheduler": "list",
    "map_effort": "fast",
    "n_vectors": 256,
    "vector_seed": 7,
    "idle_selects": "zero",
    "delay_jitter": 0,
    "check_function": True,
    "mcts_budget": 256,
    "mcts_seed": 1,
}
_ESTIMATE_ONLY_EXCLUDED = (
    "n_vectors", "vector_seed", "idle_selects", "delay_jitter",
)
#: Request fields consumed by the queue, not the spec.
_CONTROL_FIELDS = ("priority",)

_TYPES: Dict[str, Tuple[type, ...]] = {
    "benchmark": (str,),
    "binder": (str,),
    "alpha": (int, float),
    "width": (int,),
    "k": (int,),
    "scheduler": (str,),
    "map_effort": (str,),
    "n_vectors": (int,),
    "vector_seed": (int,),
    "idle_selects": (str,),
    "delay_jitter": (int,),
    "check_function": (bool,),
    "mcts_budget": (int,),
    "mcts_seed": (int,),
}


def _single_cell_fields(body: Mapping[str, Any],
                        flow: str) -> Dict[str, Any]:
    if not isinstance(body, Mapping):
        raise RequestError("request body must be a JSON object")
    allowed = dict(_FLOW_FIELDS)
    if flow == "estimate":
        for field in _ESTIMATE_ONLY_EXCLUDED:
            del allowed[field]
    unknown = sorted(
        key for key in body
        if key not in allowed and key not in _CONTROL_FIELDS
    )
    if unknown:
        raise RequestError(
            f"unknown request field(s) {unknown}; accepted: "
            f"{sorted(allowed)}"
        )
    fields = dict(allowed)
    for key, value in body.items():
        if key in _CONTROL_FIELDS:
            continue
        expected = _TYPES[key]
        # bool is an int subclass: reject true where an int is wanted.
        if not isinstance(value, expected) or (
            isinstance(value, bool) and bool not in expected
        ):
            raise RequestError(
                f"field {key!r} expects "
                f"{'/'.join(t.__name__ for t in expected)}, "
                f"got {value!r}"
            )
        fields[key] = value
    if fields["benchmark"] is None:
        raise RequestError("field 'benchmark' is required")
    return fields


def single_cell_spec(body: Mapping[str, Any], flow: str) -> SweepSpec:
    """A one-cell grid for an ``/estimate`` or ``/flow`` request.

    The spec is validated eagerly so malformed requests fail at parse
    time with a 400, never inside the executor.
    """
    fields = _single_cell_fields(body, flow)
    defaults = _FLOW_FIELDS
    try:
        # Construction itself validates eagerly too (unknown binder
        # names raise in SweepSpec.__post_init__), so it stays inside
        # the 400 boundary.
        spec = SweepSpec(
            benchmarks=[fields["benchmark"]],
            configs=[BinderConfig(
                label=fields["binder"],
                binder=fields["binder"],
                alpha=float(fields["alpha"]),
            )],
            widths=(fields["width"],),
            vector_seeds=(fields.get("vector_seed",
                                     defaults["vector_seed"]),),
            n_vectors=fields.get("n_vectors", defaults["n_vectors"]),
            k=fields["k"],
            scheduler=fields["scheduler"],
            check_function=fields["check_function"],
            map_effort=fields["map_effort"],
            baseline="none",
            idle_modes=(fields.get("idle_selects",
                                   defaults["idle_selects"]),),
            jitters=(fields.get("delay_jitter",
                                defaults["delay_jitter"]),),
            flow=flow,
            mcts_budget=fields["mcts_budget"],
            mcts_seed=fields["mcts_seed"],
        )
        spec.validate()
    except ReproError as exc:  # ConfigError, unknown-benchmark, ...
        raise RequestError(str(exc)) from exc
    return spec


#: Accepted fields of a ``POST /ingest`` request: the design itself
#: plus the only flow knobs an external design consumes (it has no
#: schedule or binder, so the rest of ``_FLOW_FIELDS`` does not apply).
_INGEST_FIELDS: Dict[str, Any] = {
    "design": None,  # required: module JSON object/text or flat BLIF text
    "name": None,  # default: the design's own declared name
    "k": 4,
    "map_effort": "fast",
}


def ingest_spec(body: Mapping[str, Any]) -> SweepSpec:
    """A one-cell external-design grid for a ``POST /ingest`` request.

    ``design`` is either a ``repro-module-v1`` JSON object inline, or a
    string holding module JSON / flat BLIF text. Validation (format,
    widths, drivers, cycles) happens here, eagerly, so malformed
    designs are a 400 — never an executor crash.
    """
    import json

    if not isinstance(body, Mapping):
        raise RequestError("request body must be a JSON object")
    unknown = sorted(
        key for key in body
        if key not in _INGEST_FIELDS and key not in _CONTROL_FIELDS
    )
    if unknown:
        raise RequestError(
            f"unknown request field(s) {unknown}; accepted: "
            f"{sorted(_INGEST_FIELDS)}"
        )
    fields = dict(_INGEST_FIELDS)
    fields.update(
        (key, value) for key, value in body.items()
        if key not in _CONTROL_FIELDS
    )
    design = fields["design"]
    if isinstance(design, Mapping):
        design = json.dumps(design)
    if not isinstance(design, str) or not design.strip():
        raise RequestError(
            "field 'design' is required: a repro-module-v1 object, "
            "module JSON text, or flat BLIF text"
        )
    name = fields["name"]
    if name is None:
        from repro.ingest import load_design_text

        try:
            name = load_design_text(design).name
        except ReproError as exc:
            raise RequestError(str(exc))
    if not isinstance(name, str) or not name:
        raise RequestError(f"field 'name' expects a non-empty str, "
                           f"got {name!r}")
    if not isinstance(fields["k"], int) or isinstance(fields["k"], bool):
        raise RequestError(f"field 'k' expects int, got {fields['k']!r}")
    if not isinstance(fields["map_effort"], str):
        raise RequestError(
            f"field 'map_effort' expects str, got {fields['map_effort']!r}"
        )
    spec = SweepSpec(
        benchmarks=[],
        designs={name: design},
        k=fields["k"],
        map_effort=fields["map_effort"],
        baseline="none",
        flow="estimate",
    )
    try:
        spec.validate()
    except ReproError as exc:  # IngestError, NetlistError, ConfigError...
        raise RequestError(str(exc)) from exc
    return spec


def sweep_spec(body: Mapping[str, Any]) -> SweepSpec:
    """A full grid for a ``/sweep`` request.

    The body is either a :meth:`SweepSpec.to_dict` payload directly or
    wrapped under a ``"spec"`` key (so control fields like
    ``priority`` can ride alongside).
    """
    if not isinstance(body, Mapping):
        raise RequestError("request body must be a JSON object")
    payload = body.get("spec", None)
    if payload is None:
        payload = {
            key: value for key, value in body.items()
            if key not in _CONTROL_FIELDS
        }
    if not isinstance(payload, Mapping):
        raise RequestError("'spec' must be a JSON object")
    try:
        spec = SweepSpec.from_dict(payload)
    except (TypeError, ConfigError) as exc:
        raise RequestError(f"bad sweep spec: {exc}") from exc
    try:
        spec.validate()
    except ReproError as exc:
        raise RequestError(str(exc)) from exc
    return spec


def request_priority(body: Mapping[str, Any], default: int) -> int:
    """The queue priority of a request (lower runs sooner)."""
    priority = body.get("priority", default)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise RequestError(
            f"field 'priority' expects int, got {priority!r}"
        )
    return priority


def request_key(kind: str, spec: SweepSpec) -> str:
    """The in-flight deduplication key of a normalized request.

    Built from the same content-addressing primitive as the pipeline's
    stage fingerprints: the spec's serialized form fully determines
    every stage fingerprint of every cell in the request, so equal
    keys guarantee byte-identical work.
    """
    return fingerprint("serve", kind, spec.to_dict())


def cell_payload(cell: SweepCell) -> Dict[str, Any]:
    """The JSON shape of one result cell."""
    return {
        "benchmark": cell.benchmark,
        "config": cell.config,
        "binder": cell.binder,
        "alpha": cell.alpha,
        "width": cell.width,
        "vector_seed": cell.vector_seed,
        "idle_selects": cell.idle_selects,
        "delay_jitter": cell.delay_jitter,
        "map_effort": cell.map_effort,
        "metrics": cell.metrics,
        "runtime_s": cell.runtime_s,
        "cache_hits": list(cell.cache_hits),
    }

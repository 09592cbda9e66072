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
from repro.flow.knobs import (
    AXIS_KNOBS,
    DESIGN_STAGES,
    KNOBS,
    Knob,
    check_knob,
    full_flow_only,
    read_only_by,
)


class RequestError(ConfigError):
    """A malformed request body (maps to HTTP 400)."""


_SERVE_KNOBS = tuple(k for k in KNOBS.values() if k.serve)
#: Knobs a single-cell request may set, per flow: the table's
#: ``serve`` rows; ``/estimate`` drops those only a full flow reads.
_CELL_KNOBS: Dict[str, Tuple[Knob, ...]] = {
    "full": _SERVE_KNOBS,
    "estimate": tuple(k for k in _SERVE_KNOBS if not full_flow_only(k)),
}
#: What the cell runs (not knobs): defaults match a bare ``run_flow``.
_CELL_FIELDS: Dict[str, Any] = {
    "benchmark": None,  # required
    "binder": "hlpower",
}
#: Request fields consumed by the queue, not the spec.
_CONTROL_FIELDS = ("priority",)


def _request_fields(body: Mapping[str, Any], fields: Dict[str, Any],
                    knobs: Tuple[Knob, ...]) -> Dict[str, Any]:
    """``fields`` + knob defaults, overridden by the checked body."""
    if not isinstance(body, Mapping):
        raise RequestError("request body must be a JSON object")
    values = dict(fields)
    values.update((knob.name, knob.default) for knob in knobs)
    unknown = sorted(
        key for key in body
        if key not in values and key not in _CONTROL_FIELDS
    )
    if unknown:
        raise RequestError(
            f"unknown request field(s) {unknown}; accepted: "
            f"{sorted(values)}"
        )
    for key, value in body.items():
        if key in _CONTROL_FIELDS:
            continue
        if key in fields:
            if value is not None and not isinstance(value, str):
                raise RequestError(
                    f"field {key!r} expects str, got {value!r}"
                )
        else:
            try:
                check_knob(key, value)
            except ConfigError as exc:
                raise RequestError(str(exc)) from exc
        values[key] = value
    return values


def single_cell_spec(body: Mapping[str, Any], flow: str) -> SweepSpec:
    """A one-cell grid for an ``/estimate`` or ``/flow`` request.

    Every field is checked here (knobs by
    :func:`~repro.flow.knobs.check_knob`), so malformed requests fail
    at parse time with a 400, never inside the executor.
    """
    knobs = _CELL_KNOBS[flow]
    fields = _request_fields(body, _CELL_FIELDS, knobs)
    if fields["benchmark"] is None:
        raise RequestError("field 'benchmark' is required")
    kwargs: Dict[str, Any] = {}
    for knob in knobs:  # alpha rides in the binder column below
        if knob.scalar:
            kwargs[knob.name] = fields[knob.name]
        elif knob.name != "alpha":
            kwargs[knob.axis] = (fields[knob.name],)
    try:
        spec = SweepSpec(
            benchmarks=[fields["benchmark"]],
            configs=[BinderConfig(
                label=fields["binder"],
                binder=fields["binder"],
                alpha=float(fields["alpha"]),
            )],
            baseline="none",
            flow=flow,
            **kwargs,
        )
        spec.validate()
    except ReproError as exc:  # ConfigError, unknown-benchmark, ...
        raise RequestError(str(exc)) from exc
    return spec


#: The knobs an external design consumes: it has no schedule, binder
#: or simulation, only the mapping stages.
_INGEST_KNOBS = tuple(
    k for k in _SERVE_KNOBS if read_only_by(k, DESIGN_STAGES)
)
#: Accepted non-knob fields of a ``POST /ingest`` request.
_INGEST_FIELDS: Dict[str, Any] = {
    "design": None,  # required: module JSON object/text or flat BLIF text
    "name": None,  # default: the design's own declared name
}


def ingest_spec(body: Mapping[str, Any]) -> SweepSpec:
    """A one-cell external-design grid for a ``POST /ingest`` request.

    ``design`` is either a ``repro-module-v1`` JSON object inline, or a
    string holding module JSON / flat BLIF text. Validation (format,
    widths, drivers, cycles) happens here, eagerly, so malformed
    designs are a 400 — never an executor crash.
    """
    import json

    if isinstance(body, Mapping) and isinstance(body.get("design"),
                                                Mapping):
        body = dict(body, design=json.dumps(body["design"]))
    fields = _request_fields(body, _INGEST_FIELDS, _INGEST_KNOBS)
    design = fields["design"]
    if design is None or not design.strip():
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
    if not name:
        raise RequestError(f"field 'name' expects a non-empty str, "
                           f"got {name!r}")
    try:
        spec = SweepSpec(
            benchmarks=[],
            designs={name: design},
            baseline="none",
            flow="estimate",
            **{knob.name: fields[knob.name] for knob in _INGEST_KNOBS},
        )
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
    """The JSON shape of one result cell: its grid coordinates in row
    order, then its measurements."""
    return {
        "benchmark": cell.benchmark,
        "config": cell.config,
        "binder": cell.binder,
        "alpha": cell.alpha,
        **{knob.name: getattr(cell, knob.name) for knob in AXIS_KNOBS},
        "metrics": cell.metrics,
        "runtime_s": cell.runtime_s,
        "cache_hits": list(cell.cache_hits),
    }

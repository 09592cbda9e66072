"""Malformed knob values are a 400 at parse time on every endpoint.

The request model takes its fields, types and checks from the knob
table (repro.flow.knobs), so these tests are parametrized over
``KNOBS``: every bad value of every knob a request can carry is
rejected before anything is queued, and the daemon stays healthy.
A request line or header longer than the stream limit is a 400 too.
"""

import asyncio
import json

import pytest

from repro.flow.knobs import KNOBS, SWEEP_KNOBS
from repro.serve.api import (
    _CELL_KNOBS,
    _INGEST_KNOBS,
    RequestError,
    ingest_spec,
    single_cell_spec,
    sweep_spec,
)
from tests.knob_values import bad_values, cases, other_value
from tests.serve.test_ingest import MODULE
from tests.serve.test_server import http_request, run_scenario

SERVE_KNOBS = [knob for knob in KNOBS.values() if knob.serve]


def _sweep_body(knob, value):
    field = knob.name if knob.scalar else knob.axis
    return {"benchmarks": ["pr"],
            field: value if knob.scalar else [value]}


class TestRequestModel:
    def test_fields_match_the_table(self):
        # Today's settable values: the serve rows, minus the
        # simulation-only ones for /estimate; k and map_effort for
        # /ingest.
        assert {k.name for k in _CELL_KNOBS["full"]} == {
            "alpha", "width", "k", "scheduler", "map_effort", "n_vectors",
            "vector_seed", "idle_selects", "delay_jitter", "check_function",
            "mcts_budget", "mcts_seed",
        }
        assert {k.name for k in _CELL_KNOBS["full"]} - {
            k.name for k in _CELL_KNOBS["estimate"]
        } == {"n_vectors", "vector_seed", "idle_selects", "delay_jitter"}
        assert {k.name for k in _INGEST_KNOBS} == {"k", "map_effort"}

    @pytest.mark.parametrize("name", [k.name for k in SERVE_KNOBS])
    def test_value_reaches_the_spec(self, name):
        knob = KNOBS[name]
        value = other_value(knob)
        spec = single_cell_spec(
            {"benchmark": "pr", "binder": "mcts", name: value}, "full"
        )
        if knob.scalar:
            assert getattr(spec, name) == value
        elif knob.name == "alpha":
            assert [c.alpha for c in spec.binder_configs()] == [value]
        else:
            assert list(getattr(spec, knob.axis)) == [value]

    @pytest.mark.parametrize("name,value", cases(SERVE_KNOBS, bad_values))
    @pytest.mark.parametrize("flow", ["full", "estimate"])
    def test_single_cell_rejects(self, flow, name, value):
        with pytest.raises(RequestError):
            single_cell_spec({"benchmark": "pr", name: value}, flow)

    @pytest.mark.parametrize("name,value", cases(SWEEP_KNOBS, bad_values))
    def test_sweep_rejects(self, name, value):
        with pytest.raises(RequestError):
            sweep_spec(_sweep_body(KNOBS[name], value))

    @pytest.mark.parametrize("name,value", cases(_INGEST_KNOBS, bad_values))
    def test_ingest_rejects(self, name, value):
        with pytest.raises(RequestError):
            ingest_spec({"design": MODULE, name: value})

    def test_empty_axis_rejected(self):
        with pytest.raises(RequestError):
            sweep_spec({"benchmarks": ["pr"], "map_efforts": []})


#: Raw bodies (``NaN`` is what ``json.loads`` accepts on the wire).
REPORTED = [
    ("/sweep", '{"benchmarks": ["pr"], "jitters": ["a"]}'),
    ("/sweep", '{"benchmarks": ["pr"], "sim_batch": "x"}'),
    ("/sweep", '{"benchmarks": ["pr"], "alphas": ["x"]}'),
    ("/sweep", '{"benchmarks": ["pr"], "vector_seeds": ["x"]}'),
    ("/sweep", '{"benchmarks": ["pr"], "widths": [0]}'),
    ("/sweep", '{"benchmarks": ["pr"], "n_vectors": 0}'),
    ("/sweep", '{"benchmarks": ["pr"], "k": 0}'),
    ("/sweep", '{"benchmarks": ["pr"], "k": 7}'),
    ("/sweep", '{"benchmarks": ["pr"], "jitters": [1.5]}'),
    ("/sweep", '{"benchmarks": ["pr"], "map_efforts": []}'),
    ("/sweep", '{"benchmarks": ["pr"], "check_function": "no"}'),
    ("/sweep", '{"benchmarks": ["pr"], "alphas": [NaN]}'),
    ("/sweep", '{"benchmarks": ["pr"], "alphas": [-3.0]}'),
    ("/flow", '{"benchmark": "pr", "width": 0}'),
    ("/flow", '{"benchmark": "pr", "k": 0}'),
    ("/flow", '{"benchmark": "pr", "k": 1}'),
    ("/flow", '{"benchmark": "pr", "k": 7}'),
    ("/flow", '{"benchmark": "pr", "n_vectors": 0}'),
    ("/flow", '{"benchmark": "pr", "alpha": NaN}'),
    ("/flow", '{"benchmark": "pr", "check_function": "no"}'),
    ("/estimate", '{"benchmark": "pr", "k": 0}'),
    ("/estimate", '{"benchmark": "pr", "k": 1}'),
    ("/estimate", '{"benchmark": "pr", "k": 7}'),
    ("/ingest", json.dumps({"design": MODULE, "k": 0})),
    ("/ingest", json.dumps({"design": MODULE, "k": 7})),
]


#: Whole requests whose one line outgrows the asyncio stream limit
#: (64 KiB): an over-long request line and an over-long header.
OVERLONG = [
    b"POST /" + b"e" * 70_000 + b" HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    b"POST /estimate HTTP/1.1\r\nX-Pad: " + b"x" * 70_000
    + b"\r\nContent-Length: 2\r\n\r\n{}",
]


async def _raw_request(port, raw_request):
    """Send ``raw_request`` verbatim; returns the status code."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw_request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return int(raw.split(b" ", 2)[1])


async def _raw_post(port, path, text):
    """POST ``text`` verbatim; returns the status code."""
    payload = text.encode()
    return await _raw_request(
        port,
        f"POST {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n".encode() + payload,
    )


def test_daemon_answers_400_before_queueing():
    async def scenario(server):
        before = server.executor.stats.submissions
        statuses = [await _raw_post(server.port, path, text)
                    for path, text in REPORTED]
        statuses += [await _raw_request(server.port, raw)
                     for raw in OVERLONG]
        after_bad = server.executor.stats.submissions
        # Accepted-request counters grow only once a request is queued.
        queued = {kind: server.requests[kind]
                  for kind in ("estimate", "flow", "sweep", "ingest")}
        valid = await http_request(
            server.port, "POST", "/estimate", {"benchmark": "pr", "width": 4}
        )
        return before, statuses, after_bad, queued, valid[0]

    before, statuses, after_bad, queued, valid = run_scenario(scenario)
    assert statuses == [400] * (len(REPORTED) + len(OVERLONG))
    assert after_bad == before
    assert set(queued.values()) == {0}
    assert valid == 200

"""Daemon tests: HTTP round trips, byte-identical responses versus the
direct flow entry points, in-flight deduplication, priority ordering,
streaming sweeps, and metrics."""

import asyncio
import json

import pytest

from repro.cdfg import benchmark_spec, load_benchmark
from repro.flow import FlowConfig, SweepSpec, run_sweep
from repro.flow.run import run_estimate, run_flow
from repro.scheduling import list_schedule
from repro.serve import FlowServer, ServeConfig
from repro.serve.api import single_cell_spec
from repro.serve.server import PRIORITY_SINGLE, PRIORITY_SWEEP


def run_scenario(scenario, config=None):
    """Start a daemon on an ephemeral port, run one async scenario
    against it, and always stop it."""

    async def runner():
        server = FlowServer(config or ServeConfig(port=0))
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


async def http_request(port, method, path, body=None):
    """One HTTP/1.1 request; returns (status, headers, body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: test\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return _parse_response(raw)


def _parse_response(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body = _dechunk(body)
    return status, headers, body


def _dechunk(body):
    out = b""
    rest = body
    while rest:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        out += rest[:size]
        rest = rest[size + 2:]  # skip payload + trailing CRLF
    return out


def _direct_estimate_metrics(benchmark, binder="hlpower",
                             **config_overrides):
    spec = benchmark_spec(benchmark)
    schedule = list_schedule(load_benchmark(benchmark), spec.constraints)
    config = FlowConfig(flow="estimate", **config_overrides)
    return run_estimate(
        schedule, spec.constraints, binder, config
    ).metrics()


class TestSingleCellEndpoints:
    def test_estimate_byte_identical_to_run_estimate(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/estimate",
                {"benchmark": "pr", "width": 4},
            )

        status, _, body = run_scenario(scenario)
        assert status == 200
        payload = json.loads(body)
        assert payload["benchmark"] == "pr"
        assert payload["config"] == "hlpower"
        assert payload["metrics"] == _direct_estimate_metrics(
            "pr", width=4
        )

    def test_flow_byte_identical_to_run_flow(self):
        async def scenario(server):
            return await http_request(
                server.port, "POST", "/flow",
                {"benchmark": "pr", "width": 4, "n_vectors": 16,
                 "binder": "lopass"},
            )

        status, _, body = run_scenario(scenario)
        assert status == 200
        payload = json.loads(body)
        spec = benchmark_spec("pr")
        schedule = list_schedule(load_benchmark("pr"), spec.constraints)
        direct = run_flow(
            schedule, spec.constraints, "lopass",
            FlowConfig(width=4, n_vectors=16),
        )
        assert payload["metrics"] == direct.metrics()

    def test_repeated_request_served_warm_and_identical(self):
        async def scenario(server):
            first = await http_request(
                server.port, "POST", "/estimate",
                {"benchmark": "pr", "width": 4},
            )
            second = await http_request(
                server.port, "POST", "/estimate",
                {"benchmark": "pr", "width": 4},
            )
            return first, second, server.executor.stats

        (s1, _, b1), (s2, _, b2), stats = run_scenario(scenario)
        assert s1 == s2 == 200
        assert json.loads(b1)["metrics"] == json.loads(b2)["metrics"]
        # The second request's cells were all cache hits on the
        # resident executor.
        assert stats.cache.hits > 0

    def test_validation_errors_are_400(self):
        async def scenario(server):
            missing = await http_request(
                server.port, "POST", "/estimate", {}
            )
            unknown = await http_request(
                server.port, "POST", "/estimate", {"benchmark": "nope"}
            )
            badjson = await http_request(
                server.port, "POST", "/estimate"
            )
            retired = await http_request(
                server.port, "POST", "/estimate",
                {"benchmark": "pr", "bind_engine": "fast"},
            )
            return missing, unknown, badjson, retired

        missing, unknown, badjson, retired = run_scenario(scenario)
        assert missing[0] == 400
        assert unknown[0] == 400
        assert badjson[0] == 200 or badjson[0] == 400  # empty body = {}
        assert b"benchmark" in missing[2]
        # A retired engine knob is an unknown field, named in the 400.
        assert retired[0] == 400
        assert b"bind_engine" in retired[2]

    def test_unroutable_requests(self):
        async def scenario(server):
            not_found = await http_request(server.port, "GET", "/nope")
            wrong_method = await http_request(
                server.port, "GET", "/estimate"
            )
            return not_found, wrong_method

        not_found, wrong_method = run_scenario(scenario)
        assert not_found[0] == 404
        assert wrong_method[0] == 405


class TestDeduplication:
    def test_identical_inflight_requests_share_one_computation(self):
        async def scenario(server):
            body = {"benchmark": "pr", "width": 4}
            responses = await asyncio.gather(*[
                http_request(server.port, "POST", "/estimate", body)
                for _ in range(8)
            ])
            metrics = await http_request(server.port, "GET", "/metrics")
            return responses, json.loads(metrics[2])

        responses, metrics = run_scenario(scenario)
        bodies = {body for _, _, body in responses}
        assert all(status == 200 for status, _, _ in responses)
        # Byte-identical shared result for every waiter.
        assert len(bodies) == 1
        assert metrics["deduped"] > 0
        # Dedup means strictly fewer executor submissions than requests.
        assert metrics["executor"]["submissions"] < 8
        assert metrics["requests"]["estimate"] == 8

    def test_submit_level_dedup_is_exact(self):
        """Two identical submissions share one future; a different
        request gets its own."""

        async def scenario():
            server = FlowServer(ServeConfig(port=0))
            # No start(): the queue accepts submissions without the
            # scheduler running, so the in-flight window is inspectable.
            spec_a = single_cell_spec({"benchmark": "pr"}, "estimate")
            spec_b = single_cell_spec(
                {"benchmark": "pr", "width": 4}, "estimate"
            )
            f1 = server._submit("estimate", spec_a, PRIORITY_SINGLE)
            f2 = server._submit("estimate", spec_a, PRIORITY_SINGLE)
            f3 = server._submit("estimate", spec_b, PRIORITY_SINGLE)
            return f1 is f2, f1 is f3, server.deduped, len(server._heap)

        shared, distinct, deduped, depth = asyncio.run(scenario())
        assert shared
        assert not distinct
        assert deduped == 1
        assert depth == 2  # the duplicate never re-enqueued

    @pytest.mark.slow
    def test_concurrent_load_collapses_onto_few_submissions(self):
        configs = [
            {"benchmark": bench, "binder": binder, "width": 4}
            for bench in ("pr", "wang")
            for binder in ("lopass", "hlpower")
        ]
        bodies = [configs[i % len(configs)] for i in range(200)]

        async def scenario(server):
            before = server.executor.stats.submissions
            responses = await asyncio.gather(*[
                http_request(server.port, "POST", "/estimate", body)
                for body in bodies
            ])
            return responses, server.executor.stats.submissions - before

        responses, submissions = run_scenario(scenario)
        assert [status for status, _, _ in responses] == [200] * len(bodies)
        served = {}
        for body, (_, _, payload) in zip(bodies, responses):
            key = (body["benchmark"], body["binder"])
            served.setdefault(key, []).append(json.loads(payload)["metrics"])
        for (bench, binder), metrics in served.items():
            direct = _direct_estimate_metrics(bench, binder, width=4)
            assert all(m == direct for m in metrics), (bench, binder)
        # In-flight dedup: the concurrent duplicates ride a handful of
        # computations instead of one submission per request.
        assert submissions <= len(bodies) // 10, submissions


class TestPriorityQueue:
    def test_lower_priority_number_runs_first(self):
        async def scenario():
            server = FlowServer(ServeConfig(port=0))
            spec = single_cell_spec({"benchmark": "pr"}, "estimate")
            slow = single_cell_spec({"benchmark": "chem"}, "estimate")
            wide = single_cell_spec({"benchmark": "dir"}, "estimate")
            server._submit("estimate", slow, PRIORITY_SWEEP)
            server._submit("estimate", spec, PRIORITY_SINGLE)
            server._submit("estimate", wide, 5)
            import heapq
            order = []
            heap = list(server._heap)
            while heap:
                _, _, key = heapq.heappop(heap)
                order.append(server._inflight[key].spec.benchmarks[0])
            return order

        assert asyncio.run(scenario()) == ["pr", "dir", "chem"]

    def test_queue_limit_maps_to_503(self):
        async def scenario(server):
            # queue_limit=0: every submission is refused immediately.
            return await http_request(
                server.port, "POST", "/estimate", {"benchmark": "pr"}
            )

        status, _, body = run_scenario(
            scenario, ServeConfig(port=0, queue_limit=0)
        )
        assert status == 503
        assert b"queue full" in body


class TestSweepStreaming:
    def test_sweep_streams_cells_and_matches_run_sweep(self):
        spec_dict = {
            "benchmarks": ["pr"],
            "binders": ["lopass", "hlpower"],
            "widths": [4],
            "vector_seeds": [7, 8],
            "n_vectors": 16,
        }

        async def scenario(server):
            return await http_request(
                server.port, "POST", "/sweep", {"spec": spec_dict}
            )

        status, headers, body = run_scenario(scenario)
        assert status == 200
        assert headers["content-type"] == "application/x-ndjson"
        lines = [json.loads(line) for line in body.splitlines() if line]
        cells = [line["cell"] for line in lines if "cell" in line]
        (summary,) = [
            line["summary"] for line in lines if "summary" in line
        ]
        direct = run_sweep(SweepSpec(**{
            key: value for key, value in spec_dict.items()
        }))
        assert len(cells) == len(direct.cells) == summary["cells"]
        assert [c["metrics"] for c in cells] == \
            [c.metrics for c in direct.cells]
        # PR 6's fingerprint-grouped batching ran on the daemon too.
        assert summary["sim_batches"] == direct.sim_batches > 0

    def test_bad_sweep_spec_is_400(self):
        async def scenario(server):
            empty = await http_request(
                server.port, "POST", "/sweep", {"benchmarks": []}
            )
            retired = await http_request(
                server.port, "POST", "/sweep",
                {"spec": {"benchmarks": ["pr"], "sim_kernel": "event"}},
            )
            return empty, retired

        empty, retired = run_scenario(scenario)
        assert empty[0] == 400
        assert retired[0] == 400
        assert b"sim_kernel" in retired[2]


class TestMetricsEndpoint:
    def test_counters_and_executor_stats_present(self):
        async def scenario(server):
            await http_request(
                server.port, "POST", "/estimate", {"benchmark": "pr"}
            )
            await http_request(server.port, "GET", "/healthz")
            return await http_request(server.port, "GET", "/metrics")

        status, _, body = run_scenario(scenario)
        assert status == 200
        metrics = json.loads(body)
        assert metrics["requests"]["estimate"] == 1
        assert metrics["requests"]["healthz"] == 1
        assert metrics["cells_served"] == 1
        assert metrics["queue_depth"] == 0
        assert metrics["inflight"] == 0
        assert metrics["executor"]["submissions"] == 1
        assert "hit_rate" in metrics["executor"]["cache"]
        assert metrics["executor"]["cone_memo"]["misses"] > 0
        assert metrics["uptime_s"] >= 0.0


class TestWireSchemaPins:
    """The key sets and order clients read from a ``/sweep`` summary
    line and from ``/metrics``' executor record."""

    CACHE_KEYS = [
        "disk_corrupt", "disk_evictions", "disk_hits", "disk_read_s",
        "disk_write_s", "entries", "evictions", "hit_rate", "hits",
        "lookup_s", "misses", "stores",
    ]

    def test_sweep_summary_and_executor_metrics_keys(self):
        async def scenario(server):
            sweep = await http_request(server.port, "POST", "/sweep", {
                "spec": {"benchmarks": ["pr"], "binders": ["lopass"],
                         "widths": [4], "n_vectors": 16},
            })
            metrics = await http_request(server.port, "GET", "/metrics")
            return sweep, metrics

        sweep, metrics = run_scenario(scenario)
        lines = [json.loads(line) for line in sweep[2].splitlines() if line]
        (summary,) = [line["summary"] for line in lines if "summary" in line]
        assert list(summary) == [
            "cache", "cells", "sa_new_entries", "sim_batch_wall_s",
            "sim_batched_cells", "sim_batches",
        ]
        assert list(summary["cache"]) == self.CACHE_KEYS
        executor = json.loads(metrics[2])["executor"]
        assert list(executor) == [
            "cache", "cells", "chunks", "cone_memo", "sa_new_entries",
            "schedule_cache_hits", "schedule_cache_misses",
            "sim_batch_wall_s", "sim_batched_cells", "sim_batches",
            "submissions", "wall_s",
        ]
        assert list(executor["cache"]) == self.CACHE_KEYS
        assert list(executor["cone_memo"]) == ["hits", "misses", "resets"]

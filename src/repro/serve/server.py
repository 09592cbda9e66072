"""The ``repro serve`` daemon: an asyncio HTTP/JSON front end over a
resident :class:`~repro.flow.executor.FlowExecutor`.

Stdlib only. The event loop owns connections, the request queue, and
metrics; flow execution happens in a single worker thread that drains
the queue in priority order and submits to the executor (whose warm
memos — elaboration memo, artifact cache, SA table — persist for the
daemon's whole lifetime, so repeated queries are served from
incremental shared structure instead of recomputed).

Endpoints (see docs/serving.md):

* ``POST /estimate`` — one cell of the partial flow (stops after
  tech-map); responds with the cell's metrics, byte-identical to a
  direct :func:`~repro.flow.run.run_estimate`.
* ``POST /flow`` — one cell of the full measurement chain.
* ``POST /sweep`` — a full :class:`~repro.flow.grid.SweepSpec` grid;
  the response streams one NDJSON line per cell as it lands (the
  executor's fingerprint-grouped simulation batching applies), then a
  summary line.
* ``GET /metrics`` — JSON counters: per-endpoint request counts,
  queue depth, in-flight dedup hits, executor and artifact-cache
  stats.
* ``GET /healthz`` — liveness probe.

Queueing: every request carries an integer ``priority`` (lower runs
sooner; default 0 for single-cell requests, 10 for sweeps), and
identical in-flight single-cell requests — same normalized spec, see
:func:`~repro.serve.api.request_key` — are deduplicated onto one
pending computation whose result every waiter shares. Sweeps stream,
so they are never coalesced with each other.

Shutdown: SIGTERM/SIGINT stop accepting connections, drain the
in-flight request, persist the SA table if file-backed, and exit 0.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import json
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.binding import SATable
from repro.binding.sa_table import SHIPPED_TABLE_PATH
from repro.errors import ConfigError, ReproError
from repro.flow.executor import DEFAULT_CACHE_ENTRIES, FlowExecutor
from repro.flow.grid import SweepSpec, expand_grid
from repro.serve.api import (
    RequestError,
    cell_payload,
    ingest_spec,
    request_key,
    request_priority,
    single_cell_spec,
    sweep_spec,
)

#: Default queue priorities (lower runs sooner).
PRIORITY_SINGLE = 0
PRIORITY_SWEEP = 10

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINES = 100


@dataclass
class ServeConfig:
    """Construction knobs of one daemon instance."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (tests); the bound port is
    #: published as ``FlowServer.port`` after ``start()``.
    port: int = 8791
    jobs: int = 1
    cache_entries: int = DEFAULT_CACHE_ENTRIES
    #: Sharded on-disk artifact store shared across restarts/processes.
    cache_dir: Optional[str] = None
    #: File-backed SA table, saved once at shutdown.
    sa_table: Optional[str] = None
    #: SA table read at start-up but never written, used when
    #: ``sa_table`` is unset (``repro serve`` passes the shipped table).
    sa_table_source: Optional[str] = None
    #: Requests queued beyond this respond 503 immediately.
    queue_limit: int = 10000


@dataclass
class _Pending:
    """One queued (possibly shared) computation."""

    kind: str
    spec: SweepSpec
    future: "asyncio.Future[Any]"
    #: Per-cell stream for sweep requests (None for single cells).
    stream: Optional["asyncio.Queue[Any]"] = None
    #: How many requests ride this computation (1 + dedup hits).
    waiters: int = 1


class FlowServer:
    """The daemon: HTTP front end + priority queue + resident executor.

    Owns its executor unless one is injected (tests share a pre-warmed
    one); an injected executor is not shut down by :meth:`stop`.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        executor: Optional[FlowExecutor] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self._table: Optional[SATable] = None
        if self.config.sa_table:
            self._table = SATable(path=self.config.sa_table)
        elif self.config.sa_table_source:
            self._table = SATable().load(self.config.sa_table_source)
        self._owns_executor = executor is None
        self.executor = executor or FlowExecutor(
            jobs=self.config.jobs,
            sa_table=self._table,
            cache_entries=self.config.cache_entries,
            cache_dir=self.config.cache_dir,
        )
        self.port: Optional[int] = None
        self.requests: Dict[str, int] = {
            "estimate": 0, "flow": 0, "sweep": 0, "ingest": 0,
            "metrics": 0, "healthz": 0, "errors": 0,
        }
        self.deduped = 0
        self.cells_served = 0
        self._started_at: Optional[float] = None
        self._seq = itertools.count()
        self._heap: List[Tuple[int, int, str]] = []
        self._queued = asyncio.Event()
        self._inflight: Dict[str, _Pending] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._scheduler_task: Optional[asyncio.Task] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self.executor.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self._scheduler_task = asyncio.create_task(self._scheduler())

    async def stop(self) -> None:
        """Stop accepting, drain the running request, release workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._scheduler_task is not None:
            # Let the currently-executing submission finish; anything
            # still queued is abandoned (clients see the connection
            # close — they never got a response line).
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        for pending in self._inflight.values():
            if not pending.future.done():
                pending.future.cancel()
        self._inflight.clear()
        if self._table is not None:
            self._table.save_if_dirty()
        if self._owns_executor:
            self.executor.shutdown()

    # -- queue + scheduler -------------------------------------------------

    def _submit(
        self,
        kind: str,
        spec: SweepSpec,
        priority: int,
        stream: Optional["asyncio.Queue[Any]"] = None,
    ) -> "asyncio.Future[Any]":
        """Enqueue one computation, deduplicating single-cell requests.

        Returns the future every identical in-flight request shares.
        Dedup covers the whole in-flight window — queued *and*
        executing — and ends when the future resolves; a later
        identical request recomputes (and hits the warm cache).
        """
        key = request_key(kind, spec)
        if stream is None:
            pending = self._inflight.get(key)
            if pending is not None:
                pending.waiters += 1
                self.deduped += 1
                return pending.future
        else:
            # Streaming responses are tied to one connection: never
            # share them.
            key = f"{key}:{next(self._seq)}"
        if len(self._heap) >= self.config.queue_limit:
            raise _Overloaded()
        pending = _Pending(
            kind=kind,
            spec=spec,
            future=asyncio.get_running_loop().create_future(),
            stream=stream,
        )
        self._inflight[key] = pending
        heapq.heappush(self._heap, (priority, next(self._seq), key))
        self._queued.set()
        return pending.future

    async def _scheduler(self) -> None:
        """Drain the queue in priority order, one submission at a time.

        Single worker by design: the executor serializes submissions
        anyway (its warm state must not be mutated concurrently), and
        a single drain point keeps completion order deterministic.
        """
        loop = asyncio.get_running_loop()
        while True:
            while not self._heap:
                self._queued.clear()
                await self._queued.wait()
            _, _, key = heapq.heappop(self._heap)
            pending = self._inflight.get(key)
            if pending is None or pending.future.cancelled():
                continue
            progress = None
            if pending.stream is not None:
                queue = pending.stream

                def progress(cell, _queue=queue):
                    loop.call_soon_threadsafe(_queue.put_nowait, cell)

            try:
                job_list = expand_grid(pending.spec)
                submission = await asyncio.to_thread(
                    self.executor.run_jobs, pending.spec, job_list,
                    progress=progress,
                )
                self.cells_served += len(submission.cells)
                if not pending.future.cancelled():
                    pending.future.set_result(submission)
            except Exception as exc:  # surfaced per-waiter as 4xx/5xx
                if not pending.future.cancelled():
                    pending.future.set_exception(exc)
            finally:
                self._inflight.pop(key, None)
                if pending.stream is not None:
                    loop.call_soon_threadsafe(
                        pending.stream.put_nowait, _EndOfStream
                    )

    # -- HTTP --------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _BadRequest as exc:
                self.requests["errors"] += 1
                await _respond_json(
                    writer, 400, {"error": str(exc) or "bad request"}
                )
                return
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception:
            self.requests["errors"] += 1
            try:
                await _respond_json(
                    writer, 500, {"error": "internal server error"}
                )
            except (ConnectionError, OSError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = await reader.readline()
        if not request_line:
            raise _BadRequest("empty request")
        try:
            method, target, _version = (
                request_line.decode("ascii").split(None, 2)
            )
        except (UnicodeDecodeError, ValueError):
            raise _BadRequest("malformed request line")
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers")
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise _BadRequest(f"bad Content-Length {length_raw!r}")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _BadRequest("body too large")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _route(
        self, method: str, path: str, body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        if path == "/metrics" and method == "GET":
            self.requests["metrics"] += 1
            await _respond_json(writer, 200, self.metrics())
            return
        if path == "/healthz" and method == "GET":
            self.requests["healthz"] += 1
            await _respond_json(writer, 200, {"status": "ok"})
            return
        if path in ("/estimate", "/flow", "/sweep", "/ingest"):
            if method != "POST":
                self.requests["errors"] += 1
                await _respond_json(
                    writer, 405, {"error": f"{path} expects POST"}
                )
                return
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError as exc:
                self.requests["errors"] += 1
                await _respond_json(
                    writer, 400, {"error": f"bad JSON body: {exc}"}
                )
                return
            if path == "/sweep":
                await self._handle_sweep(payload, writer)
            else:
                await self._handle_single(path[1:], payload, writer)
            return
        self.requests["errors"] += 1
        await _respond_json(writer, 404, {"error": f"no route {path}"})

    async def _handle_single(
        self, kind: str, payload: Any, writer: asyncio.StreamWriter
    ) -> None:
        try:
            if kind == "ingest":
                # External-design estimate: same submission path, the
                # spec is a one-design grid instead of a one-benchmark
                # one (see repro.ingest for the frontend).
                spec = ingest_spec(payload)
            else:
                spec = single_cell_spec(
                    payload, "estimate" if kind == "estimate" else "full"
                )
            priority = request_priority(payload, PRIORITY_SINGLE)
            future = self._submit(kind, spec, priority)
        except RequestError as exc:
            self.requests["errors"] += 1
            await _respond_json(writer, 400, {"error": str(exc)})
            return
        except _Overloaded:
            self.requests["errors"] += 1
            await _respond_json(
                writer, 503, {"error": "queue full, retry later"}
            )
            return
        self.requests[kind] += 1
        try:
            submission = await asyncio.shield(future)
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            self.requests["errors"] += 1
            await _respond_json(writer, 400, {"error": str(exc)})
            return
        except Exception:
            self.requests["errors"] += 1
            await _respond_json(
                writer, 500, {"error": "flow execution failed"}
            )
            return
        (cell,) = submission.cells
        await _respond_json(writer, 200, cell_payload(cell))

    async def _handle_sweep(
        self, payload: Any, writer: asyncio.StreamWriter
    ) -> None:
        stream: "asyncio.Queue[Any]" = asyncio.Queue()
        try:
            spec = sweep_spec(payload)
            priority = request_priority(payload, PRIORITY_SWEEP)
            future = self._submit("sweep", spec, priority, stream=stream)
        except RequestError as exc:
            self.requests["errors"] += 1
            await _respond_json(writer, 400, {"error": str(exc)})
            return
        except _Overloaded:
            self.requests["errors"] += 1
            await _respond_json(
                writer, 503, {"error": "queue full, retry later"}
            )
            return
        self.requests["sweep"] += 1
        await _start_chunked(writer, 200, "application/x-ndjson")
        while True:
            item = await stream.get()
            if item is _EndOfStream:
                break
            await _write_chunk(
                writer, _json_line({"cell": cell_payload(item)})
            )
        try:
            submission = future.result() if future.done() else await future
            summary = {
                "summary": {
                    "cells": len(submission.cells),
                    "sa_new_entries": submission.sa_new_entries,
                    "sim_batches": submission.sim_batches,
                    "sim_batched_cells": submission.sim_batched_cells,
                    "sim_batch_wall_s": submission.sim_batch_wall_s,
                    "cache": submission.cache.to_dict(),
                }
            }
        except ReproError as exc:
            self.requests["errors"] += 1
            summary = {"error": str(exc)}
        except Exception:
            self.requests["errors"] += 1
            summary = {"error": "flow execution failed"}
        await _write_chunk(writer, _json_line(summary))
        await _end_chunked(writer)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        return {
            "uptime_s": uptime,
            "requests": dict(self.requests),
            "deduped": self.deduped,
            "cells_served": self.cells_served,
            "queue_depth": len(self._heap),
            "inflight": len(self._inflight),
            "executor": self.executor.stats.to_dict(),
        }


class _BadRequest(Exception):
    """Unparseable HTTP request (maps to 400)."""


class _Overloaded(Exception):
    """Queue at capacity (maps to 503)."""


#: Sentinel closing a sweep's per-cell stream.
_EndOfStream = object()


_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable",
}


def _json_line(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode() + b"\n"


async def _respond_json(
    writer: asyncio.StreamWriter, status: int, payload: Any
) -> None:
    body = json.dumps(payload, sort_keys=True).encode() + b"\n"
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("ascii")
    writer.write(head + body)
    await writer.drain()


async def _start_chunked(
    writer: asyncio.StreamWriter, status: int, content_type: str
) -> None:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Transfer-Encoding: chunked\r\n"
        f"Connection: close\r\n"
        f"\r\n"
    ).encode("ascii")
    writer.write(head)
    await writer.drain()


async def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
    await writer.drain()


async def _end_chunked(writer: asyncio.StreamWriter) -> None:
    writer.write(b"0\r\n\r\n")
    await writer.drain()


async def serve_forever(config: ServeConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain and exit 0."""
    server = FlowServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stopping.set)
        except (NotImplementedError, RuntimeError):
            pass
    print(
        f"repro serve: listening on http://{server.config.host}:"
        f"{server.port} (jobs={config.jobs}, "
        f"cache_dir={config.cache_dir or '-'})",
        flush=True,
    )
    try:
        await stopping.wait()
    finally:
        await server.stop()
    print("repro serve: shut down cleanly", flush=True)
    return 0


def main(args: Any) -> int:
    """CLI entry point (``repro serve``)."""
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache_entries=args.cache_entries,
        cache_dir=args.cache_dir,
        sa_table=args.sa_table,
        sa_table_source=SHIPPED_TABLE_PATH,
    )
    try:
        return asyncio.run(serve_forever(config))
    except ConfigError as exc:
        raise SystemExit(f"error: {exc}")

"""Asyncio-streams HTTP/JSON front end for the arithmetic service.

Stdlib-only: a minimal HTTP/1.1 implementation over
``asyncio.start_server`` — enough protocol for the blocking client,
curl, and a Prometheus scraper, with ``Connection: close`` semantics
per request.

Endpoints
---------
``POST /v1/simulate``  — body: a :class:`~repro.service.model.SimRequest`
    JSON object.  200 with a ``SimResponse`` JSON body; 400 on schema
    violations; 422 when the circuit fails static analysis or is wider
    than an explicitly requested dense method admits; 429 +
    ``Retry-After`` under backpressure; 500 when every execution
    attempt failed; 503 while draining.
``POST /v1/sweep``  — body: a :class:`~repro.service.model.SweepRequest`
    JSON object (one base request + a list of error rates).  Streams
    per-cell partial results as chunked JSON-lines
    (``application/x-ndjson``): one header line, one line per cell *in
    completion order*, one trailing ``done`` line — so adaptive
    early-stoppers can act on partials.  Pre-stream failures use the
    same status codes as ``/v1/simulate``; per-cell failures ride the
    stream as ``error`` lines.  A mid-stream client disconnect cancels
    the not-yet-executed cells without touching cells already
    running.
``GET /healthz``  — liveness and drain state.
``GET /stats``    — JSON: queue, executor, result-cache, compile-cache,
    kernel-cache, fusion-gate counters plus latency summaries.
``GET /metrics``  — Prometheus text exposition.

A request whose ``Content-Length`` is not a non-negative integer gets
400; a body over 1 MiB gets 413 and is never read.  A request line or
header line over the stream's 64 KiB line limit gets 414 or 431, and
a request not fully received within :data:`_READ_DEADLINE_S` seconds
(a stalled client, a body shorter than its ``Content-Length``) gets
408.

Every response carries an ``X-Request-Id`` header (pid + monotone
sequence — no clock, no RNG) for log correlation; the client surfaces
it on errors.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from typing import Any, Dict, Optional, Set, Tuple

from .cache import ResultCache
from .executor import (
    CircuitRejected,
    ExecutionFailed,
    SimulationExecutor,
    lint_gate,
)
from .fusion import FusionGate, fusion_stats
from .metrics import ServiceMetrics
from .model import (
    RequestValidationError,
    SimRequest,
    SimResponse,
    SweepRequest,
)
from .scheduler import AdmissionError, JobScheduler
from .stats import cache_stats_snapshot

__all__ = ["ArithmeticService", "ServerThread"]

_MAX_BODY = 1 << 20  # 1 MiB of JSON is far beyond any valid request

#: Seconds to receive one whole request (request line, headers, body).
_READ_DEADLINE_S = 10.0

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """A request rejected while reading it, with its 4xx status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ArithmeticService:
    """The long-lived service: scheduler + executor + HTTP front end.

    Without an ``executor`` it runs requests on threads of this process
    (``SimulationExecutor(workers=0)``): an embedding program and the
    tests then share one set of caches.  ``repro-serve`` passes a
    process-tier executor instead.
    """

    def __init__(
        self,
        executor: Optional[SimulationExecutor] = None,
        cache: Optional[ResultCache] = None,
        metrics: Optional[ServiceMetrics] = None,
        max_queue: int = 256,
        concurrency: int = 4,
        lint_requests: bool = True,
        fusion: Optional[FusionGate] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.executor = executor if executor is not None else SimulationExecutor(
            workers=0, concurrency=concurrency
        )
        self.cache = cache if cache is not None else ResultCache()
        if fusion is not None:
            # An externally built queue still shares the service's
            # registry and result cache.
            fusion.metrics = self.metrics
            if fusion.cache is None:
                fusion.cache = self.cache
        self.scheduler = JobScheduler(
            self.executor,
            cache=self.cache,
            metrics=self.metrics,
            max_queue=max_queue,
            concurrency=concurrency,
            fusion=fusion,
        )
        self.fusion = self.scheduler.fusion
        self.lint_requests = lint_requests
        self.started_at = time.monotonic()
        self.draining = False
        #: Stats snapshot flushed by a graceful shutdown (None until then).
        self.final_stats: Optional[Dict[str, Any]] = None
        self._inflight_http = 0
        self._request_seq = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self.metrics.register_gauge(
            "result_cache_bytes", lambda: self.cache.total_bytes
        )
        self.metrics.register_gauge(
            "inflight_requests", lambda: self._inflight_http
        )
        # Trajectory-scheduler efficiency.  The ``batch.*`` counters are
        # this process's ledger, which process workers' counters are
        # merged into, so these read the same on both tiers.
        from ..sim.batch import scheduler_stats

        self.metrics.register_gauge(
            "trajectory_dedup_ratio",
            lambda: scheduler_stats()["dedup_ratio"],
        )
        self.metrics.register_gauge(
            "trajectory_batch_occupancy",
            lambda: scheduler_stats()["batch_occupancy"],
        )
        self.metrics.register_gauge(
            "trajectories_spent_total",
            lambda: scheduler_stats()["trajectories_sampled"],
        )
        # Queue observability: hit rate / occupancy come from the
        # process-wide counters, slots and deficits from the live queue.
        # Waits ride the "queue_wait" histogram.
        self.metrics.register_gauge(
            "fusion_hit_rate", lambda: fusion_stats()["hit_rate"]
        )
        self.metrics.register_gauge(
            "fusion_batch_occupancy",
            lambda: fusion_stats()["batch_occupancy"],
        )
        self.metrics.register_gauge(
            "queue_slots_in_use", lambda: float(self.fusion.slots_in_use)
        )
        self.metrics.register_labeled_gauge(
            "fusion_tenant_deficit", "tenant", self.fusion.tenant_deficits
        )
        self.metrics.register_labeled_gauge(
            "fusion_tenant_served_cost",
            "tenant",
            lambda: {
                tenant: row["served_cost"]
                for tenant, row in fusion_stats()["tenants"].items()
            },
        )

    # -- lifecycle --------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting, optionally drain, then close.

        A graceful (``drain=True``) shutdown finishes the work already
        accepted before the listener closes: new requests get 503 the
        moment ``draining`` flips, the scheduler queue drains, and then
        in-flight HTTP requests get the rest of the ``timeout`` budget to
        write their responses.  The final stats snapshot is flushed to
        :attr:`final_stats` so callers can log it after the loop dies.
        """
        self.draining = True
        deadline = time.monotonic() + timeout
        self.scheduler.close()
        if drain:
            await self.scheduler.drain(timeout=timeout)
            while (
                self._inflight_http > 0 and time.monotonic() < deadline
            ):
                await asyncio.sleep(0.02)
        self.final_stats = self.stats()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing ----------------------------------------------------
    def _next_request_id(self) -> str:
        """Correlation id: pid + monotone counter (no clock, no RNG)."""
        self._request_seq += 1
        return f"{os.getpid():x}-{self._request_seq:08x}"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._inflight_http += 1
        self.metrics.note_inflight(self._inflight_http)
        t0 = time.perf_counter()
        rid = self._next_request_id()
        streamed = False
        status, headers, payload = 500, {}, b""
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), _READ_DEADLINE_S
                )
            except asyncio.TimeoutError:
                raise _BadRequest(
                    408,
                    f"request not received within {_READ_DEADLINE_S:g} s",
                ) from None
            if path.split("?", 1)[0] == "/v1/sweep":
                early = await self._handle_sweep(
                    method, body, reader, writer, rid
                )
                if early is None:
                    streamed, status = True, 200
                else:
                    status, headers, payload = early
            else:
                status, headers, payload = await self._route(
                    method, path, body
                )
        except asyncio.IncompleteReadError:
            status, headers, payload = 400, {}, _err("truncated request")
        except _BadRequest as exc:
            status, headers, payload = exc.status, {}, _err(str(exc))
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            status, headers, payload = 500, {}, _err(
                f"{type(exc).__name__}: {exc}"
            )
        try:
            if not streamed:
                headers.setdefault("X-Request-Id", rid)
                await self._write_response(writer, status, headers, payload)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._inflight_http -= 1
            self.metrics.observe("total", time.perf_counter() - t0)
            self.metrics.inc(
                "http_requests_total", labels={"status": str(status)}
            )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = await _read_line(reader, 414, "request line")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise asyncio.IncompleteReadError(request_line, None)
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await _read_line(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    raise _BadRequest(
                        400, f"invalid Content-Length {value.strip()!r}"
                    )
        if content_length > _MAX_BODY:
            raise _BadRequest(
                413,
                f"body of {content_length} bytes exceeds the "
                f"{_MAX_BODY}-byte limit",
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, path, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: Dict[str, str],
        payload: bytes,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}"]
        base = {
            "Content-Length": str(len(payload)),
            "Connection": "close",
        }
        base.setdefault("Content-Type", "application/json")
        base.update(headers)
        head.extend(f"{k}: {v}" for k, v in base.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(payload)
        await writer.drain()

    # -- routing ----------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        path = path.split("?", 1)[0]
        if path == "/v1/simulate":
            if method != "POST":
                return 405, {"Allow": "POST"}, _err("use POST")
            return await self._handle_simulate(body)
        if path not in ("/healthz", "/stats", "/metrics"):
            return 404, {}, _err(f"no route {path!r}")
        if method != "GET":
            return 405, {"Allow": "GET"}, _err("use GET")
        if path == "/healthz":
            return self._handle_healthz()
        if path == "/stats":
            return 200, {}, _json_bytes(self.stats())
        return (
            200,
            {"Content-Type": "text/plain; version=0.0.4"},
            self.metrics.render_prometheus().encode(),
        )

    async def _handle_simulate(
        self, body: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        if self.draining:
            return 503, {}, _err("server is draining")
        t_recv = time.perf_counter()
        try:
            request = SimRequest.from_dict(json.loads(body.decode() or "null"))
        except RequestValidationError as exc:
            self.metrics.inc("requests_invalid_total")
            return _rejection(exc)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.metrics.inc("requests_invalid_total")
            return 400, {}, _err(f"malformed JSON body: {exc}")
        if self.lint_requests:
            try:
                # Shape-cached after the first request, but the first
                # lint builds + transpiles: keep it off the event loop.
                await asyncio.get_running_loop().run_in_executor(
                    None, lint_gate, request
                )
            except CircuitRejected as exc:
                self.metrics.inc("requests_lint_rejected_total")
                return 422, {}, _json_bytes(
                    {"error": "circuit rejected", "details": exc.messages}
                )
        try:
            payload, source = await self.scheduler.submit(request)
        except AdmissionError as exc:
            return (
                429,
                {"Retry-After": str(max(1, int(round(exc.retry_after))))},
                _json_bytes(
                    {
                        "error": "queue full",
                        "depth": exc.depth,
                        "retry_after": exc.retry_after,
                    }
                ),
            )
        except ExecutionFailed as exc:
            return 500, {}, _json_bytes(
                {
                    "error": "execution failed",
                    "attempts": exc.attempts,
                    "detail": exc.last_error,
                }
            )
        except RuntimeError:
            return 503, {}, _err("server is draining")
        response = SimResponse(**payload)
        response.cache = source
        timings = dict(response.timings_ms)
        timings["total"] = (time.perf_counter() - t_recv) * 1000.0
        response.timings_ms = timings
        self.metrics.inc("requests_served_total", labels={"cache": source})
        return 200, {}, _json_bytes(response.to_dict())

    # -- sweep streaming --------------------------------------------------
    async def _handle_sweep(
        self,
        method: str,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        rid: str,
    ) -> Optional[Tuple[int, Dict[str, str], bytes]]:
        """Validate a sweep; stream it if well-formed.

        Returns an ``(status, headers, payload)`` triple for
        pre-stream failures (written by the ordinary response path) or
        ``None`` once the chunked stream has been written.
        """
        if method != "POST":
            return 405, {"Allow": "POST"}, _err("use POST")
        if self.draining:
            return 503, {}, _err("server is draining")
        try:
            sweep = SweepRequest.from_dict(
                json.loads(body.decode() or "null")
            )
        except RequestValidationError as exc:
            self.metrics.inc("requests_invalid_total")
            return _rejection(exc)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.metrics.inc("requests_invalid_total")
            return 400, {}, _err(f"malformed JSON body: {exc}")
        if self.lint_requests:
            try:
                # One lint covers every cell: rates only change noise
                # strength, never the circuit shape the lint inspects.
                await asyncio.get_running_loop().run_in_executor(
                    None, lint_gate, sweep.base
                )
            except CircuitRejected as exc:
                self.metrics.inc("requests_lint_rejected_total")
                return 422, {}, _json_bytes(
                    {"error": "circuit rejected", "details": exc.messages}
                )
        self.metrics.inc("sweep_requests_total")
        await self._stream_sweep(sweep, reader, writer, rid)
        return None

    async def _stream_sweep(
        self,
        sweep: SweepRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        rid: str,
    ) -> None:
        cells = sweep.cells()
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            f"X-Request-Id: {rid}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        tasks: Dict["asyncio.Task[Dict[str, Any]]", SimRequest] = {
            asyncio.create_task(self._run_cell(cell)): cell
            for cell in cells
        }
        pending: Set["asyncio.Task[Dict[str, Any]]"] = set(tasks)
        # EOF watchdog: with every cell still queued behind busy slots
        # no write happens for a while, so a vanished client would
        # otherwise go unnoticed until the next chunk.
        watch: "asyncio.Task[bytes]" = asyncio.create_task(reader.read(1))
        ok = errors = 0
        try:
            await writer.drain()
            await self._write_chunk(
                writer,
                {
                    "sweep": {
                        "cells": len(cells),
                        "tenant": sweep.base.tenant,
                        "request_id": rid,
                    }
                },
            )
            while pending:
                done, _ = await asyncio.wait(
                    pending | {watch}, return_when=asyncio.FIRST_COMPLETED
                )
                if watch in done:
                    raise ConnectionResetError("client closed the stream")
                for task in done:
                    pending.discard(task)
                    doc = await task  # already done; never blocks
                    if "error" in doc:
                        errors += 1
                    else:
                        ok += 1
                    self.metrics.inc("sweep_cells_total")
                    await self._write_chunk(writer, doc)
            await self._write_chunk(
                writer,
                {"done": {"cells": len(cells), "ok": ok, "errors": errors}},
            )
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Mid-stream disconnect: withdraw the cells nobody is
            # waiting for.  Cells already running complete anyway
            # (their results are cached for the client's retry) —
            # cancellation only removes still-queued work.
            self.metrics.inc("sweep_disconnects_total")
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            watch.cancel()

    @staticmethod
    async def _write_chunk(
        writer: asyncio.StreamWriter, doc: Dict[str, Any]
    ) -> None:
        data = _json_bytes(doc) + b"\n"
        writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        writer.write(data)
        writer.write(b"\r\n")
        await writer.drain()

    async def _run_cell(self, request: SimRequest) -> Dict[str, Any]:
        """One sweep cell through the scheduler; never raises.

        Failures become ``error`` lines on the stream so one saturated
        cell does not abort the rest of the sweep.
        """
        t0 = time.perf_counter()
        cell = {
            "error_rate": request.error_rate,
            "content_key": request.content_key(),
        }
        try:
            payload, source = await self.scheduler.submit(request)
        except AdmissionError as exc:
            return {
                "cell": cell,
                "error": {
                    "status": 429,
                    "message": "queue full",
                    "retry_after": exc.retry_after,
                },
            }
        except ExecutionFailed as exc:
            return {
                "cell": cell,
                "error": {
                    "status": 500,
                    "message": exc.last_error,
                    "attempts": exc.attempts,
                },
            }
        except RuntimeError:
            return {
                "cell": cell,
                "error": {"status": 503, "message": "server is draining"},
            }
        response = SimResponse(**payload)
        response.cache = source
        timings = dict(response.timings_ms)
        timings["total"] = (time.perf_counter() - t0) * 1000.0
        response.timings_ms = timings
        self.metrics.inc("requests_served_total", labels={"cache": source})
        return {"cell": cell, "response": response.to_dict()}

    def _handle_healthz(self) -> Tuple[int, Dict[str, str], bytes]:
        status = 503 if self.draining else 200
        return status, {}, _json_bytes(
            {
                "status": "draining" if self.draining else "ok",
                "uptime_seconds": time.monotonic() - self.started_at,
                "executor": self.executor.mode,
            }
        )

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` document (shared shape with the CLI).

        Counters include what process workers merged home; cache sizes
        add each live worker's latest report to this process's own.
        """
        snapshot = cache_stats_snapshot(result_cache=self.cache)
        for section, row in self.executor.worker_gauges().items():
            for name, value in row.items():
                snapshot[section][name] += value
        snapshot.update(
            {
                "uptime_seconds": time.monotonic() - self.started_at,
                "queue": self.scheduler.queue_stats(),
                "executor": self.executor.describe(),
                "metrics": self.metrics.stats_dict(),
                "fusion": {
                    **self.fusion.describe(),
                    "totals": fusion_stats(),
                },
            }
        )
        return snapshot


async def _read_line(
    reader: asyncio.StreamReader, status: int, what: str
) -> bytes:
    """One CRLF line; a line over the stream limit is a ``status`` 4xx."""
    try:
        return await reader.readline()
    except ValueError:  # StreamReader wraps LimitOverrunError
        raise _BadRequest(status, f"{what} exceeds the line limit") from None


def _json_bytes(obj: Any) -> bytes:
    return json.dumps(obj).encode()


def _err(message: str) -> bytes:
    return _json_bytes({"error": message})


def _rejection(
    exc: RequestValidationError,
) -> Tuple[int, Dict[str, str], bytes]:
    """400 for a schema violation, 422 for a width-limit rejection."""
    label = "width limit" if exc.status == 422 else "validation failed"
    return exc.status, {}, _json_bytes(
        {"error": label, "details": exc.errors}
    )


class ServerThread:
    """A service running on a dedicated event-loop thread.

    The test suite, the load-smoke benchmark, and small embedded
    deployments all want a blocking handle: ``with ServerThread() as
    srv: client = ServiceClient(*srv.address)``.  :meth:`stop` drains
    the service and shuts its executor down.  The default service runs
    requests on threads of this process (``workers=0``), so everything
    in the process shares one set of caches.
    """

    def __init__(self, service: Optional[ArithmeticService] = None,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service if service is not None else ArithmeticService()
        self._host = host
        self._port = port
        self.address: Tuple[str, int] = ("", 0)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot() -> None:
            self.address = await self.service.start(self._host, self._port)
            self._ready.set()

        try:
            loop.run_until_complete(boot())
            loop.run_forever()
        finally:
            loop.close()
            self._stopped.set()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        loop = self._loop
        if loop is None or not loop.is_running():
            return

        async def teardown() -> None:
            await self.service.shutdown(drain=drain, timeout=timeout)
            asyncio.get_running_loop().stop()

        asyncio.run_coroutine_threadsafe(teardown(), loop)
        self._stopped.wait(timeout=timeout + 10)
        if self._thread is not None:
            self._thread.join(timeout=5)
        # The drained service takes no more work: let its workers go.
        self.service.executor.shutdown(wait=drain)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

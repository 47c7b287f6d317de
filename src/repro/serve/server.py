"""The asyncio HTTP front end — stdlib only.

A deliberately small HTTP/1.1 implementation over
``asyncio.start_server`` (the container has no web framework, and the
protocol needs only a handful of routes):

* ``GET /v1/health`` — liveness;
* ``GET /v1/stats``  — service counters (admission, coalescing, cache);
* ``GET /v1/metrics`` — the process-wide metrics registry (JSON, or
  the Prometheus text format with ``?format=prometheus``);
* ``GET /v1/trace`` / ``GET /v1/trace/<request_id>`` — the ring buffer
  of recent request traces and one full span tree;
* ``GET /v1/slow`` — the slow-query log (threshold-gated span dumps);
* ``GET /v1/viewport?regions=...&resolution=...`` — the server-planned
  canvas grid viewport for a region set, so remote clients can express
  pan/zoom gestures on exactly the grid the server caches blocks on;
* ``POST /v1/query`` — one JSON request body per query.  Non-streaming
  requests get one JSON object back; ``"stream": true`` requests get a
  chunked ``application/x-ndjson`` response, one
  :class:`~repro.core.tiling.TilePartial` per line, ending with the
  ``final`` snapshot.

Error mapping: malformed requests and unknown datasets are 400s,
admission sheds are **429 + Retry-After** (seconds, from the
controller's ``retry_after_ms`` hint), engine faults are 500s — always
with a JSON error payload so clients never parse prose.

Disconnect handling: each request runs as a task racing an EOF watch on
the connection; when the client goes away mid-query the task is
cancelled, which unwinds admission (slot freed) and single-flight
(refcount dropped, engine cancelled between tiles once the last
participant leaves).

Connections are kept alive: a client sends one request after another
on one connection, each answered in full before the next is read (no
pipelining — bytes that arrive while a query runs count as a
disconnect).  Only a 200 unary response says ``Connection:
keep-alive``; an error, a streamed response, a request saying
``Connection: close``, an HTTP/1.0 request or :data:`IDLE_TIMEOUT_S`
without a request closes the connection.  Bodies are framed by
``Content-Length`` alone: a request with ``Transfer-Encoding`` is a 400
and closes, so a chunked body can never be read as the next request.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading

from ..errors import (
    OverloadedError,
    ProtocolError,
    QueryCancelled,
    ReproError,
)
from .protocol import (
    decode_request,
    error_to_json,
    partial_to_json,
    result_to_json,
)
from .service import QueryService

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINES = 100

#: Seconds a kept-alive connection may sit without a request before the
#: server closes it.
IDLE_TIMEOUT_S = 30.0

#: Seconds stop() waits for its closed connections' handlers to unwind.
_STOP_GRACE_S = 5.0


def _head(status: str, content_type: str, length: int | None,
          extra: dict | None = None, keep_alive: bool = False) -> bytes:
    lines = [f"HTTP/1.1 {status}", f"Content-Type: {content_type}",
             "Connection: keep-alive" if keep_alive else "Connection: close"]
    if length is None:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {length}")
    for key, value in (extra or {}).items():
        lines.append(f"{key}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _chunk(data: bytes) -> bytes:
    return f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"


def _content_length(value: str) -> int:
    """A ``Content-Length`` header as a body size the server will read."""
    try:
        length = int(value)
    except ValueError:
        length = -1
    if length < 0:
        raise ProtocolError(f"bad Content-Length {value!r}")
    if length > _MAX_BODY_BYTES:
        raise ProtocolError(f"request body over {_MAX_BODY_BYTES}B")
    return length


def _error_response(exc: Exception) -> tuple[str, dict, dict]:
    """(status, payload, extra headers) for a failed request."""
    if isinstance(exc, OverloadedError):
        retry_s = max(1, math.ceil(exc.retry_after_ms / 1000.0))
        return ("429 Too Many Requests", error_to_json(exc),
                {"Retry-After": str(retry_s)})
    if isinstance(exc, (ProtocolError, json.JSONDecodeError)):
        return "400 Bad Request", error_to_json(exc), {}
    if isinstance(exc, ReproError):
        # Unknown dataset, bad column, malformed query, ...: the
        # client's fault, not the server's.
        return "400 Bad Request", error_to_json(exc), {}
    return "500 Internal Server Error", error_to_json(exc), {}


class QueryServer:
    """Serves a :class:`QueryService` over HTTP."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        #: Open connections and the tasks serving them.
        self._open: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self.connections = 0
        self.disconnects = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port)

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        """Stop listening and close every open connection, idle
        kept-alive ones included (on Python 3.12.1+ ``wait_closed``
        waits for them all).  A query in flight is cancelled as if its
        client had gone."""
        if self._server is not None:
            self._server.close()
            for writer in list(self._open):
                writer.close()
            if self._open:
                await asyncio.wait(list(self._open.values()),
                                   timeout=_STOP_GRACE_S)
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- request handling --------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        self._open[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    async with asyncio.timeout(IDLE_TIMEOUT_S):
                        request_line = await reader.readline()
                except TimeoutError:
                    break
                if not request_line:
                    break  # clean EOF between requests
                method, path, version, headers = await self._read_head(
                    request_line, reader)
                if "transfer-encoding" in headers:
                    raise ProtocolError("Transfer-Encoding is not "
                                        "supported; send Content-Length")
                length = _content_length(headers.get("content-length", "0"))
                body = await reader.readexactly(length) if length else b""
                keep_alive = (version == "HTTP/1.1" and "close" not in
                              headers.get("connection", "").lower())
                if not await self._dispatch(method, path, body, reader,
                                            writer, keep_alive):
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            self.disconnects += 1
        except Exception as exc:  # noqa: BLE001 - boundary: report as JSON
            await self._send_error(writer, exc)
        finally:
            self._open.pop(writer, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_head(self, request_line: bytes,
                         reader: asyncio.StreamReader):
        try:
            method, path, version = request_line.decode("ascii").split()
        except ValueError:
            raise ProtocolError(
                f"malformed request line {request_line!r}") from None
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ProtocolError("too many header lines")
        return method, path, version, headers

    async def _dispatch(self, method: str, path: str, body: bytes,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter,
                        keep_alive: bool) -> bool:
        """Answer one request; True when the connection stays open."""
        if method == "GET" and path == "/v1/health":
            return await self._send_json(writer, "200 OK",
                                         {"ok": True, "v": 1}, keep_alive)
        if method == "GET" and path == "/v1/stats":
            from .protocol import jsonable

            return await self._send_json(writer, "200 OK",
                                         jsonable(self.service.stats()),
                                         keep_alive)
        if method == "GET" and path.split("?", 1)[0] == "/v1/metrics":
            return await self._metrics(path, writer, keep_alive)
        if method == "GET" and (path == "/v1/trace"
                                or path.startswith("/v1/trace/")):
            return await self._trace(path, writer, keep_alive)
        if method == "GET" and path == "/v1/slow":
            return await self._send_json(
                writer, "200 OK",
                {"v": 1, "kind": "slow_queries",
                 "slowlog": self.service.slowlog.stats(),
                 "entries": self.service.slowlog.entries()}, keep_alive)
        if method == "GET" and path.split("?", 1)[0] == "/v1/viewport":
            return await self._plan_viewport(path, writer, keep_alive)
        if method == "POST" and path == "/v1/query":
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError:
                raise ProtocolError("request body is not UTF-8") from None
            req = decode_request(json.loads(text))
            if req["stream"]:
                await self._stream_query(req, writer)
                return False
            return await self._unary_query(req, reader, writer, keep_alive)
        return await self._send_json(
            writer, "404 Not Found",
            {"kind": "error", "error": "NotFound",
             "message": f"no route {method} {path}"})

    async def _metrics(self, path: str, writer: asyncio.StreamWriter,
                       keep_alive: bool) -> bool:
        """GET /v1/metrics: the process-wide registry, refreshed with
        the service's current gauge readings.  JSON by default;
        ``?format=prometheus`` renders the text exposition format."""
        from urllib.parse import parse_qs, urlsplit

        from ..obs import REGISTRY, sample_service_stats

        sample_service_stats(self.service.stats())
        params = parse_qs(urlsplit(path).query)
        fmt = params.get("format", ["json"])[0]
        if fmt == "prometheus":
            return await self._send(
                writer, "200 OK", "text/plain; version=0.0.4",
                REGISTRY.render_prometheus().encode("utf-8"),
                keep_alive=keep_alive)
        return await self._send_json(writer, "200 OK",
                                     {"v": 1, "kind": "metrics",
                                      **REGISTRY.snapshot()}, keep_alive)

    async def _trace(self, path: str, writer: asyncio.StreamWriter,
                     keep_alive: bool) -> bool:
        """GET /v1/trace lists retained request ids; /v1/trace/<id>
        returns that request's full span tree."""
        tracer = self.service.tracer
        if path == "/v1/trace":
            return await self._send_json(writer, "200 OK",
                                         {"v": 1, "kind": "traces",
                                          "tracer": tracer.stats(),
                                          "request_ids": tracer.ids()},
                                         keep_alive)
        request_id = path[len("/v1/trace/"):]
        payload = tracer.get(request_id)
        if payload is None:
            return await self._send_json(
                writer, "404 Not Found",
                {"kind": "error", "error": "NotFound",
                 "message": f"no retained trace {request_id!r}"})
        return await self._send_json(writer, "200 OK",
                                     {"v": 1, "kind": "trace",
                                      "request_id": request_id,
                                      "trace": payload}, keep_alive)

    async def _plan_viewport(self, path: str, writer: asyncio.StreamWriter,
                             keep_alive: bool) -> bool:
        """GET /v1/viewport: the canvas-grid viewport the server plans
        for a region set — the anchor for client-side pan/zoom."""
        from urllib.parse import parse_qs, urlsplit

        from .protocol import viewport_to_json

        params = parse_qs(urlsplit(path).query)
        regions = params.get("regions", [None])[0]
        if not regions:
            raise ProtocolError("/v1/viewport needs a regions= parameter")
        resolution = params.get("resolution", [None])[0]
        if resolution is not None:
            try:
                resolution = int(resolution)
            except ValueError:
                raise ProtocolError(
                    f"bad resolution {resolution!r}") from None
        region_set = self.service.manager.region_set(regions)
        viewport = self.service.manager.engine.plan_grid_viewport(
            region_set, resolution)
        return await self._send_json(writer, "200 OK",
                                     {"v": 1, "kind": "viewport",
                                      "viewport": viewport_to_json(viewport)},
                                     keep_alive)

    async def _unary_query(self, req: dict, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           keep_alive: bool) -> bool:
        # Race the query against connection EOF: a client that hangs up
        # must release its slot (admission) and its vote (coalescing)
        # immediately, not when the result is ready.
        work = asyncio.ensure_future(self.service.execute(req))
        eof_watch = asyncio.ensure_future(reader.read(1))
        try:
            done, _pending = await asyncio.wait(
                {work, eof_watch}, return_when=asyncio.FIRST_COMPLETED)
            if work not in done:
                # EOF (or stray bytes; either way this connection can
                # no longer receive an answer).
                self.disconnects += 1
                work.cancel()
                try:
                    await work
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                return False
            result = work.result()
            # A watch that fired alongside the answer consumed a byte
            # of whatever followed: answer, then close.
            return await self._send_json(
                writer, "200 OK", result_to_json(result),
                keep_alive and not eof_watch.done())
        except asyncio.CancelledError:
            work.cancel()
            raise
        except QueryCancelled:
            self.disconnects += 1
        except Exception as exc:  # noqa: BLE001 - boundary
            await self._send_error(writer, exc)
        finally:
            # The watch's pending read must be gone before the next
            # request's read starts on this reader.
            eof_watch.cancel()
            await asyncio.wait({eof_watch})
            if not eof_watch.cancelled():
                eof_watch.exception()  # retrieve a reset; we close
        return False

    async def _stream_query(self, req: dict,
                            writer: asyncio.StreamWriter) -> None:
        started = False
        try:
            async for partial in self.service.stream(req):
                if not started:
                    writer.write(_head("200 OK", "application/x-ndjson",
                                       None))
                    started = True
                line = _json_bytes(partial_to_json(partial)) + b"\n"
                writer.write(_chunk(line))
                await writer.drain()
            if started:
                writer.write(b"0\r\n\r\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self.disconnects += 1
        except QueryCancelled:
            self.disconnects += 1
        except Exception as exc:  # noqa: BLE001 - boundary
            if not started:
                await self._send_error(writer, exc)
            else:
                # Mid-stream failure: emit a terminal error line so the
                # client can tell truncation from completion.
                try:
                    line = _json_bytes(error_to_json(exc)) + b"\n"
                    writer.write(_chunk(line) + b"0\r\n\r\n")
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    self.disconnects += 1

    # -- response writers --------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, status: str,
                    content_type: str, body: bytes,
                    extra: dict | None = None,
                    keep_alive: bool = False) -> bool:
        """Write one whole response; True when the connection stays
        open for the next request."""
        try:
            writer.write(_head(status, content_type, len(body), extra,
                               keep_alive) + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self.disconnects += 1
            return False
        return keep_alive

    async def _send_json(self, writer: asyncio.StreamWriter, status: str,
                         payload: dict, keep_alive: bool = False,
                         extra: dict | None = None) -> bool:
        return await self._send(writer, status, "application/json",
                                _json_bytes(payload), extra, keep_alive)

    async def _send_error(self, writer: asyncio.StreamWriter,
                          exc: Exception) -> None:
        status, payload, extra = _error_response(exc)
        await self._send_json(writer, status, payload, extra=extra)


class ServerThread:
    """A :class:`QueryServer` on a private event loop in a daemon thread.

    The synchronous harnesses (tests, the throughput benchmark, the
    CLI's self-test) need a live server without owning an event loop;
    this wraps start/stop behind plain calls.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0):
        self.server = QueryServer(service, host=host, port=port)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> str:
        """Start serving; returns the base URL."""
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.server.start())
            ready.set()
            loop.run_forever()
            loop.run_until_complete(self.server.stop())
            # Straggler handlers (a client that disconnected mid-query)
            # may still be unwinding their cancellation; give them a
            # bounded window before the loop is torn down so no task
            # is destroyed while pending.
            leftovers = asyncio.all_tasks(loop)
            if leftovers:
                for task in leftovers:
                    task.cancel()
                loop.run_until_complete(
                    asyncio.wait(leftovers, timeout=5.0))
            loop.close()

        self._thread = threading.Thread(target=run, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not ready.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        return self.server.url

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

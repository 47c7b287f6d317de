"""Stdlib client for the query service.

``http.client`` only — usable from any Python without the repro
package's heavier imports beyond NumPy.  Each thread keeps one
connection open across its calls (the server keeps connections alive);
when a *reused* connection turns out to have been closed by the server
while it sat idle — reset or closed before any response byte — the
request is sent once more on a fresh connection, which is safe because
every request is read-only.  :meth:`ServeClient.close` (or a ``with``
block) closes the connections.  Blocking calls, and typed errors: a
429 raises :class:`~repro.errors.OverloadedError` carrying the
server's ``retry_after_ms`` so callers can implement honest back-off;
4xx payloads raise :class:`~repro.errors.ProtocolError` (or
:class:`~repro.errors.QueryError` when the server says the query
itself was bad).

Streaming responses (``stream=True``) yield one decoded partial dict
per NDJSON line as the server produces them — ``http.client`` strips
the chunked framing transparently.  A stream runs on a connection of
its own, closed when the stream ends.

Retry on shed: with ``max_retries > 0`` (opt-in; default 0 preserves
the raise-immediately contract) a 429 is retried up to that many times,
sleeping the server's own ``retry_after_ms`` hint scaled by an
exponential back-off factor per attempt — the client backs off exactly
as hard as the server asked, harder each time.  Only overload is
retried; 4xx/5xx and connection errors (past the one resend on a
fresh connection) raise immediately.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from urllib.parse import quote, urlsplit

from ..errors import OverloadedError, ProtocolError, QueryError, ServeError
from .protocol import (
    PROTOCOL_VERSION,
    RemoteResult,
    encode_request,
    result_from_json,
    viewport_from_json,
)

DEFAULT_TIMEOUT_S = 60.0

#: Per-attempt multiplier on the server's retry hint.
BACKOFF_FACTOR = 2.0

#: A single sleep never exceeds this, however large the hint grows.
MAX_BACKOFF_S = 5.0


def _raise_for_payload(status: int, payload: dict,
                       retry_after_header: str | None) -> None:
    message = payload.get("message", f"HTTP {status}")
    if status == 429:
        retry_ms = payload.get("retry_after_ms")
        if retry_ms is None and retry_after_header:
            retry_ms = float(retry_after_header) * 1000.0
        raise OverloadedError(message, retry_after_ms=retry_ms or 250.0)
    error = payload.get("error", "")
    if status == 400 and error not in ("ProtocolError", "JSONDecodeError"):
        raise QueryError(message)
    if 400 <= status < 500:
        raise ProtocolError(message)
    raise ServeError(f"server error {status}: {message}")


def _close_all(conns: list) -> None:
    for conn in list(conns):
        conn.close()


class ServeClient:
    """Blocking client for a ``repro serve`` endpoint."""

    def __init__(self, url: str, timeout_s: float = DEFAULT_TIMEOUT_S,
                 max_retries: int = 0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme not in ("", "http"):
            raise ProtocolError(f"unsupported scheme {parts.scheme!r}")
        if max_retries < 0:
            raise ProtocolError("max_retries must be >= 0")
        self.host = parts.hostname or "127.0.0.1"
        self.port = parts.port or 80
        self.timeout_s = float(timeout_s)
        self.max_retries = int(max_retries)
        self.retries = 0
        #: One kept connection per calling thread, all of them listed
        #: so close() (or collecting the client) closes every one.
        self._local = threading.local()
        self._conns: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._conns)

    # -- plumbing ----------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)

    def _request(self, method: str, path: str,
                 body: str | None = None) -> bytes:
        """One request over this thread's kept connection; the body of a
        200 response, or the typed error of any other."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect()
            self._conns.append(conn)
        headers = {"Content-Type": "application/json"} if body else {}
        reused = conn.sock is not None
        while True:
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                break
            # RemoteDisconnected is a ConnectionResetError: the server
            # closed the connection before any response byte.
            except (ConnectionResetError, BrokenPipeError):
                conn.close()
                if not reused:
                    raise
                reused = False
            except BaseException:
                conn.close()
                raise
        if resp.status != 200:
            _raise_for_payload(resp.status, json.loads(data.decode("utf-8")),
                               resp.getheader("Retry-After"))
        return data

    def _get_json(self, path: str) -> dict:
        return json.loads(self._request("GET", path).decode("utf-8"))

    def close(self) -> None:
        """Close every connection this client holds; a later call opens
        a new one."""
        _close_all(self._conns)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- endpoints ---------------------------------------------------------

    def health(self) -> dict:
        return self._get_json("/v1/health")

    def stats(self) -> dict:
        return self._get_json("/v1/stats")

    def metrics(self) -> dict:
        """The process-wide metrics registry as JSON."""
        return self._get_json("/v1/metrics")

    def metrics_prometheus(self) -> str:
        """The metrics registry in the Prometheus text format."""
        return self._request(
            "GET", "/v1/metrics?format=prometheus").decode("utf-8")

    def trace(self, request_id: str | None = None) -> dict:
        """Retained trace ids (no argument) or one full span tree."""
        if request_id is None:
            return self._get_json("/v1/trace")
        return self._get_json(f"/v1/trace/{quote(request_id)}")

    def slow_queries(self) -> dict:
        """The server's slow-query log entries."""
        return self._get_json("/v1/slow")

    def plan_viewport(self, regions: str, resolution: int | None = None):
        """The server-planned :class:`~repro.core.pyramid.GridViewport`
        for a region set — the shared grid both ends express pan/zoom
        gestures on (the bbox floats are recomputed locally from the
        grid integers, so keys agree bitwise)."""
        path = f"/v1/viewport?regions={quote(regions)}"
        if resolution is not None:
            path += f"&resolution={int(resolution)}"
        payload = self._get_json(path)
        if payload.get("kind") != "viewport":
            raise ProtocolError(
                f"unexpected viewport payload kind {payload.get('kind')!r}")
        return viewport_from_json(payload["viewport"])

    def query(self, dataset: str, regions: str, query=None, sql=None,
              **knobs) -> RemoteResult:
        """Run one query; returns a :class:`RemoteResult`.

        Accepts the same knobs as the wire protocol (``method``,
        ``resolution``, ``epsilon``, ``exact``, ``deadline_ms``,
        ``cache``, ``trace``, ``viewport``...).  For progressive
        results use :meth:`stream`.  When ``max_retries > 0`` a shed
        (429) is retried with server-seeded exponential back-off.
        """
        body = encode_request(dataset, regions, query=query, sql=sql,
                              **knobs)
        if body.get("stream"):
            raise ProtocolError("use stream() for streaming queries")
        attempt = 0
        while True:
            try:
                payload = self._request("POST", "/v1/query",
                                        json.dumps(body))
                return result_from_json(json.loads(payload.decode("utf-8")))
            except OverloadedError as exc:
                if attempt >= self.max_retries:
                    raise
                delay_s = (float(exc.retry_after_ms) / 1000.0
                           * BACKOFF_FACTOR ** attempt)
                time.sleep(min(delay_s, MAX_BACKOFF_S))
                attempt += 1
                self.retries += 1

    def stream(self, dataset: str, regions: str, query=None, sql=None,
               **knobs):
        """Run one progressive query; yields partial dicts as decoded
        from the NDJSON stream (``kind="partial"``, ending with
        ``final=true``).  A terminal ``kind="error"`` line raises."""
        knobs.setdefault("stream", True)
        body = encode_request(dataset, regions, query=query, sql=sql,
                              **knobs)
        conn = self._connect()
        try:
            conn.request("POST", "/v1/query", body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            if resp.status != 200:
                payload = json.loads(resp.read().decode("utf-8"))
                _raise_for_payload(resp.status, payload,
                                   resp.getheader("Retry-After"))
            while True:
                line = resp.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line.decode("utf-8"))
                if payload.get("kind") == "error":
                    _raise_for_payload(500, payload, None)
                if payload.get("v") != PROTOCOL_VERSION:
                    raise ProtocolError(
                        f"unexpected protocol version {payload.get('v')!r}")
                yield payload
        finally:
            conn.close()

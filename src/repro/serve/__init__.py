"""Concurrent query serving.

The paper's setting is many analysts exploring shared urban data sets
interactively; this package puts the engine behind a network service
built for that load profile:

* :class:`~repro.serve.service.QueryService` — one engine, shared by
  every analyst, executing on a thread pool behind **admission
  control** (bounded queue + load shedding with ``retry_after``) and
  **single-flight coalescing** (identical concurrent queries share one
  execution, each caller receiving an independent copy);
* :class:`~repro.serve.server.QueryServer` — a stdlib asyncio HTTP
  front end speaking the versioned JSON protocol in
  :mod:`repro.serve.protocol`, with chunked NDJSON **progressive
  streaming** of per-tile bounded partials;
* :class:`~repro.serve.client.ServeClient` — the matching blocking
  stdlib client.

Deadline-aware planning (``deadline_ms`` degrading exact -> bounded ->
coarser canvas) lives in the planner; the service merely threads the
per-request deadline through.
"""

from .admission import AdmissionController
from .client import ServeClient
from .coalesce import SingleFlight
from .mounts import mount_datasets
from .protocol import (
    PROTOCOL_VERSION,
    RemoteResult,
    decode_request,
    encode_request,
    filter_from_json,
    filter_to_json,
    query_from_json,
    query_to_json,
    result_from_json,
    result_to_json,
    viewport_from_json,
    viewport_to_json,
)
from .server import QueryServer, ServerThread
from .service import QueryService

__all__ = [
    "AdmissionController",
    "PROTOCOL_VERSION",
    "QueryServer",
    "QueryService",
    "RemoteResult",
    "ServeClient",
    "ServerThread",
    "SingleFlight",
    "decode_request",
    "encode_request",
    "filter_from_json",
    "filter_to_json",
    "mount_datasets",
    "query_from_json",
    "query_to_json",
    "result_from_json",
    "result_to_json",
    "viewport_from_json",
    "viewport_to_json",
]

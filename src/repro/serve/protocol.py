"""The serve wire protocol, version 1.

JSON request/response payloads shared by the asyncio server and the
stdlib client.  The protocol is deliberately plain: one POST body per
query, one JSON object per response (or one NDJSON line per progressive
snapshot on the streaming path), every payload carrying ``"v": 1`` so
either side can reject a version it does not speak.

Filter expressions cross the wire as a recursive node encoding of the
:mod:`repro.table.filters` AST, so a remote client composes the same
``F("fare") > 10`` predicates a local session would.

Non-finite floats (cost models legitimately produce ``inf``) are
serialized as the Python-JSON ``Infinity``/``NaN`` literals; both ends
of this protocol are the Python ``json`` module, which round-trips
them.

Nothing in this module imports the service or the server, so the
client (and :class:`~repro.urbane.session.RemoteSession`) can depend on
it without dragging in asyncio machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.query import SpatialAggregation
from ..errors import ProtocolError
from ..table import filters as flt

#: Wire protocol version; bump on breaking payload changes.
PROTOCOL_VERSION = 1

#: Per-request knobs accepted by ``POST /v1/query`` beyond the query
#: itself, with their defaults.
REQUEST_KNOBS = {
    "method": "auto",
    "resolution": None,
    "epsilon": None,
    "exact": False,
    "deadline_ms": None,
    "timeout_s": None,
    "cache": True,
    "stream": False,
    "stream_every": 1,
    "tile_pixels": 256,
    # Record a hierarchical span tree for this request; the response
    # stats carry a ``trace.request_id`` the client can fetch back via
    # ``GET /v1/trace/<request_id>``.
    "trace": False,
    # Grid-snapped map window (see viewport_to_json): pan/zoom gestures
    # send the full viewport, so block-aligned cache keys match across
    # the wire exactly as they do locally.
    "viewport": None,
}


# -- json sanitation ----------------------------------------------------------


def jsonable(value):
    """Recursively coerce a stats payload into plain JSON types.

    ndarrays become lists, NumPy scalars become Python scalars, tuples
    become lists; anything else unserializable falls back to ``repr``
    so a stats dict can never poison a response.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return repr(value)


# -- filter AST <-> json ------------------------------------------------------


def filter_to_json(expr: flt.FilterExpr) -> dict:
    """One filter AST node -> its wire encoding (recursive)."""
    if isinstance(expr, flt.Comparison):
        return {"op": "cmp", "column": expr.column, "cmp": expr.op,
                "value": jsonable(expr.value)}
    if isinstance(expr, flt.Between):
        return {"op": "between", "column": expr.column,
                "lo": jsonable(expr.lo), "hi": jsonable(expr.hi)}
    if isinstance(expr, flt.IsIn):
        return {"op": "isin", "column": expr.column,
                "values": [jsonable(v) for v in expr.values]}
    if isinstance(expr, flt.TimeRange):
        return {"op": "timerange", "column": expr.column,
                "start": int(expr.start), "end": int(expr.end)}
    if isinstance(expr, flt.And):
        return {"op": "and", "left": filter_to_json(expr.left),
                "right": filter_to_json(expr.right)}
    if isinstance(expr, flt.Or):
        return {"op": "or", "left": filter_to_json(expr.left),
                "right": filter_to_json(expr.right)}
    if isinstance(expr, flt.Not):
        return {"op": "not", "inner": filter_to_json(expr.inner)}
    if isinstance(expr, flt.TrueFilter):
        return {"op": "true"}
    raise ProtocolError(
        f"cannot serialize filter node {type(expr).__name__}")


def filter_from_json(node) -> flt.FilterExpr:
    """Wire encoding -> filter AST node (validates as it parses)."""
    if not isinstance(node, dict) or "op" not in node:
        raise ProtocolError(f"malformed filter node: {node!r}")
    op = node["op"]
    try:
        if op == "cmp":
            return flt.Comparison(node["column"], node["cmp"], node["value"])
        if op == "between":
            return flt.Between(node["column"], node["lo"], node["hi"])
        if op == "isin":
            return flt.IsIn(node["column"], tuple(node["values"]))
        if op == "timerange":
            return flt.TimeRange(node["column"], int(node["start"]),
                                 int(node["end"]))
        if op == "and":
            return flt.And(filter_from_json(node["left"]),
                           filter_from_json(node["right"]))
        if op == "or":
            return flt.Or(filter_from_json(node["left"]),
                          filter_from_json(node["right"]))
        if op == "not":
            return flt.Not(filter_from_json(node["inner"]))
        if op == "true":
            return flt.TrueFilter()
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"bad filter node {node!r}: {exc}") from None
    raise ProtocolError(f"unknown filter op {op!r}")


# -- query <-> json -----------------------------------------------------------


def query_to_json(query: SpatialAggregation) -> dict:
    return {
        "agg": query.agg,
        "value_column": query.value_column,
        "filters": [filter_to_json(f) for f in query.filters],
    }


def query_from_json(payload: dict) -> SpatialAggregation:
    try:
        return SpatialAggregation(
            agg=payload.get("agg", "count"),
            value_column=payload.get("value_column"),
            filters=tuple(filter_from_json(f)
                          for f in payload.get("filters", [])))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"bad query payload: {exc}") from None


# -- viewport <-> json --------------------------------------------------------


def viewport_to_json(viewport) -> dict:
    """A :class:`~repro.core.pyramid.GridViewport` -> wire encoding.

    Only the grid anchor (floats) and the integer window coordinates
    cross the wire; the world bbox is *recomputed* from them on decode
    through the exact arithmetic of :meth:`CanvasGrid.viewport`.  Both
    ends therefore hold bit-identical viewport values (Python float
    repr round-trips through JSON), which is what makes the same
    ``pan`` from two clients land on the same cache key.
    """
    from ..core.pyramid import GridViewport

    if not isinstance(viewport, GridViewport):
        raise ProtocolError(
            f"only grid-snapped viewports cross the wire, got "
            f"{type(viewport).__name__}")
    grid = viewport.grid
    return {"x0": grid.x0, "y0": grid.y0, "pw": grid.pw, "ph": grid.ph,
            "block": int(grid.block), "level": int(viewport.level),
            "col0": int(viewport.col0), "row0": int(viewport.row0),
            "width": int(viewport.width), "height": int(viewport.height)}


def viewport_from_json(node):
    """Wire encoding -> :class:`~repro.core.pyramid.GridViewport`."""
    from ..core.pyramid import CanvasGrid

    if not isinstance(node, dict):
        raise ProtocolError(f"malformed viewport node: {node!r}")
    try:
        grid = CanvasGrid(float(node["x0"]), float(node["y0"]),
                          float(node["pw"]), float(node["ph"]),
                          int(node["block"]))
        return grid.viewport(int(node["level"]), int(node["col0"]),
                             int(node["row0"]), int(node["width"]),
                             int(node["height"]))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"bad viewport node {node!r}: {exc}") from None


# -- requests -----------------------------------------------------------------


def encode_request(dataset: str, regions: str,
                   query: SpatialAggregation | None = None,
                   sql: str | None = None, **knobs) -> dict:
    """Build a ``POST /v1/query`` body (client side)."""
    unknown = set(knobs) - set(REQUEST_KNOBS)
    if unknown:
        raise ProtocolError(f"unknown request knobs: {sorted(unknown)}")
    if (query is None) == (sql is None):
        raise ProtocolError("exactly one of query/sql is required")
    body = {"v": PROTOCOL_VERSION, "dataset": dataset, "regions": regions}
    if sql is not None:
        body["sql"] = str(sql)
    else:
        body["query"] = query_to_json(query)
    for name, default in REQUEST_KNOBS.items():
        value = knobs.get(name, default)
        if name == "viewport" and value is not None \
                and not isinstance(value, dict):
            value = viewport_to_json(value)
        if value != default:
            body[name] = value
    return body


def decode_request(payload) -> dict:
    """Validate + normalize a request body (server side).

    Returns a flat dict: dataset, regions, the parsed
    :class:`SpatialAggregation` under ``"query"`` (or raw SQL under
    ``"sql"``), and every knob from :data:`REQUEST_KNOBS` filled with
    its default when absent.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"this server speaks {PROTOCOL_VERSION}")
    out: dict = {"sql": None, "query": None}
    if "sql" in payload:
        out["sql"] = str(payload["sql"])
        out["dataset"] = payload.get("dataset")
        out["regions"] = payload.get("regions")
    else:
        for required in ("dataset", "regions", "query"):
            if required not in payload:
                raise ProtocolError(f"request is missing {required!r}")
        out["dataset"] = str(payload["dataset"])
        out["regions"] = str(payload["regions"])
        out["query"] = query_from_json(payload["query"])
    for name, default in REQUEST_KNOBS.items():
        out[name] = payload.get(name, default)
    if out["method"] is None:
        out["method"] = "auto"
    if out["stream_every"] is not None and int(out["stream_every"]) < 1:
        raise ProtocolError("stream_every must be >= 1")
    if out["viewport"] is not None:
        out["viewport"] = viewport_from_json(out["viewport"])
    return out


# -- responses ----------------------------------------------------------------


@dataclass
class RemoteResult:
    """A served answer, rehydrated client-side.

    Mirrors the shape of :class:`~repro.core.result.AggregationResult`
    (values aligned with ``region_names``, optional hard bounds) without
    needing the region geometry on the client.
    """

    region_names: list[str]
    values: np.ndarray
    method: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    exact: bool = False
    stats: dict = field(default_factory=dict)

    @property
    def has_bounds(self) -> bool:
        return self.lower is not None and self.upper is not None

    def as_dict(self) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.region_names, self.values)}


def result_to_json(result) -> dict:
    """``AggregationResult`` -> wire payload (server side)."""
    def arr(a):
        return None if a is None else np.asarray(a, dtype=np.float64).tolist()

    return {
        "v": PROTOCOL_VERSION,
        "kind": "result",
        "regions": list(result.regions.region_names),
        "values": arr(result.values),
        "lower": arr(result.lower),
        "upper": arr(result.upper),
        "exact": bool(result.exact),
        "method": result.method,
        "stats": jsonable(result.stats),
    }


def result_from_json(payload: dict) -> RemoteResult:
    """Wire payload -> :class:`RemoteResult` (client side)."""
    if payload.get("kind") != "result":
        raise ProtocolError(f"expected a result payload, got "
                            f"{payload.get('kind')!r}")

    def arr(v):
        return None if v is None else np.asarray(v, dtype=np.float64)

    return RemoteResult(
        region_names=list(payload["regions"]),
        values=arr(payload["values"]),
        method=payload.get("method", ""),
        lower=arr(payload.get("lower")),
        upper=arr(payload.get("upper")),
        exact=bool(payload.get("exact", False)),
        stats=payload.get("stats") or {})


def partial_to_json(partial) -> dict:
    """``TilePartial`` -> one NDJSON streaming line (server side)."""
    def arr(a):
        return None if a is None else np.asarray(a, dtype=np.float64).tolist()

    return {
        "v": PROTOCOL_VERSION,
        "kind": "partial",
        "tile_index": int(partial.tile_index),
        "tiles_total": int(partial.tiles_total),
        "values": arr(partial.values),
        "lower": arr(partial.lower),
        "upper": arr(partial.upper),
        "final": bool(partial.final),
        "stats": jsonable(partial.stats),
    }


def error_to_json(exc: Exception, retry_after_ms: float | None = None
                  ) -> dict:
    payload = {
        "v": PROTOCOL_VERSION,
        "kind": "error",
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if retry_after_ms is None:
        retry_after_ms = getattr(exc, "retry_after_ms", None)
    if retry_after_ms is not None:
        payload["retry_after_ms"] = float(retry_after_ms)
    return payload

"""Protocol round-trips and validation."""

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.errors import OverloadedError, ProtocolError, QueryError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    RemoteResult,
    decode_request,
    encode_request,
    error_to_json,
    filter_from_json,
    filter_to_json,
    jsonable,
    query_from_json,
    query_to_json,
    result_from_json,
)
from repro.table import F, TimeRange


class TestFilterRoundTrip:
    @pytest.mark.parametrize("expr", [
        F("fare") > 5,
        F("fare") <= 2.5,
        F("kind") == "a",
        F("fare").between(1, 9),
        F("kind").isin(["a", "b"]),
        TimeRange("t", 10, 90),
        (F("fare") > 5) & (F("kind") == "a"),
        (F("fare") > 5) | ~(F("kind") == "b"),
    ])
    def test_round_trip_preserves_repr(self, expr):
        back = filter_from_json(filter_to_json(expr))
        assert repr(back) == repr(expr)

    def test_round_trip_preserves_semantics(self):
        from repro.table import PointTable, timestamp_column

        gen = np.random.default_rng(0)
        n = 500
        table = PointTable.from_arrays(
            gen.uniform(0, 10, n), gen.uniform(0, 10, n), name="m",
            fare=gen.exponential(5, n),
            t=timestamp_column("t", gen.integers(0, 100, n)))
        expr = (F("fare") > 4) & TimeRange("t", 20, 80)
        back = filter_from_json(filter_to_json(expr))
        assert np.array_equal(back.mask(table), expr.mask(table))

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError):
            filter_from_json({"op": "regex", "column": "x", "value": ".*"})

    def test_malformed_node_rejected(self):
        with pytest.raises(ProtocolError):
            filter_from_json(["not", "a", "dict"])


class TestQueryRoundTrip:
    @pytest.mark.parametrize("query", [
        SpatialAggregation.count(),
        SpatialAggregation.sum_of("fare"),
        SpatialAggregation.avg_of("fare", F("fare") > 1),
        SpatialAggregation.count(F("kind") == "a", TimeRange("t", 0, 50)),
    ])
    def test_round_trip(self, query):
        assert repr(query_from_json(query_to_json(query))) == repr(query)

    def test_bad_agg_rejected(self):
        with pytest.raises(ProtocolError):
            query_from_json({"agg": "median", "column": "fare",
                             "filters": []})


class TestRequests:
    def test_encode_omits_default_knobs(self):
        body = encode_request("trips", "simple",
                              query=SpatialAggregation.count())
        assert set(body) == {"v", "dataset", "regions", "query"}

    def test_encode_decode_round_trip(self):
        body = encode_request("trips", "simple",
                              query=SpatialAggregation.sum_of("fare"),
                              method="bounded", epsilon=2.0,
                              deadline_ms=100.0)
        req = decode_request(body)
        assert req["dataset"] == "trips"
        assert req["method"] == "bounded"
        assert req["epsilon"] == 2.0
        assert req["deadline_ms"] == 100.0
        assert req["stream"] is False  # default filled in
        assert repr(req["query"]) == repr(SpatialAggregation.sum_of("fare"))

    def test_unknown_knob_rejected(self):
        for knob in ({"turbo": True}, {"session": "x"}):
            with pytest.raises(ProtocolError):
                encode_request("t", "r", query=SpatialAggregation.count(),
                               **knob)

    def test_retired_session_knob_is_ignored_on_decode(self):
        """An older client still sends the per-session id; the server
        decodes its body to exactly the request it would without it."""
        body = encode_request("t", "r", query=SpatialAggregation.count(),
                              method="bounded")
        legacy = decode_request(dict(body, session="x"))
        assert "session" not in legacy
        assert legacy == decode_request(body)

    def test_query_xor_sql(self):
        with pytest.raises(ProtocolError):
            encode_request("t", "r")
        with pytest.raises(ProtocolError):
            encode_request("t", "r", query=SpatialAggregation.count(),
                           sql="SELECT ...")

    def test_version_mismatch_rejected(self):
        body = encode_request("t", "r", query=SpatialAggregation.count())
        body["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError):
            decode_request(body)

    def test_missing_fields_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request({"v": PROTOCOL_VERSION, "dataset": "t"})
        with pytest.raises(ProtocolError):
            decode_request("not an object")

    def test_bad_stream_every_rejected(self):
        body = encode_request("t", "r", query=SpatialAggregation.count())
        body["stream_every"] = 0
        with pytest.raises(ProtocolError):
            decode_request(body)


class TestResults:
    def test_result_round_trip(self, service):
        import asyncio

        req = decode_request(encode_request(
            "trips", "simple", query=SpatialAggregation.count()))
        result = asyncio.run(service.execute(req))
        from repro.serve.protocol import result_to_json

        remote = result_from_json(result_to_json(result))
        assert isinstance(remote, RemoteResult)
        assert remote.region_names == list(result.regions.region_names)
        assert np.array_equal(remote.values, result.values)
        assert remote.has_bounds
        assert np.array_equal(remote.lower, result.lower)
        assert remote.as_dict() == {
            n: v for n, v in zip(remote.region_names, remote.values)}

    def test_non_result_payload_rejected(self):
        with pytest.raises(ProtocolError):
            result_from_json({"kind": "error"})


class TestErrors:
    def test_overload_carries_retry_after(self):
        payload = error_to_json(OverloadedError("busy", retry_after_ms=250))
        assert payload["error"] == "OverloadedError"
        assert payload["retry_after_ms"] == 250

    def test_query_error_named(self):
        payload = error_to_json(QueryError("no such column"))
        assert payload["error"] == "QueryError"
        assert "no such column" in payload["message"]


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = jsonable({"a": np.float64(1.5), "b": np.arange(3),
                        "c": (np.int32(2), np.bool_(True)),
                        np.int64(7): "key"})
        assert out["a"] == 1.5
        assert out["b"] == [0, 1, 2]
        assert out["c"] == [2, True]
        assert out["7"] == "key"  # keys stringified

    def test_unserializable_falls_back_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert jsonable({"o": Opaque()})["o"] == "<opaque>"

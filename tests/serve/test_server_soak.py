"""Soak tests: a live server under concurrent client load.

The acceptance bar for the serving layer: coalesced answers are
bitwise-identical to a solo engine run, a 16x overload sheds cleanly
(structured retry hints, no crash, no leaked slots), and a client that
disconnects mid-query frees its capacity.
"""

import json
import socket
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.errors import OverloadedError
from repro.serve import ServeClient
from repro.serve.protocol import PROTOCOL_VERSION, encode_request
from repro.table import F

CLIENTS = 32


def wait_until(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"{what} never became true"
        time.sleep(0.01)


class TestCoalescedCorrectness:
    def test_32_identical_clients_bitwise_equal_to_solo_run(
            self, server, service, manager, simple_regions):
        query = SpatialAggregation.sum_of("fare", F("fare") > 1)
        direct = manager.engine.execute(
            manager.dataset("trips"), simple_regions, query)

        def one(_i):
            client = ServeClient(server, timeout_s=30)
            return client.query("trips", "simple", query=query,
                                cache=False)

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            results = list(pool.map(one, range(CLIENTS)))

        assert len(results) == CLIENTS
        for remote in results:
            assert np.array_equal(remote.values, direct.values)
            assert np.array_equal(remote.lower, direct.lower)
            assert np.array_equal(remote.upper, direct.upper)
        # The burst must actually have coalesced (hit-rate > 0): far
        # fewer engine runs than clients.
        stats = service.flight.stats()
        assert stats["coalesced"] > 0
        assert stats["coalesce_rate"] > 0.0
        assert service.admission.active == 0
        assert service.admission.waiting == 0

    def test_mixed_distinct_queries_all_correct(self, server, service,
                                                manager, simple_regions):
        thresholds = [0.5 * k for k in range(8)]
        direct = {
            thr: manager.engine.execute(
                manager.dataset("trips"), simple_regions,
                SpatialAggregation.count(F("fare") > thr))
            for thr in thresholds
        }

        def one(i):
            thr = thresholds[i % len(thresholds)]
            client = ServeClient(server, timeout_s=30)
            remote = client.query(
                "trips", "simple",
                query=SpatialAggregation.count(F("fare") > thr))
            return thr, remote

        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            results = list(pool.map(one, range(CLIENTS)))
        for thr, remote in results:
            assert np.array_equal(remote.values, direct[thr].values)
        assert service.admission.active == 0


class TestOverload:
    def test_16x_overload_sheds_without_crashing_or_leaking(
            self, server, service, manager):
        # Make each engine run slow enough that a 16x burst of
        # *distinct* queries (no coalescing possible) must overflow the
        # 4-slot / 8-deep admission window.
        original = manager.engine.execute

        def slow_execute(*args, **kwargs):
            time.sleep(0.15)
            return original(*args, **kwargs)

        manager.engine.execute = slow_execute
        try:
            def one(i):
                client = ServeClient(server, timeout_s=30)
                try:
                    return "ok", client.query(
                        "trips", "simple",
                        query=SpatialAggregation.count(
                            F("fare") > 0.01 * i),
                        cache=False, timeout_s=0.4)
                except OverloadedError as exc:
                    return "shed", exc

            n = 16 * service.admission.max_concurrency
            with ThreadPoolExecutor(max_workers=n) as pool:
                outcomes = list(pool.map(one, range(n)))
        finally:
            manager.engine.execute = original

        served = [r for kind, r in outcomes if kind == "ok"]
        shed = [e for kind, e in outcomes if kind == "shed"]
        assert served, "overloaded server must still serve someone"
        assert shed, "a 16x burst of slow distinct queries must shed"
        for exc in shed:
            assert exc.retry_after_ms > 0
        # No leaked capacity once the dust settles.
        wait_until(lambda: service.admission.active == 0,
                   what="admission.active == 0")
        assert service.admission.waiting == 0
        shed_stats = service.admission.stats()
        assert shed_stats["shed_total"] == len(shed)

        # The server is still healthy: health, stats and a fresh query
        # all round-trip.
        client = ServeClient(server, timeout_s=30)
        assert client.health()["ok"] is True
        assert client.stats()["admission"]["active"] == 0
        fresh = client.query("trips", "simple",
                             query=SpatialAggregation.count())
        assert fresh.values.sum() > 0


class TestDisconnect:
    def test_client_disconnect_mid_query_frees_the_slot(
            self, server, service, manager):
        original = manager.engine.execute
        started = []

        def slow_execute(*args, **kwargs):
            started.append(1)
            time.sleep(0.5)
            return original(*args, **kwargs)

        manager.engine.execute = slow_execute
        try:
            body = json.dumps(encode_request(
                "trips", "simple", query=SpatialAggregation.count(),
                cache=False)).encode()
            parsed = urllib.parse.urlparse(server)
            sock = socket.create_connection(
                (parsed.hostname, parsed.port), timeout=5)
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
            wait_until(lambda: service.admission.active == 1,
                       what="query admitted")
            sock.close()  # walk away mid-execution
            wait_until(lambda: service.admission.active == 0,
                       what="slot freed after disconnect")
        finally:
            manager.engine.execute = original
        assert service.admission.waiting == 0
        # Capacity is genuinely back: the next query is served.
        client = ServeClient(server, timeout_s=30)
        assert client.query("trips", "simple",
                            query=SpatialAggregation.count()).values.sum() > 0


class TestHostileFraming:
    @pytest.mark.parametrize("length, body", [
        (b"abc", b""),
        (b"-5", b""),
        (b"2", b"\xff\xfe"),
    ], ids=["non-numeric-length", "negative-length", "non-utf8-body"])
    def test_bad_framing_is_a_400(self, server, length, body):
        parsed = urllib.parse.urlparse(server)
        with socket.create_connection((parsed.hostname, parsed.port),
                                      timeout=5) as sock:
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: " + length + b"\r\n\r\n" + body)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert json.loads(payload)["error"] == "ProtocolError"
        assert ServeClient(server).health()["ok"] is True

    def test_chunked_body_is_a_400_then_eof(self, server):
        parsed = urllib.parse.urlparse(server)
        with socket.create_connection((parsed.hostname, parsed.port),
                                      timeout=5) as sock:
            # Read by Content-Length alone, the chunked body would be
            # taken for a second request.
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n"
                         b"1a\r\nGET /v1/stats HTTP/1.1\r\n\r\n\r\n"
                         b"0\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert b"Connection: close" in head
        assert json.loads(payload)["error"] == "ProtocolError"

    def test_two_requests_on_one_socket_get_two_responses(self, server):
        body = json.dumps(encode_request(
            "trips", "simple", query=SpatialAggregation.count())).encode()
        parsed = urllib.parse.urlparse(server)
        with socket.create_connection((parsed.hostname, parsed.port),
                                      timeout=5) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            reply = b""
            while b"}" not in reply:
                reply += sock.recv(4096)
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\n"
                         + f"Content-Length: {len(body)}\r\n\r\n".encode()
                         + body)
            while chunk := sock.recv(4096):
                reply += chunk
        first, _, rest = reply.partition(b"\r\n\r\n")
        assert first.startswith(b"HTTP/1.1 200 "), first
        assert b"Connection: keep-alive" in first
        assert rest.startswith(b'{"ok": true, "v": 1}HTTP/1.1 200 '), rest
        second, _, payload = rest.partition(b"\r\n\r\n")
        assert b"Connection: close" in second
        assert json.loads(payload)["kind"] == "result"

    @pytest.mark.parametrize("method", ["rtree", "quadtree"])
    def test_retired_method_is_a_400(self, server, method):
        body = json.dumps(encode_request(
            "trips", "simple", query=SpatialAggregation.count(),
            method=method)).encode()
        request = urllib.request.Request(
            server + "/v1/query", data=body,
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        payload = json.loads(info.value.read())
        assert payload["error"] == "QueryError"
        assert "'grid'" in payload["message"]


class TestStreamingOverHTTP:
    def test_streamed_partials_end_final_and_match(self, server, service,
                                                   manager, simple_regions):
        client = ServeClient(server, timeout_s=60)
        parts = list(client.stream("trips", "simple",
                                   query=SpatialAggregation.count(),
                                   tile_pixels=64))
        assert parts, "stream produced no partials"
        assert parts[-1]["final"] is True
        direct = manager.engine.execute(
            manager.dataset("trips"), simple_regions,
            SpatialAggregation.count(), method="bounded")
        assert np.array_equal(np.asarray(parts[-1]["values"]),
                              direct.values)
        assert all(p["v"] == PROTOCOL_VERSION for p in parts)
        assert service.admission.active == 0

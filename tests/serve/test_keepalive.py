"""Kept-alive connections, and stored answers served on the event loop.

A client reuses one connection per thread; the server closes it after
an idle timeout, on ``stop()``, or after any non-200 response.  A query
whose answer the engine's answer tier holds is answered without an
admission slot, a flight or a pool thread.
"""

import time

import numpy as np
import pytest

from repro.core import SpatialAggregation
from repro.serve import ServeClient, ServerThread
from repro.table import F


@pytest.fixture()
def live(service):
    thread = ServerThread(service)
    thread.start()
    yield thread
    thread.stop()


def queries_total(client: ServeClient) -> float:
    return sum(c["value"] for c in client.metrics()["counters"]
               if c["name"] == "repro_queries_total")


class TestKeepAlive:
    def test_one_client_one_connection(self, live):
        with ServeClient(live.server.url) as client:
            for i in range(20):
                client.query("trips", "simple",
                             query=SpatialAggregation.count(F("fare") > i))
        assert live.server.connections == 1

    def test_idle_connection_reconnects_once(self, live, monkeypatch):
        monkeypatch.setattr("repro.serve.server.IDLE_TIMEOUT_S", 0.1)
        query = SpatialAggregation.count()
        with ServeClient(live.server.url) as client:
            first = client.query("trips", "simple", query=query)
            deadline = time.monotonic() + 5.0
            while live.server._open:
                assert time.monotonic() < deadline, "never idled out"
                time.sleep(0.02)
            again = client.query("trips", "simple", query=query)
        assert np.array_equal(again.values, first.values)
        assert live.server.connections == 2

    def test_stop_closes_an_idle_connection(self, service):
        thread = ServerThread(service)
        with ServeClient(thread.start()) as client:
            assert client.health()["ok"] is True
            t0 = time.monotonic()
            thread.stop()
            assert time.monotonic() - t0 < 2.0
            # The kept connection was closed by the server, and nothing
            # listens any more: the resend on a fresh connection fails.
            with pytest.raises(ConnectionError):
                client.health()


class TestStoredAnswersOnTheLoop:
    def test_third_sighting_needs_no_slot_flight_or_thread(
            self, live, service, monkeypatch):
        query = SpatialAggregation.sum_of("fare", F("fare") > 3)
        with ServeClient(live.server.url) as client:
            # The first sighting runs on the pool and stores the answer.
            client.query("trips", "simple", query=query)
            pooled = client.query("trips", "simple", query=query)
            leaders = service.flight.leaders
            queries, counted = service.queries, queries_total(client)

            def refuse(*_args, **_kwargs):
                raise AssertionError("a stored answer reached the pool")

            monkeypatch.setattr(service.executor, "submit", refuse)
            monkeypatch.setattr(service.admission, "slot", refuse)
            hit = client.query("trips", "simple", query=query)
            assert hit.stats["answer"] == {"hit": True}
            assert np.array_equal(hit.values, pooled.values)
            assert np.array_equal(hit.lower, pooled.lower)
            assert np.array_equal(hit.upper, pooled.upper)
            assert service.flight.leaders == leaders
            assert service.queries == queries + 1
            assert queries_total(client) == counted + 1

    def test_cache_false_still_reaches_the_pool(self, live, service,
                                                monkeypatch):
        query = SpatialAggregation.count(F("fare") > 3)
        submitted = []
        submit = service.executor.submit

        def counting(*args, **kwargs):
            submitted.append(1)
            return submit(*args, **kwargs)

        with ServeClient(live.server.url) as client:
            for _ in range(3):
                client.query("trips", "simple", query=query)
            monkeypatch.setattr(service.executor, "submit", counting)
            off = client.query("trips", "simple", query=query, cache=False)
        assert "answer" not in off.stats
        assert submitted == [1]

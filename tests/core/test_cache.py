"""Tests for the unified cache layer: fingerprints, LRU, accounting."""

import gc

import numpy as np
import pytest

from repro.core import (
    ExecutionContext,
    QueryCache,
    SpatialAggregation,
    SpatialAggregationEngine,
    fingerprint,
)
from repro.errors import QueryError
from repro.table import PointTable


def _table(n=100, seed=0, name="t"):
    gen = np.random.default_rng(seed)
    return PointTable.from_arrays(gen.uniform(0, 100, n),
                                  gen.uniform(0, 100, n), name=name)


class TestFingerprint:
    def test_stable_per_object(self):
        t = _table()
        assert fingerprint(t) == fingerprint(t)

    def test_distinct_objects_distinct_tokens(self):
        assert fingerprint(_table(seed=1)) != fingerprint(_table(seed=2))

    def test_token_never_reused_after_gc(self):
        # The id()-reuse regression: a collected table's address can be
        # handed to a new table, but its fingerprint token cannot.
        seen = set()
        for i in range(50):
            t = _table(10, seed=i)
            fp = fingerprint(t)
            assert fp not in seen
            seen.add(fp)
            del t
            gc.collect()


class TestQueryCache:
    def test_hit_miss_counters(self):
        cache = QueryCache()
        assert cache.get(("k",)) is None
        cache.put(("k",), "v", nbytes=8)
        assert cache.get(("k",)) == "v"
        assert cache.misses == 1 and cache.hits == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_get_or_build_builds_once(self):
        cache = QueryCache()
        calls = []
        for __ in range(3):
            cache.get_or_build(("k",), lambda: calls.append(1) or "v",
                               nbytes=8)
        assert len(calls) == 1
        assert cache.hits == 2 and cache.misses == 1

    def test_lru_eviction_by_entries(self):
        cache = QueryCache(max_entries=2)
        for i in range(3):
            cache.put(("k", i), i, nbytes=1)
        assert cache.evictions == 1
        assert ("k", 0) not in cache          # oldest gone
        assert ("k", 2) in cache

    def test_lru_order_respects_recency(self):
        cache = QueryCache(max_entries=2)
        cache.put(("a",), 1, nbytes=1)
        cache.put(("b",), 2, nbytes=1)
        cache.get(("a",))                      # touch: b is now LRU
        cache.put(("c",), 3, nbytes=1)
        assert ("a",) in cache and ("b",) not in cache

    def test_byte_budget_eviction(self):
        cache = QueryCache(max_bytes=100)
        cache.put(("a",), "x", nbytes=60)
        cache.put(("b",), "y", nbytes=60)
        assert cache.total_bytes <= 100
        assert cache.evictions == 1 and ("b",) in cache

    def test_oversized_entry_still_stored(self):
        cache = QueryCache(max_bytes=10)
        cache.put(("big",), "x", nbytes=1000)
        assert ("big",) in cache

    def test_byte_accounting_from_ndarrays(self):
        cache = QueryCache()
        arr = np.zeros(1000)
        cache.put(("a",), arr)
        assert cache.total_bytes >= arr.nbytes

    def test_peek_does_not_count(self):
        cache = QueryCache()
        cache.put(("k",), "v", nbytes=1)
        cache.peek(("k",))
        cache.peek(("missing",))
        assert cache.hits == 0 and cache.misses == 0

    def test_invalidate_prefix(self):
        cache = QueryCache()
        cache.put(("fragments", 1), "a", nbytes=1)
        cache.put(("grid-index", 1), "b", nbytes=1)
        assert cache.invalidate("fragments") == 1
        assert ("fragments", 1) not in cache
        assert ("grid-index", 1) in cache

    def test_reinserting_existing_key_moves_it_to_hot_end(self):
        cache = QueryCache(max_entries=2)
        cache.put(("a",), 1, nbytes=1)
        cache.put(("b",), 2, nbytes=5)
        cache.put(("a",), 11, nbytes=3)         # a is now the newest
        assert cache.total_bytes == 8            # old a's bytes released
        cache.put(("c",), 3, nbytes=1)
        assert ("a",) in cache and ("b",) not in cache
        assert cache.get(("a",)) == 11

    def test_bad_budget_rejected(self):
        with pytest.raises(QueryError):
            QueryCache(max_bytes=0)

    def test_keys_list_insertion_order_not_recency(self):
        cache = QueryCache()
        for name in ("a", "b", "c"):
            cache.put((name,), name, nbytes=1)
        cache.get(("a",))  # touched, but keeps its insertion slot
        assert cache.keys() == [("a",), ("b",), ("c",)]
        assert cache.invalidate("b") == 1
        assert cache.keys() == [("a",), ("c",)]


class TestContextCaching:
    def test_index_not_shared_across_tables(self):
        # Regression for the id()-keyed caches: two different tables must
        # never share an index, even when the first has been collected
        # and its address reused.  Fingerprint tokens make this
        # deterministic instead of GC-timing dependent.
        ctx = ExecutionContext()
        a = _table(200, seed=1, name="a")
        idx_a = ctx.grid_index(a)
        addr_a = id(a)
        del a
        gc.collect()
        b = _table(200, seed=2, name="b")
        idx_b = ctx.grid_index(b)
        assert idx_a is not idx_b
        # Even a table landing on the recycled address gets its own entry.
        tables = [_table(200, seed=3 + i) for i in range(8)]
        recycled = next((t for t in tables if id(t) == addr_a), None)
        if recycled is not None:
            assert ctx.grid_index(recycled) is not idx_a

    def test_engine_eviction_observable_in_stats(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64,
                                          cache_max_entries=2)
        query = SpatialAggregation.count()
        for n in (100, 200, 300):
            engine.execute(_table(n, seed=n), simple_regions, query,
                           method="grid")
        stats = engine.cache_stats()
        assert stats["evictions"] > 0
        assert stats["entries"] <= 2

    def test_repeated_query_hits_cache(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        t = _table(500, seed=9)
        query = SpatialAggregation.count()
        engine.execute(t, simple_regions, query, method="bounded")
        warm = engine.execute(t, simple_regions, query, method="bounded")
        assert warm.stats["cache"]["query_hits"] > 0
        assert warm.stats["cache"]["query_misses"] == 0


class TestAnswerTier:
    """``engine.execute``'s answer tier: admitted on a key's first
    sighting, served from the second, frozen and per-call stats."""

    def _run(self, engine, table, regions, **kwargs):
        return engine.execute(table, regions, SpatialAggregation.count(),
                              method="bounded", **kwargs)

    @staticmethod
    def _answers(engine):
        return [k for k in engine.ctx.cache.keys() if k[0] == "answer"]

    def test_admitted_on_first_sighting(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        t = _table(500, seed=21)
        first = self._run(engine, t, simple_regions)
        assert "answer" not in first.stats  # built, then stored
        assert len(self._answers(engine)) == 1
        assert not first.values.flags.writeable  # frozen when stored
        second = self._run(engine, t, simple_regions)
        assert second.stats["answer"] == {"hit": True}
        assert second.values is first.values
        assert second.stats["cache"]["query_hits"] == 1
        assert second.stats["cache"]["query_misses"] == 0

    def test_hit_arrays_are_read_only(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        t = _table(500, seed=22)
        for _ in range(3):
            hit = self._run(engine, t, simple_regions)
        for arr in (hit.values, hit.lower, hit.upper):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_hit_stats_are_per_call(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        t = _table(500, seed=23)
        built = [self._run(engine, t, simple_regions)]
        a = self._run(engine, t, simple_regions)
        b = self._run(engine, t, simple_regions)
        assert a.stats is not b.stats
        a.stats["poison"] = True
        a.stats["answer"]["hit"] = "edited"
        assert "poison" not in b.stats
        assert self._run(engine, t, simple_regions).stats["answer"] == {
            "hit": True}
        # What describes the answer stays; the builder's work does not.
        assert b.stats["plan"]["decision"]["chosen"] == "bounded"
        for k in ("points_in_viewport", "points_after_filter"):
            assert b.stats[k] == built[-1].stats[k]
        assert "time_point_pass_s" not in b.stats
        assert b.stats["time_execute_s"] >= 0.0

    def test_cache_false_neither_reads_nor_writes(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        t = _table(500, seed=24)
        for _ in range(3):
            off = self._run(engine, t, simple_regions, cache=False)
            assert "answer" not in off.stats
        assert not self._answers(engine)
        # An answer stored by a cached call is not read with cache=False.
        self._run(engine, t, simple_regions)
        assert len(self._answers(engine)) == 1
        off = self._run(engine, t, simple_regions, cache=False)
        assert "answer" not in off.stats and off.values.flags.writeable

    def test_new_table_object_misses(self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        t = _table(500, seed=25)
        for _ in range(3):
            self._run(engine, t, simple_regions)
        same_rows = _table(500, seed=25)
        assert "answer" not in self._run(engine, same_rows,
                                         simple_regions).stats

    def test_budget_that_evicts_every_answer_still_answers(
            self, simple_regions):
        from repro.core import bounded_raster_join

        # One entry: each run's fragment put evicts the other
        # resolution's answer, so every lookup misses.
        engine = SpatialAggregationEngine(cache_max_entries=1)
        t = _table(500, seed=26)
        want = {}
        for res in (64, 48):
            vp = engine.plan_viewport(simple_regions, res, None)
            want[res] = bounded_raster_join(
                t, simple_regions, SpatialAggregation.count(), vp)
        for _ in range(4):
            for res in (64, 48):
                got = self._run(engine, t, simple_regions, resolution=res)
                assert "answer" not in got.stats
                for part in ("values", "lower", "upper"):
                    assert np.array_equal(getattr(got, part),
                                          getattr(want[res], part))
        assert engine.cache_stats()["evictions"] > 0


class TestThreadSafety:
    def test_concurrent_mixed_operations_stay_consistent(self):
        import threading

        cache = QueryCache(max_bytes=1 << 20, max_entries=64)
        errors = []

        def worker(seed):
            gen = np.random.default_rng(seed)
            try:
                for i in range(300):
                    key = ("k", int(gen.integers(0, 32)))
                    op = gen.random()
                    if op < 0.5:
                        cache.get_or_build(
                            key, lambda: np.zeros(int(gen.integers(1, 64))))
                    elif op < 0.8:
                        cache.get(key)
                    elif op < 0.9:
                        cache.put(key, np.zeros(8))
                    else:
                        cache.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["entries"] <= 64
        # Byte ledger must equal the sum of live entries exactly.
        with cache._lock:
            assert cache.total_bytes == sum(
                e.nbytes for e in cache._entries.values())

    def test_byte_ledger_survives_concurrent_insert_evict_soak(self):
        """Randomized soak with the evictor permanently hot: a tiny
        budget, many distinct keys and oversized values keep every put
        evicting while other threads insert, invalidate and clear —
        the byte ledger must still equal a full recount at the end."""
        import threading

        cache = QueryCache(max_bytes=16 << 10, max_entries=16)
        errors = []

        def worker(seed):
            gen = np.random.default_rng(seed)
            try:
                for i in range(400):
                    key = (f"p{int(gen.integers(0, 4))}",
                           int(gen.integers(0, 64)))
                    op = gen.random()
                    if op < 0.45:
                        cache.put(key,
                                  np.zeros(int(gen.integers(16, 512))))
                    elif op < 0.70:
                        cache.get_or_build(
                            key,
                            lambda: np.zeros(int(gen.integers(16, 512))))
                    elif op < 0.93:
                        cache.get(key)
                    elif op < 0.99:
                        cache.invalidate(f"p{int(gen.integers(0, 4))}")
                    else:
                        cache.clear()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.evictions > 0  # the soak actually exercised LRU
        with cache._lock:
            recount = sum(e.nbytes for e in cache._entries.values())
            assert cache._bytes == recount
            assert cache._bytes >= 0
            assert len(cache._entries) <= cache.max_entries

    def test_single_flight_builds_once_under_contention(self):
        import threading
        import time as _time

        cache = QueryCache()
        builds = []
        barrier = threading.Barrier(8)

        def build():
            builds.append(1)
            _time.sleep(0.05)
            return np.arange(10)

        out = []

        def worker():
            barrier.wait()
            out.append(cache.get_or_build(("slow",), build))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert len(out) == 8
        assert cache.single_flight_waits >= 1

    def test_failed_leader_does_not_poison_the_key(self):
        import threading

        cache = QueryCache()
        attempts = []

        def failing():
            attempts.append(1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_build(("k",), failing)
        # The latch must be gone: a later build succeeds normally.
        value = cache.get_or_build(("k",), lambda: 42)
        assert value == 42
        assert ("k",) in cache
        assert not cache._building

    def test_waiter_arriving_before_the_build_blocks(self, monkeypatch):
        """A waiter that arrives after the leader registered its latch
        but before the build starts must block on the latch until the
        leader stores, not find the latch free and spin.

        The leader is paused in exactly that window: its first release
        of the main lock after registering the latch runs the waiter
        until it blocks on the latch (or finishes).  A waiter that
        enters the latch a second time is spinning, and fails."""
        import threading
        from types import SimpleNamespace

        from repro.core import cache as cache_mod

        cache = QueryCache()
        key = ("slow",)
        leader = threading.current_thread()
        blocked, done = threading.Event(), threading.Event()
        entries, errors, builds, out = [], [], [], {}

        class Latch:
            def __init__(self):
                self._lock = threading.Lock()

            def acquire(self, blocking=True, timeout=-1):
                if threading.current_thread() is leader:
                    return self._lock.acquire(blocking, timeout)
                entries.append(1)
                if len(entries) > 1:
                    raise AssertionError("waiter re-entered the latch")
                if not self._lock.acquire(blocking=False):
                    blocked.set()
                    self._lock.acquire()
                return True

            def release(self):
                self._lock.release()

            def __enter__(self):
                return self.acquire()

            def __exit__(self, *exc):
                self.release()

        class PausingLock:
            def __init__(self, inner):
                self.inner = inner
                self.paused = False

            def __enter__(self):
                self.inner.acquire()

            def __exit__(self, *exc):
                self.inner.release()
                if (threading.current_thread() is leader
                        and not self.paused and key in cache._building):
                    self.paused = True
                    waiter.start()
                    for _ in range(500):
                        if blocked.is_set() or done.wait(0.01):
                            break

        def build():
            builds.append(1)
            return object()

        def wait_for_build():
            try:
                out["waiter"] = cache.get_or_build(key, build)
            except BaseException as exc:
                errors.append(exc)
            finally:
                done.set()

        waiter = threading.Thread(target=wait_for_build)
        cache._lock = PausingLock(cache._lock)
        monkeypatch.setattr(cache_mod, "threading", SimpleNamespace(
            Lock=Latch, RLock=threading.RLock))
        out["leader"] = cache.get_or_build(key, build)
        waiter.join(5)
        assert not errors
        assert blocked.is_set()
        assert len(builds) == 1
        assert out["waiter"] is out["leader"]
        assert cache.misses == 2  # one per caller
        assert cache.single_flight_waits == 1


class TestSeenKeys:
    def test_second_sighting_is_seen(self):
        cache = QueryCache()
        assert not cache.note_seen(("a",))
        assert cache.note_seen(("a",))
        assert not cache.note_seen(("b",))
        assert ("a",) not in cache  # remembered, never stored

    def test_a_sighting_returns_the_previous_tag(self):
        cache = QueryCache()
        assert cache.note_seen(("f",), "v0") is None
        assert cache.note_seen(("f",), "v0") == "v0"
        assert cache.note_seen(("f",), "v1") == "v0"  # moved
        assert cache.note_seen(("f",), "v1") == "v1"
        cache.clear()
        assert cache.note_seen(("f",), "v1") is None

    def test_bounded_lru(self):
        from repro.core.cache import MAX_SEEN_KEYS

        cache = QueryCache()
        for i in range(MAX_SEEN_KEYS):
            cache.note_seen((i,))
        assert cache.note_seen((0,))  # touched: now the newest
        cache.note_seen(("new",))  # evicts key 1, the oldest
        assert len(cache._seen) == MAX_SEEN_KEYS
        assert cache.note_seen((0,))
        assert not cache.note_seen((1,))
        assert len(cache._seen) == MAX_SEEN_KEYS


class TestFamilyIndex:
    """``QueryCache.family`` lists a table's cubes from an index that
    puts, evictions, invalidation and clear keep in step."""

    def test_index_follows_puts_evictions_and_invalidation(self):
        cache = QueryCache(max_entries=3)
        cache.put(("tcube", "t1", "a"), 1)
        cache.put(("tcube", "t2", "b"), 2)
        cache.put(("other", "t1"), 3)
        assert cache.family("tcube", "t1") == [(("tcube", "t1", "a"), 1)]
        cache.put(("tcube", "t1", "c"), 4)  # evicts ("tcube", "t1", "a")
        assert cache.family("tcube", "t1") == [(("tcube", "t1", "c"), 4)]
        cache.put(("tcube", "t1", "c"), 5)  # a replacement, not a second
        assert cache.family("tcube", "t1") == [(("tcube", "t1", "c"), 5)]
        assert cache.invalidate("tcube") == 2
        assert cache.family("tcube", "t1") == cache.family("tcube", "t2") \
            == []
        cache.put(("cube", "t1", "r", "spec"), 6)
        cache.clear()
        assert cache.family("cube", "t1") == [] and not cache._families

    def test_index_equals_a_key_scan_after_random_traffic(self):
        gen = np.random.default_rng(4)
        cache = QueryCache(max_bytes=4_000, max_entries=24)
        for _ in range(2_000):
            prefix = ("cube", "tcube", "canvas-block")[gen.integers(0, 3)]
            key = (prefix, int(gen.integers(0, 4)), int(gen.integers(0, 9)))
            if gen.random() < 0.9:
                cache.put(key, None, nbytes=int(gen.integers(1, 400)))
            else:
                cache.invalidate(prefix)
        for prefix in ("cube", "tcube"):
            for owner in range(4):
                want = [k for k in cache.keys()
                        if k[0] == prefix and k[1] == owner]
                assert [k for k, __ in cache.family(prefix, owner)] == want


class TestDefensiveCopies:
    def test_cached_answer_is_frozen_and_stats_per_reader(
            self, simple_regions):
        engine = SpatialAggregationEngine(default_resolution=64)
        t = _table(500, seed=11)
        query = SpatialAggregation.count()
        # The first sighting stores the answer.
        built = engine.execute(t, simple_regions, query, method="bounded")
        again = engine.execute(t, simple_regions, query, method="bounded")
        assert again is not built
        assert again.stats["answer"] == {"hit": True}
        assert np.array_equal(again.values, built.values)
        # No reader can write into the shared arrays ...
        with pytest.raises(ValueError):
            again.values[:] = -1.0
        # ... and one reader's stats edit never reaches the next reader.
        again.stats["poison"] = True
        third = engine.execute(t, simple_regions, query, method="bounded")
        assert "poison" not in third.stats
        assert np.array_equal(third.values, built.values)

    def test_non_result_artifacts_shared_by_reference(self):
        cache = QueryCache()
        arr = np.arange(5)
        cache.put(("a",), arr)
        assert cache.get(("a",)) is arr

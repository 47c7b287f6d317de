"""The unified execution cache: content fingerprints + a bounded LRU store.

Every reusable artifact on the execution path — polygon fragment
tables, point indexes, materialized cubes, pyramid blocks and frozen
query answers — lives in one :class:`QueryCache` keyed by *content
fingerprints* instead of raw ``id()`` values.  ``id()`` keys have a
latent reuse bug: once a table is garbage collected its address can be
handed to a brand-new table, and a stale index would silently answer
for the wrong data.  Fingerprints are drawn from a process-global
monotone counter and attached to the object, so a token is never
reused.  Tables, stores and cubes are immutable (a derived table gets a
new token), so a token never needs invalidating.

The store itself is an LRU with per-entry byte accounting, a byte and
entry budget, and hit/miss/eviction counters — the numbers surfaced as
``result.stats["cache"]`` on every query.

Concurrency contract (the serving layer runs many engine calls against
one cache from a thread pool):

* every mutation — LRU touch, insert, eviction, byte accounting,
  counter bump — happens under one internal lock, so concurrent
  queries can never corrupt the order book or the byte ledger;
* :meth:`QueryCache.get_or_build` is *single-flight per key*: the first
  thread to miss becomes the build leader, concurrent threads asking
  for the same key block on a per-key latch and receive the leader's
  artifact instead of duplicating the build (``single_flight_waits``
  counts the piggybacks).  Distinct keys build concurrently — the main
  lock is never held across a build;
* every value is handed out **by reference**, with no copy on read:
  nothing mutable is cached.  An answer (an ``("answer", ...)`` key,
  stored by :meth:`~repro.core.executor.SpatialAggregationEngine.execute`)
  holds read-only ``values`` / ``lower`` / ``upper`` arrays, and each
  hit wraps them in a new result with a stats dict of its own.  An
  answer is stored on first sight; pyramid blocks wait until their
  family's viewport moves (:meth:`QueryCache.note_seen`), so a one-off
  query leaves only its answer behind.
"""

from __future__ import annotations

import itertools
import mmap
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import QueryError

_TOKEN_COUNTER = itertools.count(1)

#: How many recently seen keys :meth:`QueryCache.note_seen` remembers.
#: A key is a few small tuples, so the memory is a few kilobytes.
MAX_SEEN_KEYS = 64

#: Key prefixes (as 1-tuples) :meth:`QueryCache.family` indexes by
#: ``key[:2]``: a table's cubes are found without walking every key.
#: A fragment table's gather plans, keyed ``("gather-plan", table key,
#: ...)``, are indexed too: they leave the cache with their table.
INDEXED = frozenset({("cube",), ("tcube",), ("gather-plan",)})

_TOKEN_ATTR = "_repro_cache_token"

#: Guards token assignment so two threads fingerprinting the same new
#: object cannot race to different tokens.
_TOKEN_LOCK = threading.Lock()


def fingerprint(obj) -> tuple:
    """A stable, never-reused cache token for ``obj``.

    Returns ``(type name, token)``.  The token is assigned on
    first sight from a global counter and stored on the object, so —
    unlike ``id()`` — two objects can never share one even across
    garbage collection.  Hashable objects that reject attributes (e.g.
    strings) are keyed by value instead.
    """
    token = getattr(obj, _TOKEN_ATTR, None)
    if token is None:
        with _TOKEN_LOCK:
            token = getattr(obj, _TOKEN_ATTR, None)
            if token is None:
                token = next(_TOKEN_COUNTER)
                try:
                    object.__setattr__(obj, _TOKEN_ATTR, token)
                except (AttributeError, TypeError):
                    # No __dict__ (slots, builtins): key by value.
                    return (type(obj).__name__, obj)
    return (type(obj).__name__, token)


def _is_mmap_backed(arr: np.ndarray) -> bool:
    """Whether ``arr``'s buffer is a file mapping (directly or through a
    view chain).  Views keep their source alive via ``.base``, and a
    ``frombuffer`` view via its memoryview's ``.obj``, so walking the
    chain finds the owning ``mmap.mmap`` — an ``np.memmap``'s base is
    one too."""
    node = arr
    while node is not None:
        if isinstance(node, mmap.mmap):
            return True
        node = (node.obj if isinstance(node, memoryview)
                else getattr(node, "base", None))
    return False


def _buffer_root(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s buffer (walks the ``.base`` chain)."""
    node = arr
    while isinstance(getattr(node, "base", None), np.ndarray):
        node = node.base
    return node


def estimate_nbytes(value, _depth: int = 0, _seen: set | None = None) -> int:
    """Approximate resident size of a cached artifact.

    Sums ndarray buffers reachable through attributes/containers (two
    levels deep), preferring an object's own ``memory_bytes()`` (or
    integer ``nbytes``) when it has one.  An estimate, not an audit —
    the cache budget only needs the right order of magnitude.

    Arrays sharing one buffer are charged **once**: each ndarray is
    resolved to its buffer-owning root through the ``.base`` chain, and
    a root already seen within this artifact charges zero.  Pyramid
    levels and canvas slices are views of their source canvas, so
    charging each view its full ``nbytes`` would bill the same memory
    several times over and evict unrelated artifacts to cover bytes
    that were never allocated.

    Memmap-backed arrays charge **zero**: their pages are file-backed
    and reclaimable by the OS at any time, so billing them against the
    cache's byte budget would evict genuinely resident artifacts to
    "free" memory the cache never held (out-of-core store partitions
    are the main producer of such arrays).
    """
    if value is None:
        return 0
    if _seen is None:
        _seen = set()
    if isinstance(value, np.ndarray):
        if _is_mmap_backed(value):
            return 0
        root = _buffer_root(value)
        if id(root) in _seen:
            return 0
        _seen.add(id(root))
        return int(root.nbytes)
    mem = getattr(value, "memory_bytes", None)
    if callable(mem):
        return int(mem())
    if isinstance(getattr(value, "nbytes", None), int):
        return value.nbytes  # a prepared run gather
    if _depth >= 2:
        return 0
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_nbytes(v, _depth + 1, _seen) for v in value)
    if isinstance(value, dict):
        return sum(estimate_nbytes(v, _depth + 1, _seen)
                   for v in value.values())
    attrs = getattr(value, "__dict__", None)
    if attrs:
        return 64 + sum(estimate_nbytes(v, _depth + 1, _seen)
                        for v in attrs.values())
    return 64


@dataclass
class CacheEntry:
    value: object
    nbytes: int


class QueryCache:
    """Thread-safe LRU cache with byte accounting and single-flight
    builds; hit/miss/eviction counters surface in query stats."""

    def __init__(self, max_bytes: int = 256 * 1024 * 1024,
                 max_entries: int = 512):
        if max_bytes < 1 or max_entries < 1:
            raise QueryError("cache budgets must be positive")
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        #: Per-key build latches for single-flight get_or_build.
        self._building: dict[tuple, threading.Lock] = {}
        #: Keys asked about but not necessarily built (see note_seen).
        self._seen: OrderedDict[tuple, object] = OrderedDict()
        #: (prefix, key[1]) -> that family's keys, in insertion order.
        self._families: dict[tuple, dict[tuple, None]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Lookups that blocked on another thread's in-progress build of
        #: the same key and reused its artifact (stampedes prevented).
        self.single_flight_waits = 0
        #: Block-tier reuse ledger (the canvas-pyramid assembly path):
        #: blocks served from cache, scattered fresh, derived by 2x2
        #: reduction, and the pixel volumes assembled vs. re-scattered.
        self.block_hits = 0
        self.block_misses = 0
        self.block_derived = 0
        self.assembled_pixels = 0
        self.scattered_pixels = 0

    # -- core operations ---------------------------------------------------

    def get(self, key: tuple, default=None):
        """Fetch + LRU-touch; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return default
            self.hits += 1
            self._entries.move_to_end(key)
            return entry.value

    def peek(self, key: tuple, default=None):
        """Fetch without touching LRU order or counters (planner probes)."""
        with self._lock:
            entry = self._entries.get(key)
            return default if entry is None else entry.value

    def put(self, key: tuple, value, nbytes: int | None = None) -> None:
        if nbytes is None:
            nbytes = estimate_nbytes(value)
        with self._lock:
            if key in self._entries:
                self._unlink(key)
            self._entries[key] = CacheEntry(value, int(nbytes))
            self._bytes += int(nbytes)
            if key[:1] in INDEXED:
                self._families.setdefault(key[:2], {})[key] = None
            self._evict()

    def get_or_build(self, key: tuple, builder, nbytes: int | None = None):
        """The main entry point: return the cached value or build + store.

        Single-flight: concurrent callers of the same missing key run
        one build; the rest block on a per-key latch and reuse the
        leader's artifact.  The main lock is never held across
        ``builder()``, so distinct keys build concurrently.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry.value
            self.misses += 1
            latch = self._building.get(key)
            leader = latch is None
            if leader:
                # Held from birth: a waiter arriving before the build
                # starts must block, not find a free latch and spin.
                latch = self._building[key] = threading.Lock()
                latch.acquire()
        if not leader:
            # Wait for the leader's build, then read what it stored.
            with latch:
                pass
            with self._lock:
                self.single_flight_waits += 1
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    return entry.value
            # Leader failed (builder raised) — fall through and build.
            return self.get_or_build(key, builder, nbytes=nbytes)
        try:
            value = builder()
            self.put(key, value, nbytes=nbytes)
        finally:
            with self._lock:
                self._building.pop(key, None)
            latch.release()
        return value

    def note_seen(self, key: tuple, tag=True):
        """Record a sighting of ``key`` tagged ``tag``; return the tag of
        its previous sighting, or None for a first sighting.

        The memory is an LRU of the last :data:`MAX_SEEN_KEYS` keys,
        independent of the entries, so a caller can build an artifact
        only for a key that comes back (the pyramid stores a block
        family's blocks once its viewport tag moves).  :meth:`clear`
        forgets it.
        """
        with self._lock:
            last = self._seen.pop(key, None)
            self._seen[key] = tag
            if len(self._seen) > MAX_SEEN_KEYS:
                self._seen.popitem(last=False)
            return last

    def family(self, prefix: str, owner) -> list[tuple]:
        """``(key, value)`` of every entry keyed ``(prefix, owner, ...)``
        for an :data:`INDEXED` prefix, in insertion order; peek only."""
        with self._lock:
            keys = self._families.get((prefix, owner), ())
            return [(k, self._entries[k].value) for k in keys]

    def _unlink(self, key: tuple) -> None:
        # Drop an entry, its bytes, its index slot and, for a fragment
        # table, its gather plans (lock held).
        self._bytes -= self._entries.pop(key).nbytes
        if key[:1] in INDEXED:
            members = self._families[key[:2]]
            del members[key]
            if not members:
                del self._families[key[:2]]
        if key[:1] == ("fragments",):
            for plan in list(self._families.get(("gather-plan", key), ())):
                self._unlink(plan)

    def _evict(self) -> None:
        # Evict LRU-first until within budget; the newest entry always
        # survives so a single oversized artifact is still usable.
        # Callers hold self._lock.
        while len(self._entries) > 1 and (
                self._bytes > self.max_bytes
                or len(self._entries) > self.max_entries):
            self._unlink(next(iter(self._entries)))
            self.evictions += 1

    # -- block-tier accounting ---------------------------------------------

    def note_blocks(self, hits: int = 0, misses: int = 0, derived: int = 0,
                    assembled_pixels: int = 0,
                    scattered_pixels: int = 0) -> None:
        """Record one assembly's block reuse (called by the pyramid
        path after each canvas is assembled)."""
        with self._lock:
            self.block_hits += int(hits)
            self.block_misses += int(misses)
            self.block_derived += int(derived)
            self.assembled_pixels += int(assembled_pixels)
            self.scattered_pixels += int(scattered_pixels)

    def block_snapshot(self) -> dict:
        """Point-in-time block counters (executors diff two snapshots
        to attribute reuse to a single query)."""
        with self._lock:
            return {
                "hits": self.block_hits,
                "misses": self.block_misses,
                "derived": self.block_derived,
                "assembled_pixels": self.assembled_pixels,
                "scattered_pixels": self.scattered_pixels,
            }

    # -- maintenance -------------------------------------------------------

    def invalidate(self, prefix: str) -> int:
        """Drop every entry whose key starts with ``prefix``; returns the
        number removed (not counted as evictions)."""
        with self._lock:
            doomed = [k for k in dict.keys(self._entries)
                      if k and k[0] == prefix]
            for key in doomed:
                self._unlink(key)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._seen.clear()
            self._families.clear()
            self._bytes = 0

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[tuple]:
        """Snapshot of the current keys, in insertion order: the plain
        dict view skips the ``OrderedDict`` iterator's per-key lookup
        (block keys hash frozen dataclasses)."""
        with self._lock:
            return list(dict.keys(self._entries))

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        """Counters + occupancy, the ``stats["cache"]`` payload."""
        with self._lock:
            lookups = self.hits + self.misses
            pixels = self.assembled_pixels + self.scattered_pixels
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "single_flight_waits": self.single_flight_waits,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "blocks": {
                    "hits": self.block_hits,
                    "misses": self.block_misses,
                    "derived": self.block_derived,
                    "assembled_pixels": self.assembled_pixels,
                    "scattered_pixels": self.scattered_pixels,
                    "reuse_fraction": (self.assembled_pixels / pixels
                                       if pixels else 0.0),
                },
            }

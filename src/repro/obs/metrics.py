"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The subsystems already count everything (`stats["cache"]`,
``stats["store"]``, the admission/coalesce funnels) — what
was missing is one place those counters accumulate across queries and
one endpoint that exports them.  The registry here is that place:

* **Counters** accumulate once per *served response* via
  :func:`record_query_stats` — so registry totals reconcile exactly
  with the sum of the per-query ``stats`` payloads clients received
  (coalesced joiners each get a response, so each records; that is the
  reconciliation contract, not a double count).
* **Gauges** are sampled at scrape time by :func:`sample_service_stats`
  from ``QueryService.stats()`` — funnel states and cache occupancy.
* **Histograms** use fixed millisecond buckets (no quantile sketches —
  zero-dependency and mergeable), exported in both JSON and Prometheus
  text exposition by ``GET /v1/metrics``.

Everything is threadsafe: responses finish on the event loop, scrapes
arrive on handler tasks, and tests poke from anywhere.
"""

from __future__ import annotations

import threading

#: Latency buckets in milliseconds.  Fixed so histograms merge across
#: processes and restarts; the +Inf bucket is implicit.
DEFAULT_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """Monotonic accumulator."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins sample."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket latency histogram (observations in milliseconds).

    ``counts[i]`` is the number of observations ``<= buckets_ms[i]``
    *non*-cumulative; the final slot is the +Inf overflow.  Prometheus
    rendering cumulates on the way out.
    """

    __slots__ = ("buckets_ms", "counts", "sum_ms", "count", "_lock")

    def __init__(self, buckets_ms=DEFAULT_BUCKETS_MS):
        self.buckets_ms = tuple(float(b) for b in buckets_ms)
        if list(self.buckets_ms) != sorted(self.buckets_ms):
            raise ValueError("buckets must be sorted ascending")
        self.counts = [0] * (len(self.buckets_ms) + 1)
        self.sum_ms = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value_ms: float) -> None:
        index = len(self.buckets_ms)
        for i, bound in enumerate(self.buckets_ms):
            if value_ms <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self.sum_ms += value_ms
            self.count += 1


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Get-or-create store of named, labeled metrics.

    Metrics are keyed by ``(name, sorted label items)``; asking for the
    same pair twice returns the same object, so call sites never hold
    references across the registry's lifetime.  :meth:`reset` exists
    for tests — production registries only ever grow.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                metric = self._counters[key] = Counter()
            return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                metric = self._gauges[key] = Gauge()
            return metric

    def histogram(self, name: str, buckets_ms=DEFAULT_BUCKETS_MS,
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                metric = self._histograms[key] = Histogram(buckets_ms)
            return metric

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The JSON body of ``GET /v1/metrics``."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": m.value}
                for (name, labels), m in sorted(counters,
                                                key=lambda kv: kv[0])],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": m.value}
                for (name, labels), m in sorted(gauges,
                                                key=lambda kv: kv[0])],
            "histograms": [
                {"name": name, "labels": dict(labels),
                 "buckets_ms": list(m.buckets_ms),
                 "counts": list(m.counts),
                 "sum_ms": m.sum_ms, "count": m.count}
                for (name, labels), m in sorted(histograms,
                                                key=lambda kv: kv[0])],
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        snap = self.snapshot()
        typed: set[str] = set()

        def fmt_labels(labels: dict, extra: dict | None = None) -> str:
            merged = dict(labels)
            if extra:
                merged.update(extra)
            if not merged:
                return ""
            body = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
            return "{" + body + "}"

        def head(name: str, kind: str) -> None:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for entry in snap["counters"]:
            head(entry["name"], "counter")
            lines.append(f"{entry['name']}{fmt_labels(entry['labels'])}"
                         f" {entry['value']:g}")
        for entry in snap["gauges"]:
            head(entry["name"], "gauge")
            lines.append(f"{entry['name']}{fmt_labels(entry['labels'])}"
                         f" {entry['value']:g}")
        for entry in snap["histograms"]:
            name = entry["name"]
            head(name, "histogram")
            running = 0
            for bound, count in zip(entry["buckets_ms"], entry["counts"]):
                running += count
                lines.append(
                    f"{name}_bucket"
                    f"{fmt_labels(entry['labels'], {'le': f'{bound:g}'})}"
                    f" {running}")
            lines.append(
                f"{name}_bucket"
                f"{fmt_labels(entry['labels'], {'le': '+Inf'})}"
                f" {entry['count']}")
            lines.append(f"{name}_sum{fmt_labels(entry['labels'])}"
                         f" {entry['sum_ms']:g}")
            lines.append(f"{name}_count{fmt_labels(entry['labels'])}"
                         f" {entry['count']}")
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrumentation point feeds.
REGISTRY = MetricsRegistry()


# -- bridges from the existing stats payloads ---------------------------------


def record_query_stats(stats: dict, wall_s: float,
                       registry: MetricsRegistry = REGISTRY) -> None:
    """Accumulate one served response's ``stats`` into the registry.

    Called exactly once per response the service hands back, so every
    counter here reconciles with the sum of the corresponding per-query
    ``stats`` fields across all responses — the invariant the endpoint
    smoke test asserts.
    """
    plan = stats.get("plan") or {}
    decision = plan.get("decision") or {}
    method = str(decision.get("chosen") or "unknown")
    registry.counter("repro_queries_total", method=method).inc()
    registry.histogram("repro_query_latency_ms").observe(wall_s * 1000.0)

    degraded = plan.get("degraded")
    if degraded and degraded.get("applied"):
        registry.counter("repro_degraded_total").inc()

    cache = stats.get("cache") or {}
    registry.counter("repro_cache_query_hits_total").inc(
        cache.get("query_hits", 0))
    registry.counter("repro_cache_query_misses_total").inc(
        cache.get("query_misses", 0))
    blocks = cache.get("blocks") or {}
    for field in ("hits", "derived", "misses"):
        registry.counter(f"repro_block_{field}_total").inc(
            blocks.get(field, 0))

    store = stats.get("store") or {}
    partitions = store.get("partitions") or {}
    registry.counter("repro_store_partitions_scanned_total").inc(
        partitions.get("scanned", 0))
    registry.counter("repro_store_partitions_pruned_total").inc(
        partitions.get("pruned", 0))
    rows = store.get("rows") or {}
    registry.counter("repro_store_rows_scanned_total").inc(
        rows.get("scanned", 0))

    tcube = stats.get("tcube") or {}
    registry.counter("repro_tcube_slices_touched_total").inc(
        tcube.get("slices_touched", 0))


def sample_service_stats(stats: dict,
                         registry: MetricsRegistry = REGISTRY) -> None:
    """Refresh gauges from one ``QueryService.stats()`` payload.

    Called at scrape time (the ``/v1/metrics`` handler), so gauges are
    always current without a background sampler thread.  Numeric leaves
    flatten into underscore-joined gauge names.
    """
    def set_flat(prefix: str, payload: dict) -> None:
        for key, value in payload.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                registry.gauge(f"{prefix}_{key}").set(value)
            elif isinstance(value, dict):
                set_flat(f"{prefix}_{key}", value)

    for field in ("queries", "stream_queries", "errors"):
        registry.gauge(f"repro_service_{field}").set(stats.get(field, 0))
    set_flat("repro_admission", stats.get("admission") or {})
    set_flat("repro_coalesce", stats.get("coalesce") or {})
    cache = dict(stats.get("cache") or {})
    cache.pop("blocks", None)
    set_flat("repro_cache", cache)
    set_flat("repro_pyramid", stats.get("pyramid") or {})

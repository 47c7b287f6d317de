"""Observability: hierarchical query tracing + process-wide metrics.

Two halves, both zero-dependency:

* :mod:`repro.obs.trace` — a context-var-based tracer producing
  hierarchical spans with wall + CPU time and key-value attributes.
  Disabled tracing costs one module-global bool check per
  instrumentation point (the ``span()`` fast path returns a shared
  no-op singleton), so the hot paths stay hot.
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and fixed-bucket latency histograms, fed per served response
  from the existing ``stats`` counters and exported as JSON or
  Prometheus text by ``GET /v1/metrics``.

:mod:`repro.obs.slowlog` ties the two together: a threshold-gated log
of rendered span trees for queries that blew their budget.
"""

from .metrics import (
    REGISTRY,
    MetricsRegistry,
    record_query_stats,
    sample_service_stats,
)
from .slowlog import SlowQueryLog
from .trace import (
    NULL_SPAN,
    Span,
    Tracer,
    activate,
    current_span,
    disable,
    enable,
    enabled,
    render,
    span,
)

__all__ = [
    "NULL_SPAN",
    "REGISTRY",
    "MetricsRegistry",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "activate",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "record_query_stats",
    "render",
    "sample_service_stats",
    "span",
]

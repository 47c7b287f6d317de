"""The four seeded workloads (see ``bench/README.md`` for the glossary)."""

from .adhoc_cold import AdhocCold
from .serve_analysts import ServeAnalysts
from .session_warm import SessionWarm
from .store_zoom import StoreZoom

#: name -> class, in the order BENCHMARK.json declares them.
WORKLOADS = {w.name: w for w in (AdhocCold, SessionWarm, StoreZoom,
                                 ServeAnalysts)}

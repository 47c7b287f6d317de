"""The benchmark's declaration, read from ``BENCHMARK.json``.

That file is the single list of workloads, metric names, units,
directions and regression bounds; the runner emits exactly the metrics
it declares and ``agree`` judges against the bounds it declares.
"""

from __future__ import annotations

import json

from . import ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Default directory for result files (git-ignored).
OUT = ROOT / "bench" / "out"

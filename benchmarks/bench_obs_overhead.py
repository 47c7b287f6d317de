"""E21: the cost of carrying tracing instrumentation while it is off.

The observability subsystem's design center is its disabled fast path:
``span()`` is one module-global bool check returning a shared null
singleton, so the instrumentation sprinkled through the executor,
raster backends, pyramid assembly and store scans must cost <2% of
end-to-end query latency while no trace is active.

Two measurements back that claim:

* **micro** — the per-call cost of a disabled ``span()`` in
  nanoseconds, straight-line (no query around it);
* **end-to-end** — interleaved A/B rounds of the E2-style bounded
  raster join, one arm with the real (disabled) ``span`` and one with
  a stub patched into every instrumented module.  The stub arm is the
  closest runtime approximation of an uninstrumented build: it removes
  the enabled-check so the remaining difference is exactly what the
  instrumentation adds.  Rounds interleave and alternate order so
  thermal/allocator drift cancels; the verdict is the ratio of
  medians.

Standalone (``python benchmarks/bench_obs_overhead.py [--points N]
[--out BENCH_obs.json] [--tolerance 0.02]``) emits the
machine-readable record and exits non-zero when the measured overhead
exceeds the tolerance — the CI tracing-overhead smoke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.serve  # noqa: E402,F401  (load the instrumented serve layer)
import repro.store.execute  # noqa: E402,F401
from repro.core import SpatialAggregationEngine, SpatialAggregation  # noqa: E402
from repro.data import CityModel, generate_taxi_trips, voronoi_regions  # noqa: E402
from repro.obs.trace import NULL_SPAN, disable, span  # noqa: E402
from repro.table import F  # noqa: E402

#: Every loaded ``repro.*`` module outside the tracer itself that
#: imported ``span`` by name; the baseline arm patches the stub into
#: each so not a single call site still pays the enabled-check.
#: Derived, not hand-kept, so a newly instrumented module is covered
#: without touching this file.
_INSTRUMENTED_MODULES = tuple(sorted(
    name for name, module in list(sys.modules.items())
    if name.startswith("repro.") and not name.startswith("repro.obs")
    and getattr(module, "span", None) is span))


def _stub_span(_name, **_attrs):
    return NULL_SPAN


def _patch_span(fn) -> None:
    for name in _INSTRUMENTED_MODULES:
        setattr(sys.modules[name], "span", fn)


def micro_span_ns(calls: int = 1_000_000) -> float:
    """Nanoseconds per disabled ``span()`` call, attrs included."""
    disable()
    t0 = time.perf_counter()
    for __ in range(calls):
        span("bench.micro", k=1)
    return (time.perf_counter() - t0) / calls * 1e9


def run_overhead(table, regions, *, resolution: int, rounds: int,
                 queries_per_round: int) -> dict:
    disable()
    engines = {
        "baseline": SpatialAggregationEngine(default_resolution=resolution),
        "disabled": SpatialAggregationEngine(default_resolution=resolution),
    }
    arms = {"baseline": _stub_span, "disabled": span}

    def one_round(arm: str, round_index: int) -> float:
        # Distinct filter thresholds per round keep every execution a
        # cache miss — the arms see identical work because they share
        # the threshold schedule.
        _patch_span(arms[arm])
        engine = engines[arm]
        t0 = time.perf_counter()
        for j in range(queries_per_round):
            thr = 1.0 + 0.25 * (round_index * queries_per_round + j)
            engine.execute(table, regions,
                           SpatialAggregation.count(F("fare") > thr),
                           method="bounded")
        return time.perf_counter() - t0

    samples: dict[str, list[float]] = {"baseline": [], "disabled": []}
    # Warm both arms (canvas grids, allocator pools) outside the clock.
    one_round("baseline", -2)
    one_round("disabled", -1)
    for r in range(rounds):
        order = (("baseline", "disabled") if r % 2 == 0
                 else ("disabled", "baseline"))
        for arm in order:
            samples[arm].append(one_round(arm, r))
    _patch_span(span)  # leave the process as it was found

    median = {arm: float(np.median(vals) * 1000)
              for arm, vals in samples.items()}
    # Verdict on the median of *paired* per-round ratios: each round's
    # arms run back to back, so pairing cancels the slow drift (thermal,
    # page cache) that a ratio of global medians would conflate with
    # instrumentation cost.
    ratios = [d / b for b, d in zip(samples["baseline"],
                                    samples["disabled"])]
    return {
        "baseline_ms": [v * 1000 for v in samples["baseline"]],
        "disabled_ms": [v * 1000 for v in samples["disabled"]],
        "median_baseline_ms": median["baseline"],
        "median_disabled_ms": median["disabled"],
        "round_ratios": ratios,
        "overhead_fraction": float(np.median(ratios)) - 1.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--points", type=int, default=200_000)
    parser.add_argument("--regions", type=int, default=30)
    parser.add_argument("--resolution", type=int, default=256)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--queries-per-round", type=int, default=8)
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="maximum tolerated disabled-tracing "
                             "overhead fraction (default 2%%)")
    parser.add_argument("--out", default="BENCH_obs.json")
    args = parser.parse_args()

    city = CityModel(seed=7)
    table = generate_taxi_trips(city, args.points, seed=8)
    regions = voronoi_regions(city, args.regions, name="neighborhoods")

    span_ns = micro_span_ns()
    results = run_overhead(table, regions, resolution=args.resolution,
                           rounds=args.rounds,
                           queries_per_round=args.queries_per_round)
    results["disabled_span_ns"] = span_ns

    payload = {
        "benchmark": "obs-overhead",
        "points": args.points,
        "regions": args.regions,
        "resolution": args.resolution,
        "rounds": args.rounds,
        "queries_per_round": args.queries_per_round,
        "tolerance": args.tolerance,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.machine(),
        },
        "results": results,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"disabled span(): {span_ns:.0f}ns/call")
    print(f"baseline (stubbed): {results['median_baseline_ms']:.1f}ms "
          f"median/round")
    print(f"disabled tracing:   {results['median_disabled_ms']:.1f}ms "
          f"median/round")
    print(f"overhead: {results['overhead_fraction'] * 100:+.2f}% "
          f"(tolerance {args.tolerance * 100:.0f}%)")
    print(f"wrote {out}")

    if results["overhead_fraction"] > args.tolerance:
        print(f"ERROR: disabled-tracing overhead "
              f"{results['overhead_fraction'] * 100:.2f}% exceeds "
              f"{args.tolerance * 100:.0f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``python -m bench agree A B``: do two result sets agree?

A result set is a directory holding one or more untraced runs per
workload (``**/<workload>.json``, e.g. ``run --seeds 1-10 --out A``).
Every end-to-end metric x workload pairing is judged against the bound
declared in ``BENCHMARK.json``:

* **within** — B's median is not worse than A's by more than the bound;
* **outside** — it is (the command exits non-zero);
* **unresolved** — the run-to-run spread of either side (interquartile
  range over median) is wider than the bound, so the pairing can be
  called neither changed nor unchanged.

Every ratio is printed with its base (A's median), one workload per row
group.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .declared import DECLARED


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of one result set."""
    runs: dict[str, dict[str, list[float]]] = {}
    for workload in (w["name"] for w in DECLARED["workloads"]):
        for path in sorted(directory.glob(f"**/{workload}.json")):
            record = json.loads(path.read_text(encoding="utf-8"))
            if not record["stamp"]["comparable"]:
                print(f"skipping {path}: stamped non-comparable "
                      f"(scale={record['stamp']['scale']})")
                continue
            for name, metric in record["metrics"].items():
                runs.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
    return runs


def spread(values: list[float]) -> float | None:
    """Interquartile range over the median; ``None`` under 4 runs."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else None


def agree(a_dir: Path, b_dir: Path) -> int:
    a_runs, b_runs = load(a_dir), load(b_dir)
    outside = 0
    for workload in (w["name"] for w in DECLARED["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            print(f"{workload}: missing from "
                  f"{'A' if workload not in a_runs else 'B'}")
            outside += 1
            continue
        print(f"{workload}  (A: {len(next(iter(a_runs[workload].values())))}"
              f" runs, B: {len(next(iter(b_runs[workload].values())))} runs)")
        for metric in DECLARED["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = a_runs[workload][name], b_runs[workload][name]
            base, other = statistics.median(a), statistics.median(b)
            worse = (other - base) / abs(base)
            if metric["better"] == "higher":
                worse = -worse
            spreads = [s for s in (spread(a), spread(b)) if s is not None]
            if any(s > bound for s in spreads):
                verdict = "unresolved"
            elif worse > bound:
                verdict = "OUTSIDE"
                outside += 1
            else:
                verdict = "within"
            shown = ("n/a" if not spreads
                     else "/".join(f"{s:.3f}" for s in spreads))
            print(f"  {name:<18} B/A = {other / base:7.4f} "
                  f"(base A = {base:.6g} {metric['unit']})  "
                  f"worse by {worse:+.3f} vs bound {bound:.3f}  "
                  f"spread A/B {shown}  {verdict}")
    return 1 if outside else 0

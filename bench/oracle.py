"""Correctness oracle, run after every timed phase.

Every 10th op is re-answered from scratch — a fresh serial engine
supplies the polygon pass, then ``bounded_raster_join`` /
``accurate_raster_join`` are called directly on the same canvas — and
compared with what the program returned:

* COUNT / SUM / MIN / MAX bitwise (NaNs equal), AVG within 1e-12;
* SUM within 1e-12 where the program documents a reassociated float
  fold — temporal-cube prefix sums and fork-parallel canvas merges;
* an answer the planner routed to an exact non-raster backend is held
  to the accurate join within 1e-9 (a different, equally valid
  summation order);
* for full-extent bounded ops, ``lower <= naive exact <= upper`` per
  region, the naive join being the independent brute-force comparator.

A mismatch counts as a failed op: it lands in ``failed`` / ``correct``
of the result line and fails the command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import naive_join
from repro.core import (
    SpatialAggregationEngine,
    accurate_raster_join,
    bounded_raster_join,
)

#: Re-answer every Nth op ...
STRIDE = 10
#: ... thinned evenly to at most this many per run, and at most this
#: many naive containment checks, so the oracle stays a few seconds.
MAX_CASES = 20
MAX_CONTAINMENT = 2

FOLD_TOLERANCE = 1e-12
EXACT_BACKEND_TOLERANCE = 1e-9


@dataclass
class Answer:
    """What the program returned for one sampled op."""

    op: int
    label: str
    method: str
    values: np.ndarray
    lower: np.ndarray | None
    upper: np.ndarray | None
    case: object
    #: The answering path folds float sums in another order than the
    #: serial scatter (documented: tcube prefix sums, fork merges).
    reassociated: bool = False

    @classmethod
    def of(cls, op: int, label: str, result, case) -> "Answer":
        parallel = (result.stats.get("parallel") or {}).get("mode")
        return cls(op=op, label=label, method=result.method,
                   values=result.values, lower=result.lower,
                   upper=result.upper, case=case,
                   reassociated=(result.method == "tcube-raster-join"
                                 or parallel == "parallel"))


def family(method: str) -> str:
    """Which direct join an answer is held to, from ``result.method``."""
    if "accurate" in method:
        return "accurate"
    if "raster-join" in method:
        return "bounded"
    return "exact"


def _same(got, want, tolerance: float | None) -> bool:
    if (got is None) != (want is None):
        return False
    if got is None:
        return True
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    if tolerance is None:
        return bool(np.array_equal(got, want, equal_nan=True))
    return bool(np.allclose(got, want, rtol=tolerance, atol=tolerance,
                            equal_nan=True))


def check(answers: list[Answer], table) -> list[str]:
    """Re-answer the sampled ops; returns one message per mismatch."""
    if len(answers) > MAX_CASES:
        step = len(answers) / MAX_CASES
        answers = [answers[int(i * step)] for i in range(MAX_CASES)]
    engine = SpatialAggregationEngine(workers=1)
    failures: list[str] = []
    containment = 0
    for answer in answers:
        case = answer.case
        viewport = case.viewport or engine.plan_viewport(
            case.regions, case.resolution, None)
        fragments = engine.fragments_for(case.regions, viewport)
        kind = family(answer.method)
        join = bounded_raster_join if kind == "bounded" \
            else accurate_raster_join
        want = join(table, case.regions, case.query, viewport,
                    fragments=fragments)
        if kind == "exact":
            tolerance = EXACT_BACKEND_TOLERANCE
        elif case.query.agg == "avg" or (case.query.agg == "sum"
                                         and answer.reassociated):
            tolerance = FOLD_TOLERANCE
        else:
            tolerance = None
        where = f"op {answer.op} {answer.label} [{answer.method}]"
        if not _same(answer.values, want.values, tolerance):
            failures.append(f"{where}: values differ from the direct "
                            f"{kind} join")
        if kind == "bounded" and not (
                _same(answer.lower, want.lower, tolerance)
                and _same(answer.upper, want.upper, tolerance)):
            failures.append(f"{where}: bounds differ from the direct "
                            f"bounded join")
        if (kind == "bounded" and case.full_extent
                and answer.lower is not None
                and containment < MAX_CONTAINMENT):
            containment += 1
            exact = naive_join(table, case.regions, case.query).values
            live = np.isfinite(exact)
            slack = 1e-9 * np.maximum(1.0, np.abs(exact[live]))
            if not ((answer.lower[live] <= exact[live] + slack).all()
                    and (exact[live] <= answer.upper[live] + slack).all()):
                failures.append(f"{where}: naive exact answer escapes "
                                f"[lower, upper]")
    return failures

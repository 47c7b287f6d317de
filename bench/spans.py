"""Bench-owned span recorder.

Records name / start / end / parent / op-id in memory around every
timed op and every layer probe, and is written out once at exit
(``bench/out/<workload>.spans.jsonl``).  The program's own
``repro.obs`` span trees are folded in as rows with ``source: "obs"``
under the op that produced them, so one file answers "where did this
gesture's time go" with both the bench's and the program's account.

A layer's *self time* is its span's duration minus the part its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """In-memory span log; a no-op until :attr:`enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.rows: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time one block as a child of this thread's open span."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        row = {"id": next(self._ids), "source": "bench", "name": name,
               "parent": parent["id"] if parent else None,
               "op": attrs.pop("op", parent["op"] if parent else None),
               "start_s": time.perf_counter() - self._epoch,
               "dur_s": 0.0, "attrs": attrs}
        stack.append(row)
        try:
            yield row
        finally:
            stack.pop()
            row["dur_s"] = (time.perf_counter() - self._epoch
                            - row["start_s"])
            with self._lock:
                self.rows.append(row)

    def graft(self, parent: dict | None, tree: dict | None) -> None:
        """Fold one program-reported ``repro.obs`` span tree (its dict
        form) under a bench span.  The program reports durations, not
        start times, so grafted rows carry ``start_s: null``."""
        if not self.enabled or parent is None or not tree:
            return
        rows = []

        def walk(node: dict, parent_id: int) -> None:
            row = {"id": next(self._ids), "source": "obs",
                   "name": str(node.get("name", "?")), "parent": parent_id,
                   "op": parent["op"], "start_s": None,
                   "dur_s": float(node.get("wall_s", 0.0)),
                   "attrs": {"cpu_s": float(node.get("cpu_s", 0.0))}}
            rows.append(row)
            for child in node.get("children") or ():
                walk(child, row["id"])

        walk(tree, parent["id"])
        with self._lock:
            self.rows.extend(rows)

    def write(self, path) -> None:
        with self._lock:
            rows = sorted(self.rows, key=lambda r: r["id"])
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, default=repr) + "\n")


def self_times(rows: list[dict], source: str | None = None
               ) -> dict[str, dict[int, float]]:
    """Self time per span name per op: ``{name: {op: seconds}}``.

    A span's self time is its duration minus the duration its direct
    children cover, floored at zero (grafted shard subtrees run in
    parallel, so children can sum past their parent).
    """
    covered: dict[int, float] = defaultdict(float)
    for row in rows:
        if row["parent"] is not None:
            covered[row["parent"]] += row["dur_s"]
    out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for row in rows:
        if source is not None and row["source"] != source:
            continue
        if row["op"] is None:
            continue
        out[row["name"]][row["op"]] += max(
            0.0, row["dur_s"] - covered[row["id"]])
    return out

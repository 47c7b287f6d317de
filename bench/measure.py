"""The clock and the sample log: replaying laps and reducing them to
the declared metrics.

Loops are **closed**: a client issues its next gesture only after the
previous one returned (an analyst waits for the redraw).  A run measures
for ``--seconds`` seconds in whole laps — every lap has a fixed,
seeded op list, so the op mix (and every work counter per lap) is the
same whatever the machine's speed; only the number of laps varies.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro import obs

from . import oracle
from .spans import SpanRecorder, self_times

#: Program-reported span names whose per-op self time is a metric.
OBS_SPANS = ("plan", "backend.run", "fragments", "scatter", "gather",
             "pyramid.assemble", "store.prune", "store.scan", "store.mount",
             "admission.wait", "flight.wait", "execute")


@dataclass
class Sample:
    """One attempted op."""

    op: int
    lap: int
    client: int
    cls: str
    label: str
    traced: bool
    latency_s: float
    error: str | None = None
    method: str = ""
    #: sum(upper - lower) / max(|sum(values)|, 1) for ops with bounds.
    bound_width: float | None = None
    stats: dict | None = None
    #: Seconds of a traced op spent inside program-reported spans.
    program_s: float = 0.0

    def row(self) -> dict:
        return {"op": self.op, "lap": self.lap, "client": self.client,
                "cls": self.cls, "label": self.label, "traced": self.traced,
                "latency_ms": self.latency_s * 1e3, "error": self.error,
                "method": self.method, "bound_width": self.bound_width}


class Recorder:
    """Replays a workload's laps against the clock."""

    def __init__(self, workload, spans: SpanRecorder):
        self.w = workload
        self.spans = spans
        self.samples: list[Sample] = []
        self.answers: list[oracle.Answer] = []
        self.wall_s = 0.0
        self.laps = 0
        #: (client, lap) -> wall seconds of that lap, think time included.
        self.lap_walls: dict[tuple[int, int], float] = {}
        self._ids = itertools.count()

    def run(self, seconds: float | None = None,
            trace_laps: int | None = None) -> None:
        """Replay whole laps.

        Untraced measurement (``seconds``): laps repeat until the time
        is up.  Traced pass (``trace_laps``): exactly that many laps,
        even ones untraced and odd ones traced (program tracing on,
        bench spans recorded), so both arms see the same mix and every
        work counter of the pass repeats exactly for a given seed.
        """
        deadline = time.perf_counter() + (seconds or 0.0)
        errors: list[BaseException] = []

        def client_loop(client: int) -> None:
            try:
                lap = 0
                while True:
                    self._lap(client, lap,
                              trace_laps is not None and lap % 2 == 1)
                    lap += 1
                    if (lap >= trace_laps if trace_laps is not None
                            else time.perf_counter() >= deadline):
                        break
                self.laps = max(self.laps, lap)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        t0 = time.perf_counter()
        if self.w.clients == 1:
            client_loop(0)
        else:
            threads = [threading.Thread(target=client_loop, args=(c,),
                                        name=f"bench-client-{c}")
                       for c in range(self.w.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.wall_s = time.perf_counter() - t0
        if errors:
            raise errors[0]

    def _lap(self, client: int, lap: int, traced: bool) -> None:
        w = self.w
        in_process_trace = traced and w.in_process
        if in_process_trace:
            obs.enable()
        t0 = time.perf_counter()
        try:
            for op in w.script(lap, client):
                w.prepare(op, client)
                self._op(client, lap, op, traced)
                if w.think_s:
                    time.sleep(w.think_s)
        finally:
            self.lap_walls[client, lap] = time.perf_counter() - t0
            if in_process_trace:
                obs.disable()

    def _op(self, client: int, lap: int, op, traced: bool) -> None:
        w = self.w
        op_id = next(self._ids)
        # In-process, the program's spans nest under a root this thread
        # enters; out of process the server returns its own tree.
        root = obs.Span("op") if traced and w.in_process else None
        bench_span = (self.spans.span("op", op=op_id, cls=op.cls,
                                      client=client, lap=lap)
                      if traced else contextlib.nullcontext())
        result = error = None
        with bench_span as row:
            t0 = time.perf_counter()
            try:
                if root is not None:
                    with root:
                        result = w.execute(op, client, trace=True)
                else:
                    result = w.execute(op, client, trace=traced)
            except Exception as exc:  # noqa: BLE001 - a failed op, reported
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc()
            latency = time.perf_counter() - t0

        sample = Sample(op=op_id, lap=lap, client=client, cls=op.cls,
                        label=op.label(), traced=traced, latency_s=latency,
                        error=error)
        if result is not None:
            sample.method = result.method
            if result.lower is not None and result.upper is not None:
                total = abs(float(np.nansum(result.values)))
                sample.bound_width = float(
                    np.sum(result.upper - result.lower) / max(total, 1.0))
            if traced:
                sample.stats = result.stats
                # The in-process root is the bench's own handle, not a
                # program span: only what the program nested under it
                # counts as program-reported.
                for tree in (root.to_dict()["children"] if root is not None
                             else w.program_trace(result, client)):
                    self.spans.graft(row, tree)
                    sample.program_s += float(tree.get("wall_s", 0.0))
            if op_id % oracle.STRIDE == 0:
                self.answers.append(oracle.Answer.of(
                    op_id, sample.label, result, w.case(op, client)))
        self.samples.append(sample)


# -- reduction ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def lap_quantiles(samples: list[Sample], q: float) -> float:
    """The ``q``-th latency percentile of each (client, lap), then the
    median across laps.  Every lap replays the same choreography, so
    per-lap percentiles estimate one quantity; their median shrugs off
    a lap that ran while the machine was busy with something else."""
    laps: dict[tuple[int, int], list[float]] = {}
    for s in samples:
        if s.error is None:
            laps.setdefault((s.client, s.lap), []).append(s.latency_s)
    return statistics.median(percentile(v, q) for v in laps.values())


def end_to_end(recorder: Recorder, setup_s: float, rss_mb: float
               ) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Percentiles are over the ops that succeeded; failed ops are
    reported through ``failed`` / ``attempted`` instead.
    """
    samples = recorder.samples
    done: dict[tuple[int, int], int] = {}
    for s in samples:
        if s.error is None:
            done[s.client, s.lap] = done.get((s.client, s.lap), 0) + 1
    widths = [s.bound_width for s in samples if s.bound_width is not None]
    return {
        "gesture_p50_ms": lap_quantiles(samples, 50) * 1e3,
        "gesture_p95_ms": lap_quantiles(samples, 95) * 1e3,
        # Ops completed per wall second of a lap (think time included),
        # median lap, times the clients running laps side by side.
        "gestures_per_s": recorder.w.clients * statistics.median(
            n / recorder.lap_walls[key] for key, n in done.items()),
        "bound_width_rel": statistics.fmean(widths),
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was counted."""
    return part / whole if whole else 0.0


def traced_metrics(workload, samples: list[Sample], spans: SpanRecorder,
                   before: dict, after: dict) -> dict[str, float]:
    """Per-layer numbers that come from the laps (not from probes)."""
    ok = [s for s in samples if s.error is None]
    traced = [s for s in ok if s.traced]
    untraced = [s for s in ok if not s.traced]
    out: dict[str, float] = {}

    out["obs.traced_overhead_frac"] = (
        lap_quantiles(traced, 50) / lap_quantiles(untraced, 50) - 1.0)
    # Share of an op's client-side latency inside named program spans;
    # the rest is un-instrumented code, client-side protocol work and
    # the wire (the self time of the bench's own ``op`` span).
    out["obs.coverage"] = statistics.median(
        min(1.0, s.program_s / s.latency_s) for s in traced)
    selfs = self_times(spans.rows, source="obs")
    for name in OBS_SPANS:
        # Mean per traced op, so the names add up to (covered) op time.
        out[f"obs.self_ms.{name}"] = (
            sum(selfs.get(name, {}).values()) / len(traced) * 1e3)

    # Unified-cache and pyramid ledgers over all measured laps.
    c0, c1 = before["cache"], after["cache"]
    hits = c1["hits"] - c0["hits"]
    misses = c1["misses"] - c0["misses"]
    out["core.cache.hit_frac"] = ratio(hits, hits + misses)
    out["core.cache.evictions"] = c1["evictions"] - c0["evictions"]
    out["core.cache.bytes_mb"] = c1["bytes"] / 1e6
    b0, b1 = c0["blocks"], c1["blocks"]
    assembled = b1["assembled_pixels"] - b0["assembled_pixels"]
    scattered = b1["scattered_pixels"] - b0["scattered_pixels"]
    out["core.pyramid.reuse_frac"] = ratio(assembled, assembled + scattered)
    out["core.pyramid.blocks_scattered"] = b1["misses"] - b0["misses"]

    brushes = [s for s in ok if s.label.startswith("brush_time")]
    out["core.tcube.served_frac"] = ratio(
        sum(s.method == "tcube-raster-join" for s in brushes), len(brushes))

    admission = [row["dur_s"] for row in spans.rows
                 if row["source"] == "obs" and row["name"] == "admission.wait"]
    if admission:
        out["serve.admission.wait_ms"] = statistics.median(admission) * 1e3

    by_class: dict[str, list[float]] = {}
    for s in ok:
        by_class.setdefault(s.cls, []).append(s.latency_s)
    for cls, name in workload.class_metrics.items():
        if cls in by_class:
            out[name] = percentile(by_class[cls], 50) * 1e3

    out.update(workload.layer_counts(before, after, traced))
    return out

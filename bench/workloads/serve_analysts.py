"""``serve-analysts``: the collaborative setting, over the wire.

The server is a subprocess started with its default flags (speculation
on); ``min(nproc, 4)`` client threads each drive one ``RemoteSession``
in a closed loop with a fixed think time.  Every client's map
excursions are the same, and half of its brush / filter segments draw
their parameters from a stream all clients share, so identical queries
meet in flight (coalescing) or in the server's result cache.  The think
time is what gives speculation its idle windows.
"""

from __future__ import annotations

import os
import socket
import statistics
import subprocess
import sys
import time

from repro.core import SpatialAggregation, SpatialAggregationEngine
from repro.geometry.geojson import write_geojson
from repro.serve import ServeClient
from repro.table import F
from repro.table.io import save_npz
from repro.urbane import RemoteSession

from .. import SRC
from ..gestures import GestureScript, Op, apply
from ..inputs import make_inputs, rng_for
from ..measure import ratio
from .base import Case, Workload

LEVELS = ("neighborhoods", "districts")
#: The server's default canvas (``repro serve --resolution``).
RESOLUTION = 512
#: One lap per client: 48 ops — brush 24, pan/zoom 20, filter 4.  The
#: starred segments draw from the stream all clients share.  The map
#: excursions and the clears (28 ops) are always served from warm
#: blocks, so the median sits inside that mode however many brushes the
#: result cache, coalescing or speculation happen to catch.  (A third
#: filter segment was tried to put the 95th percentile inside the
#: fresh-filter class: it overloads a one-core server and doubles the
#: spread.)
CHOREOGRAPHY = ("brush1*", "pan:+x", "filter*", "brush7", "zoom:+y",
                "filter", "pan:-x", "brush1*", "pan:-y", "brush7",
                "zoom:+x")
#: Untimed warm-up per client: one brush sweep, every map excursion.
WARMUP = ("brush1*", "pan:+x", "zoom:+y", "pan:-x", "pan:-y", "zoom:+x")
START_TIMEOUT_S = 60.0


class TracingClient(ServeClient):
    """A client that can ask the server to trace its requests (the
    protocol's public ``trace`` knob) — on only during traced laps."""

    trace_on = False

    def query(self, dataset, regions, query=None, sql=None, **knobs):
        if self.trace_on:
            knobs["trace"] = True
        return super().query(dataset, regions, query=query, sql=sql,
                             **knobs)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime, stime are fields 14 and 15 of proc(5), 1-indexed.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServeAnalysts(Workload):
    name = "serve-analysts"
    why = ("server subprocess + min(nproc,4) RemoteSession clients with "
           "think time: protocol, admission, coalescing, speculation")
    in_process = False
    think_s = 0.02

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.clients = max(1, min(os.cpu_count() or 1, 4))
        self.server = None

    def make_inputs(self):
        return make_inputs(self.seed, self.size(200_000, 20_000), LEVELS)

    # -- lifecycle ---------------------------------------------------------

    def setup(self) -> None:
        files = self.scratch("serve")
        save_npz(self.inputs.table, files / "taxi.npz")
        args = [sys.executable, "-m", "repro", "serve",
                "--data", f"taxi={files / 'taxi.npz'}"]
        for name, regions in self.inputs.regions.items():
            path = files / f"{name}.geojson"
            write_geojson(path, list(regions.geometries),
                          [{"name": n} for n in regions.region_names])
            args += ["--regions", f"{name}={path}"]
        port = _free_port()
        args += ["--port", str(port)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.log = open(files / "server.log", "w", encoding="utf-8")
        self.server = subprocess.Popen(args, env=env, stdout=self.log,
                                       stderr=subprocess.STDOUT)
        # Nothing is pinned.  With speculation on the server keeps one
        # core busy by itself; confined to the second core of a 2-core
        # box, its request threads wait for the speculating thread's
        # scheduler tick and every latency becomes a multiple of 4 ms —
        # the median then jumps a whole tick (12 <-> 16 ms) from run to
        # run (median-gesture spread over ten interleaved pairs: 0.16
        # pinned, 0.11 free; the pinned histogram has peaks at 7/11/15/19 ms).
        self.url = f"http://127.0.0.1:{port}"
        self.control = ServeClient(self.url, timeout_s=30.0)
        self._wait_ready()
        self.http = [TracingClient(self.url, timeout_s=30.0)
                     for _ in range(self.clients)]
        self.gestures = [
            GestureScript(self.seed, c, self.inputs.origin,
                          self.inputs.days, CHOREOGRAPHY, levels=LEVELS)
            for c in range(self.clients)]
        self.sessions = [RemoteSession(client, "taxi", LEVELS[0],
                                       method="auto")
                         for client in self.http]
        for c in range(self.clients):
            for op in self.gestures[c].lap(0, WARMUP):
                self.execute(op, c)

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.server.returncode} "
                    f"before accepting connections (see {self.log.name})")
            try:
                self.control.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("server did not come up in "
                                       f"{START_TIMEOUT_S:.0f}s") from None
                time.sleep(0.02)

    def teardown(self) -> None:
        if self.server is None:
            return
        self.server.terminate()
        try:
            self.server.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server = None
        self.log.close()

    # -- the script --------------------------------------------------------

    def script(self, lap: int, client: int = 0) -> list[Op]:
        return self.gestures[client].lap(lap + 1)

    def execute(self, op: Op, client: int = 0, trace: bool = False):
        self.http[client].trace_on = trace
        result = apply(self.sessions[client], op)
        self.gestures[client].note(op)
        return result

    def program_trace(self, result, client: int = 0):
        ref = (result.stats.get("trace") or {}).get("request_id")
        if ref is None:
            return []
        return [self.control.trace(ref)["trace"]]

    def case(self, op: Op, client: int = 0) -> Case:
        session = self.sessions[client]
        moved = self.gestures[client].moved
        return Case(
            regions=self.inputs.regions[session.state.regions],
            query=session.state.effective_query(),
            viewport=session.grid_viewport() if moved else None,
            resolution=RESOLUTION, full_extent=not moved)

    # -- introspection -----------------------------------------------------

    def rss_pid(self) -> int:
        return self.server.pid

    def cache_stats(self) -> dict:
        return self.control.stats()["cache"]

    def snapshot(self) -> dict:
        stats = self.control.stats()
        stats["cpu_s"] = _cpu_seconds(self.server.pid)
        return stats

    def probe_levels(self):
        return [(level, RESOLUTION) for level in LEVELS]

    def layer_counts(self, before, after, samples):
        def delta(*path):
            a, b = after, before
            for key in path:
                a, b = a[key], b[key]
            return a - b

        leaders = delta("coalesce", "leaders")
        coalesced = delta("coalesce", "coalesced")
        observed = delta("speculate", "observed")
        completed = delta("speculate", "completed")
        hits = delta("speculate", "hits")
        return {
            "serve.admission.shed": delta("admission", "shed_total"),
            "serve.coalesce.hit_frac": ratio(coalesced, leaders + coalesced),
            "serve.speculate.hit_frac": ratio(hits, observed),
            "serve.speculate.wasted_frac": ratio(
                max(0, completed - hits), completed),
            "serve.server.cpu_s": delta("cpu_s"),
        }

    def probes(self, p) -> None:
        # Service overhead: the HTTP round trip minus a direct
        # ``engine.execute`` of the same fresh queries (fragments warm
        # on both sides, nothing in either result cache).
        table = self.inputs.table
        regions = self.inputs.regions[LEVELS[0]]
        engine = SpatialAggregationEngine(default_resolution=RESOLUTION)
        rng = rng_for(self.seed, self.name, "overhead")
        queries = [SpatialAggregation(
            "count", None, (F("fare") > round(float(t), 3),))
            for t in rng.uniform(2.0, 20.0, max(6, p.reps) + 1)]

        def remote(q):
            return self.control.query("taxi", LEVELS[0], query=q,
                                      method="auto")

        def direct(q):
            return engine.execute(table, regions, q, method="auto")

        remote(queries[0])
        direct(queries[0])
        trips, directs = [], []
        for query in queries[1:]:
            trips.append(p.timed("serve.service.roundtrip",
                                 lambda q=query: remote(q), reps=1)[0])
            directs.append(p.timed("serve.service.direct",
                                   lambda q=query: direct(q), reps=1)[0])
        # Base: median direct engine.execute of the same queries.
        p.values["serve.service.overhead_ms"] = (
            statistics.median(trips) - statistics.median(directs)) * 1e3

"""What every workload provides to the runner.

A workload owns its inputs, the program-side set-up (timed as
``setup_s``), a seeded script produced lap by lap, and the knowledge of
how to execute one op and how to describe it to the oracle.  The runner
owns the clock, the sample log and the spans.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..gestures import Op
from ..inputs import Inputs


@dataclass
class Case:
    """What the oracle needs to re-answer one op from scratch."""

    regions: object
    query: object
    #: Explicit canvas, or ``None`` when the program planned its own at
    #: ``resolution`` over the full region extent.
    viewport: object | None
    resolution: int | None
    #: The canvas covers every region entirely, so per-region bounds
    #: must contain the naive exact answer.
    full_extent: bool


class Workload:
    """Base class; subclasses fill in the hooks."""

    name = ""
    why = ""
    #: Concurrent closed-loop clients (never more than ``nproc``).
    clients = 1
    #: Fixed think time between a client's gestures, seconds.
    think_s = 0.0
    #: op class -> per-layer metric holding that class's median latency.
    class_metrics: dict[str, str] = {}

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        #: ``smoke`` runs the same definitions on 20k points with short
        #: laps; its results are stamped non-comparable.
        self.smoke = scale == "smoke"
        self.workdir = Path(workdir)
        self.inputs: Inputs | None = None

    # -- sizing ------------------------------------------------------------

    def size(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full

    # -- lifecycle ---------------------------------------------------------

    def make_inputs(self) -> Inputs:
        """Synthesize this workload's inputs from the seed (bench cost)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Everything the program does before the first timed gesture:
        store build / file export, server start, session open, untimed
        warm-up.  Called several times per run (``setup_s`` is the
        median); each call must leave a fresh, usable state."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo :meth:`setup`: stop processes, release mounts."""

    def scratch(self, name: str) -> Path:
        """A fresh directory under the run's work dir.

        Set-ups never delete each other's files (the runner removes the
        work dir once, at exit), so none is timed while the filesystem
        is still digesting a mass delete.
        """
        self.workdir.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.workdir))

    # -- the script --------------------------------------------------------

    def script(self, lap: int, client: int = 0) -> list[Op]:
        """Ops of one lap; laps are requested in order, per client."""
        raise NotImplementedError

    def prepare(self, op: Op, client: int = 0) -> None:
        """Untimed work before an op (e.g. clearing caches)."""

    def execute(self, op: Op, client: int = 0, trace: bool = False):
        """The timed call.  Returns the program's result object."""
        raise NotImplementedError

    def program_trace(self, result, client: int = 0) -> list[dict]:
        """The program-reported span trees of a traced op that ran in
        another process (in-process ops are captured by the runner)."""
        return []

    def case(self, op: Op, client: int = 0) -> Case:
        """Describe the op that just ran to the oracle."""
        raise NotImplementedError

    def oracle_table(self):
        """The in-memory table the oracle re-answers against."""
        return self.inputs.table

    # -- introspection -----------------------------------------------------

    in_process = True

    def rss_pid(self) -> int:
        """Process whose peak RSS counts (the one executing queries)."""
        return os.getpid()

    def cache_stats(self) -> dict:
        """The engine's unified-cache counters (``cache_stats()`` shape)."""
        raise NotImplementedError

    def layer_counts(self, before: dict, after: dict, samples: list
                     ) -> dict[str, float]:
        """Workload-specific per-layer numbers for the traced pass."""
        return {}

    def probes(self, probes) -> None:
        """Workload-specific layer probes (``probes`` is the running
        :class:`bench.probes.Probes`; fill ``probes.values``)."""

    def snapshot(self) -> dict:
        """Public counters read before and after the measured laps."""
        return {"cache": self.cache_stats()}

    def probe_levels(self) -> list[tuple[str, int]]:
        """(region level, resolution) pairs this workload's script
        renders — what the raster probes build fragments for."""
        return [("neighborhoods", 512)]

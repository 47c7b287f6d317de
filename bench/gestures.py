"""Gesture scripts: seeded lists of ops replayed against a session.

``InteractiveSession`` and ``RemoteSession`` share one gesture
vocabulary, so one script generator drives both the in-process
``session-warm`` workload and the ``serve-analysts`` clients.

A script is produced lap by lap.  Every lap follows the same
**choreography** — a fixed sequence of segment kinds — so the op mix,
and therefore which latency mode the median and the 95th percentile
fall in, is the same for every lap, seed and machine.  Which way the
map moves is part of the choreography too: whether a frame is a revisit
(cached blocks) or new ground (re-scatter) must not be a coin toss.
The seed draws only the parameters: which days are brushed and the
filter threshold (from a narrow band, so selectivity stays comparable).

Segments that move the map or brush the timeline are *excursions*: they
end where they started, so positions are revisited (which is what the
pyramid and the temporal cube exist for) and the session never drifts
off the data.  A choreography switches the aggregate and the region
level a whole number of cycles per lap, so every lap also starts from
the state the previous one started from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import SpatialAggregation
from repro.table import F

from .inputs import AGGREGATES, DAY, rng_for

#: Pan step in canvas pixels: one pyramid block at the default block
#: size, so a pan re-scatters one block column and reuses the rest.
PAN_PX = 64

#: ``fare >`` thresholds are drawn from this band (about the median
#: fare), so every filtered op keeps a comparable share of the points.
THRESHOLD_BAND = (6.0, 7.0)


@dataclass(frozen=True)
class Op:
    """One scripted operation."""

    #: Op class — the key of the per-class latency medians.
    cls: str
    #: Method to call on the target (a session gesture, or ``execute``).
    call: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def label(self) -> str:
        return f"{self.call}{self.args!r}"


def apply(session, op: Op):
    """Replay one gesture op against a session; returns its result."""
    return getattr(session, op.call)(*op.args, **op.kwargs)


def threshold(rng) -> float:
    return round(float(rng.uniform(*THRESHOLD_BAND)), 3)


class GestureScript:
    """One analyst's laps, following a fixed choreography.

    ``choreography`` is a sequence of segment kinds: ``brush1`` /
    ``brush7`` (a four-step day or week sweep, then clear: 5 ops),
    ``pan:<dir>`` / ``zoom:<dir>`` with ``<dir>`` one of ``+x -x +y -y``
    (a map excursion that returns to its start: 4 ops), ``filter``
    (filter+, brush under it, brush clear, filter clear: 4 ops),
    ``aggregate`` and ``level`` (1 op each, cycling).  A kind suffixed
    ``*`` draws
    its parameters from a stream shared by every client of the same
    seed, so concurrent analysts issue identical queries the server
    can coalesce or serve from its result cache.
    """

    def __init__(self, seed: int, client: int, origin: int, days: int,
                 choreography: tuple[str, ...],
                 levels: tuple[str, ...] = ("neighborhoods", "districts")):
        self.seed = seed
        self.client = client
        self.origin = origin
        self.days = days
        self.choreography = choreography
        self.levels = levels
        # Persistent session state the single-op segments cycle.
        self._agg = 0
        self._level = 0
        # Did a pan/zoom happen since the viewport was last reset?  The
        # oracle needs to know which canvas a gesture rendered on.
        self.moved = False

    # -- segments (each returns whole ops; excursions end where they began)

    def _brush(self, rng, width: int) -> list[Op]:
        first = int(rng.integers(0, max(1, self.days - width - 3)))
        ops = []
        for step in range(4):
            start = self.origin + (first + step) * DAY
            ops.append(Op("brush", "brush_time",
                          (start, start + width * DAY)))
        ops.append(Op("brush", "clear_time_brush"))
        return ops

    @staticmethod
    def _map(kind: str, direction: str) -> list[Op]:
        dx, dy = {"+x": (PAN_PX, 0), "-x": (-PAN_PX, 0),
                  "+y": (0, PAN_PX), "-y": (0, -PAN_PX)}[direction]
        if kind == "pan":
            return [Op("pan", "pan", (dx, dy)), Op("pan", "pan", (dy, dx)),
                    Op("pan", "pan", (-dx, -dy)),
                    Op("pan", "pan", (-dy, -dx))]
        return [Op("zoom", "zoom", (2.0,)), Op("pan", "pan", (dx, dy)),
                Op("pan", "pan", (-dx, -dy)), Op("zoom", "zoom", (0.5,))]

    def _filter(self, rng) -> list[Op]:
        day = self.origin + int(rng.integers(0, max(1, self.days - 1))) * DAY
        return [Op("filter", "add_filter", (F("fare") > threshold(rng),)),
                Op("brush", "brush_time", (day, day + DAY)),
                Op("brush", "clear_time_brush"),
                Op("filter", "clear_filters")]

    def _aggregate(self) -> list[Op]:
        self._agg = (self._agg + 1) % len(AGGREGATES)
        agg, column = AGGREGATES[self._agg]
        return [Op("aggregate", "set_aggregation",
                   (SpatialAggregation(agg, column),))]

    def _level_switch(self) -> list[Op]:
        self._level = (self._level + 1) % len(self.levels)
        return [Op("level", "set_region_level",
                   (self.levels[self._level],))]

    # -- laps --------------------------------------------------------------

    def lap(self, index: int, choreography: tuple[str, ...] | None = None
            ) -> list[Op]:
        """The ops of lap ``index`` (call with consecutive indexes);
        ``choreography`` overrides the script's own for a warm-up."""
        own = rng_for(self.seed, "gestures", self.client, index)
        pool = rng_for(self.seed, "gestures-pool", index)
        ops: list[Op] = []
        for kind in choreography or self.choreography:
            rng = pool if kind.endswith("*") else own
            kind = kind.rstrip("*")
            if kind == "brush1":
                ops += self._brush(rng, 1)
            elif kind == "brush7":
                ops += self._brush(rng, 7)
            elif kind.startswith(("pan:", "zoom:")):
                ops += self._map(*kind.split(":"))
            elif kind == "filter":
                ops += self._filter(rng)
            elif kind == "aggregate":
                ops += self._aggregate()
            elif kind == "level":
                ops += self._level_switch()
            else:
                raise ValueError(f"unknown segment kind {kind!r}")
        return ops

    def note(self, op: Op) -> None:
        """Track viewport state as ops are replayed (see ``moved``)."""
        if op.call in ("pan", "zoom"):
            self.moved = True
        elif op.call == "set_region_level":
            self.moved = False

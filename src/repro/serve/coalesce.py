"""Single-flight coalescing for identical concurrent queries.

Interactive dashboards are bursty in a very particular way: when ten
clients look at the same view, they issue the *same* query within the
same beat.  Running it ten times multiplies latency for everyone;
running it once and fanning the answer out costs one execution.  A
:class:`SingleFlight` keyed by query fingerprint does exactly that: the
first arrival becomes the leader and starts the work, later arrivals
("joiners") await the same task.

Cancellation is reference-counted: every participant that drops out
(client disconnect -> its handler task is cancelled) decrements the
flight's refcount, and only when the *last* participant leaves is the
flight's cooperative cancel token set — a leader's disconnect must not
kill an answer nine joiners are still waiting for.

The value resolved by the shared task is handed to every participant
**by reference** — the query service gives each participant a result
of its own over the answer's read-only arrays (``result.shared``).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field

from ..obs.trace import span


@dataclass
class Flight:
    """One in-progress execution shared by every coalesced request."""

    task: asyncio.Task
    #: Cooperative token threaded into the engine (checked between
    #: tiles); set only when the last participant abandons the flight.
    cancel: threading.Event = field(default_factory=threading.Event)
    refs: int = 0


class SingleFlight:
    """Fingerprint-keyed coalescing of concurrent identical work."""

    def __init__(self):
        self._flights: dict = {}
        self.leaders = 0
        self.coalesced = 0
        self.cancelled_flights = 0

    def inflight(self) -> int:
        return len(self._flights)

    async def run(self, key, start):
        """Run ``start`` once per key across concurrent callers.

        ``start(cancel_event)`` must return an awaitable; it is invoked
        only by the leader.  Every caller (leader and joiners alike)
        receives the same resolved value or the same raised exception.
        A caller cancelled while waiting leaves the flight; the last
        one out sets the cancel event and cancels the shared task.
        """
        flight = self._flights.get(key)
        role = "leader" if flight is None else "joiner"
        with span("flight.wait", role=role):
            if flight is None:
                cancel = threading.Event()
                # ensure_future copies the *current* context at task
                # creation, so the leader's admission wait and execution
                # nest under this flight.wait span: its self time is
                # only the wait for a slot's hand-off and the pool.
                task = asyncio.ensure_future(start(cancel))
                flight = Flight(task=task, cancel=cancel)
                self._flights[key] = flight
                self.leaders += 1

                def _cleanup(t: asyncio.Task) -> None:
                    # Drop the registry entry and retrieve the exception
                    # so an all-participants-cancelled flight never logs
                    # an "exception was never retrieved" warning.
                    if self._flights.get(key) is flight:
                        del self._flights[key]
                    if not t.cancelled():
                        t.exception()

                task.add_done_callback(_cleanup)
            else:
                self.coalesced += 1
            flight.refs += 1
            try:
                # shield(): cancelling *this* caller must not cancel the
                # shared task other participants still await.
                return await asyncio.shield(flight.task)
            except asyncio.CancelledError:
                if not flight.task.done():
                    flight.refs -= 1
                    if flight.refs <= 0:
                        flight.cancel.set()
                        flight.task.cancel()
                        self.cancelled_flights += 1
                raise

    def stats(self) -> dict:
        lookups = self.leaders + self.coalesced
        return {
            "leaders": self.leaders,
            "coalesced": self.coalesced,
            "inflight": len(self._flights),
            "cancelled_flights": self.cancelled_flights,
            "coalesce_rate": (self.coalesced / lookups) if lookups else 0.0,
        }

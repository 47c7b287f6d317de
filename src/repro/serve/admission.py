"""Admission control: a bounded front door for the query service.

The service's one thread pool can only run ``max_concurrency`` queries
at once; everything else either waits in a *bounded* queue or is shed
immediately.  Shedding beats queueing unboundedly: an overloaded server
that accepts every request eventually times out all of them, while one
that answers "try again in 200ms" keeps its latency distribution honest
(the classic load-shedding argument).  Shed requests receive an
:class:`~repro.errors.OverloadedError` carrying ``retry_after_ms``
scaled by current queue depth, which the HTTP layer maps to a 429 with
a ``Retry-After`` header.

Everything here runs on the event loop thread, so plain counters are
race-free; the semaphore is the only synchronization primitive.
"""

from __future__ import annotations

import asyncio
import contextlib

from ..errors import OverloadedError
from ..obs.trace import span

#: Baseline client back-off when shed; scaled up with queue depth.
BASE_RETRY_AFTER_MS = 100.0


class AdmissionController:
    """Concurrency semaphore + bounded wait queue + load shedding."""

    def __init__(self, max_concurrency: int = 4, max_queue: int = 16,
                 max_wait_s: float = 10.0):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrency = int(max_concurrency)
        self.max_queue = int(max_queue)
        self.max_wait_s = float(max_wait_s)
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._waiting = 0
        self.active = 0
        self.admitted = 0
        self.shed_queue_full = 0
        self.shed_wait_timeout = 0

    # -- shedding ----------------------------------------------------------

    def retry_after_ms(self) -> float:
        """Suggested client back-off, scaled by how deep the queue is:
        the fuller the queue, the longer the hint."""
        depth = self._waiting / max(1, self.max_queue)
        return BASE_RETRY_AFTER_MS * (1.0 + 4.0 * depth)

    @contextlib.asynccontextmanager
    async def slot(self, max_wait_s: float | None = None):
        """Hold one execution slot for the duration of the block.

        Sheds immediately when the wait queue is full, and after
        ``max_wait_s`` when a slot never frees up; both paths raise
        :class:`OverloadedError` with a ``retry_after_ms`` hint.  The
        slot is released on every exit path — including cancellation of
        the waiting or the running task — so a disconnected client can
        never leak capacity.
        """
        with span("admission.wait") as sp:
            if self._waiting >= self.max_queue:
                self.shed_queue_full += 1
                sp.set(shed="queue_full")
                raise OverloadedError(
                    f"queue full ({self._waiting} waiting, "
                    f"{self.active} running)",
                    retry_after_ms=self.retry_after_ms())
            if max_wait_s is None:
                max_wait_s = self.max_wait_s
            self._waiting += 1
            acquired = False
            try:
                try:
                    # asyncio.timeout, not wait_for: on 3.11, cancelling
                    # a task parked in wait_for(sem.acquire()) can
                    # deadlock loop teardown (the inner acquire future
                    # and the outer cancellation race); timeout's
                    # cancel-count mechanism does not have that failure
                    # mode.
                    async with asyncio.timeout(max_wait_s):
                        await self._semaphore.acquire()
                        acquired = True
                except TimeoutError:
                    if acquired:
                        # The permit arrived in the same beat the
                        # timeout fired; give it back before shedding.
                        self._semaphore.release()
                    self.shed_wait_timeout += 1
                    sp.set(shed="wait_timeout")
                    raise OverloadedError(
                        f"no slot freed within {max_wait_s:.1f}s",
                        retry_after_ms=self.retry_after_ms()) from None
            finally:
                self._waiting -= 1
        self.active += 1
        self.admitted += 1
        try:
            yield
        finally:
            self.active -= 1
            self._semaphore.release()

    # -- introspection -----------------------------------------------------

    @property
    def waiting(self) -> int:
        return self._waiting

    def stats(self) -> dict:
        return {
            "max_concurrency": self.max_concurrency,
            "max_queue": self.max_queue,
            "active": self.active,
            "waiting": self._waiting,
            "admitted": self.admitted,
            "shed_queue_full": self.shed_queue_full,
            "shed_wait_timeout": self.shed_wait_timeout,
            "shed_total": self.shed_queue_full + self.shed_wait_timeout,
        }

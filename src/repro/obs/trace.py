"""Hierarchical query tracing: where did this 80 ms go?

A trace is a tree of :class:`Span` objects.  Instrumented code calls
:func:`span` at stage boundaries (``plan``, ``store.scan``,
``scatter``, ...); each span records wall time, thread CPU time
and key-value attributes, and nests under whatever span is active in
the current :mod:`contextvars` context.  The serve layer opens one
root span per traced request and the whole tree comes back under one
``request_id`` (ring-buffered, served by ``GET /v1/trace/<id>``).

**The disabled fast path is the design center.**  Tracing is off until
something asks for it (a ``--trace`` query, a server with a slow-query
threshold).  While off, :func:`span` is one module-global bool check
returning the shared :data:`NULL_SPAN` singleton — no allocation, no
contextvar read — so instrumentation in the engine's hot paths costs
<2% even when sprinkled across every layer.  Even while *on*, spans
only record inside an active trace: a span with no parent in the
current context is also the null span, so concurrent untraced requests
pay one bool + one contextvar read.

**Crossing threads.**  ``loop.run_in_executor`` does not propagate
contextvars, so the serve layer carries the root span to the worker
thread explicitly and re-activates it there with :func:`activate`.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import threading
import time
from collections import OrderedDict

#: Module-global master switch.  One bool load is the entire cost of a
#: ``span()`` call while tracing is disabled.
_enabled = False

_current: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


def enabled() -> bool:
    """Whether tracing may record anything at all."""
    return _enabled


def enable() -> None:
    """Turn tracing on (sticky for the process; cheap to call again)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn tracing off (tests and the overhead benchmark)."""
    global _enabled
    _enabled = False


class _NullSpan:
    """Shared no-op span: the return value of :func:`span` whenever
    nothing should be recorded.  Every method is a no-op so call sites
    never branch on whether tracing is live."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False

    def set(self, **_attrs):
        return self

    def to_dict(self):
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One timed node of a trace tree.

    Entering the span starts its clocks and makes it the current
    context span; exiting stops the clocks and restores the parent.
    ``cpu_s`` is *thread* CPU time — spans time the thread they run on,
    which is exactly what "was this wall time compute or waiting?"
    needs.
    """

    __slots__ = ("name", "attrs", "children", "wall_s", "cpu_s",
                 "_t0", "_cpu0", "_token")

    def __init__(self, name: str, attrs: dict | None = None):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._t0 = None
        self._cpu0 = None
        self._token = None

    def __enter__(self) -> "Span":
        self._token = _current.set(self)
        self._t0 = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        self.cpu_s = time.thread_time() - self._cpu0
        self.wall_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        return False

    def set(self, **attrs) -> "Span":
        """Attach key-value attributes; chainable, no-op on NULL_SPAN."""
        self.attrs.update(attrs)
        return self

    # -- serialization (the trace endpoint, the slow-query log) ----------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        s = cls(str(payload.get("name", "?")), payload.get("attrs") or {})
        s.wall_s = float(payload.get("wall_s", 0.0))
        s.cpu_s = float(payload.get("cpu_s", 0.0))
        s.children = [cls.from_dict(c)
                      for c in payload.get("children") or []]
        return s


def span(name: str, **attrs):
    """A child span of the currently active span, or :data:`NULL_SPAN`.

    The instrumentation entry point: ``with span("store.scan") as s:``.
    Returns the null singleton when tracing is disabled *or* no trace
    is active in this context — both checks are O(1), keeping
    instrumented hot paths within the <2% overhead budget.  Prefer
    ``s.set(key=value)`` over keyword attrs for values that are costly
    to compute: keyword arguments are evaluated even on the fast path.
    """
    if not _enabled:
        return NULL_SPAN
    parent = _current.get()
    if parent is None:
        return NULL_SPAN
    child = Span(name, attrs)
    parent.children.append(child)
    return child


def current_span():
    """The active span in this context, or ``None``."""
    return _current.get()


@contextlib.contextmanager
def activate(root):
    """Make ``root`` the current span for the block *without* timing it.

    The cross-thread handoff: the serve layer enters the root span on
    the event loop (so its wall time covers the whole request) and the
    worker thread re-activates it here so engine spans nest under it.
    ``activate(None)`` is a no-op block.
    """
    if root is None or root is NULL_SPAN:
        yield None
        return
    token = _current.set(root)
    try:
        yield root
    finally:
        _current.reset(token)


# -- retention ----------------------------------------------------------------


class Tracer:
    """Root-span factory + bounded ring buffer of finished traces.

    The serve layer owns one: it mints request ids, starts root spans
    (flipping the global enable switch on first use), and retains the
    last ``retain`` finished trees for ``GET /v1/trace/<request_id>``.
    Thread-safe — traces finish on the event loop thread but are read
    from request handlers and tests.
    """

    def __init__(self, retain: int = 64):
        if retain < 1:
            raise ValueError("retain must be positive")
        self.retain = int(retain)
        self._ring: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self.started = 0
        self.retained = 0

    def new_request_id(self) -> str:
        return f"q{next(self._seq):08x}"

    def start(self, name: str, **attrs) -> Span:
        """A new root span (not yet entered); enables tracing."""
        enable()
        self.started += 1
        return Span(name, attrs)

    def keep(self, request_id: str, root: Span | dict) -> dict:
        """Retain one finished trace; returns the stored payload."""
        payload = root if isinstance(root, dict) else root.to_dict()
        with self._lock:
            self._ring[request_id] = payload
            self._ring.move_to_end(request_id)
            while len(self._ring) > self.retain:
                self._ring.popitem(last=False)
            self.retained += 1
        return payload

    def get(self, request_id: str) -> dict | None:
        with self._lock:
            return self._ring.get(request_id)

    def ids(self) -> list[str]:
        """Retained request ids, oldest first."""
        with self._lock:
            return list(self._ring)

    def stats(self) -> dict:
        with self._lock:
            return {"enabled": _enabled, "retain": self.retain,
                    "started": self.started, "retained": self.retained,
                    "held": len(self._ring)}


# -- rendering ----------------------------------------------------------------


def _fmt_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in attrs.items():
        if isinstance(value, float):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    return "  [" + " ".join(parts) + "]"


def render(root: Span | dict, max_depth: int = 12) -> str:
    """An ASCII tree of one span tree — the slow-query-log / ``query
    --trace`` view.  Accepts a live :class:`Span` or its dict form."""
    payload = root if isinstance(root, dict) else root.to_dict()
    lines: list[str] = []

    def walk(node: dict, depth: int) -> None:
        indent = "  " * depth
        name = str(node.get("name", "?"))
        wall = float(node.get("wall_s", 0.0)) * 1000.0
        cpu = float(node.get("cpu_s", 0.0)) * 1000.0
        label = f"{indent}{name}"
        lines.append(f"{label:<44} {wall:>9.2f}ms  cpu {cpu:>8.2f}ms"
                     f"{_fmt_attrs(node.get('attrs') or {})}")
        if depth >= max_depth:
            return
        for child in node.get("children") or []:
            walk(child, depth + 1)

    walk(payload, 0)
    return "\n".join(lines)


def leaf_coverage(root: Span | dict) -> float:
    """Fraction of the root's wall time covered by instrumented spans.

    Recursively: a leaf covers its own wall time; an inner span covers
    the sum of its children's coverage *capped at its own wall time*
    (children that overlap — spans recorded on other threads — may sum
    past the parent's wall; the cap keeps coverage honest).  The
    acceptance gate for instrumentation completeness.
    """
    payload = root if isinstance(root, dict) else root.to_dict()

    def covered(node: dict) -> float:
        wall = float(node.get("wall_s", 0.0))
        children = node.get("children") or []
        if not children:
            return wall
        return min(wall, sum(covered(c) for c in children))

    wall = float(payload.get("wall_s", 0.0))
    return covered(payload) / wall if wall > 0 else 0.0

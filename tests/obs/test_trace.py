"""Tracing core: span nesting, the disabled fast path, cross-thread
activation, rendering, and retention."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    Span,
    Tracer,
    activate,
    current_span,
    disable,
    enable,
    enabled,
    render,
    span,
)
from repro.obs.trace import leaf_coverage


# -- fast path ----------------------------------------------------------------


def test_disabled_span_is_null_singleton():
    assert not enabled()
    s = span("anything", key="value")
    assert s is NULL_SPAN
    # The null span is inert through every part of its protocol.
    with s as inner:
        assert inner is NULL_SPAN
    assert s.set(more=1) is NULL_SPAN
    assert s.to_dict() is None


def test_enabled_but_no_active_trace_is_still_null():
    enable()
    assert span("orphan") is NULL_SPAN


# -- recording ----------------------------------------------------------------


def test_spans_nest_under_the_entered_root():
    enable()
    root = Span("request")
    with root:
        with span("outer", k=1):
            with span("inner") as s:
                s.set(rows=42)
        with span("sibling"):
            pass
    assert [c.name for c in root.children] == ["outer", "sibling"]
    outer = root.children[0]
    assert [c.name for c in outer.children] == ["inner"]
    assert outer.attrs == {"k": 1}
    assert outer.children[0].attrs == {"rows": 42}
    assert root.wall_s > 0.0
    assert current_span() is None


def test_exception_is_recorded_and_context_restored():
    enable()
    root = Span("request")
    with pytest.raises(ValueError):
        with root:
            with span("failing"):
                raise ValueError("boom")
    assert root.children[0].attrs["error"] == "ValueError"
    assert current_span() is None


def test_round_trip_through_dict():
    enable()
    root = Span("request", {"id": "q1"})
    with root:
        with span("child", n=3):
            pass
    payload = root.to_dict()
    back = Span.from_dict(payload)
    assert back.name == "request"
    assert back.attrs == {"id": "q1"}
    assert back.children[0].name == "child"
    assert back.children[0].attrs == {"n": 3}
    assert back.to_dict() == payload


def test_activate_carries_a_trace_across_threads():
    enable()
    root = Span("request")
    with root:
        def worker():
            with activate(root), span("thread.work"):
                pass
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert [c.name for c in root.children] == ["thread.work"]


def test_activate_none_is_a_noop():
    with activate(None) as ctx:
        assert ctx is None
    with activate(NULL_SPAN) as ctx:
        assert ctx is None


# -- rendering / coverage -----------------------------------------------------


def test_render_shows_names_times_and_attrs():
    tree = {"name": "request", "wall_s": 0.010, "cpu_s": 0.008,
            "attrs": {}, "children": [
                {"name": "scan", "wall_s": 0.009, "cpu_s": 0.008,
                 "attrs": {"rows": 7}, "children": []}]}
    text = render(tree)
    lines = text.splitlines()
    assert lines[0].startswith("request")
    assert "  scan" in lines[1]
    assert "rows=7" in lines[1]
    assert "10.00ms" in lines[0]


def test_leaf_coverage_caps_parallel_children():
    tree = {"name": "root", "wall_s": 1.0, "children": [
        # Two overlapping children whose walls sum past the parent.
        {"name": "a", "wall_s": 0.9, "children": []},
        {"name": "b", "wall_s": 0.9, "children": []}]}
    assert leaf_coverage(tree) == 1.0
    sparse = {"name": "root", "wall_s": 1.0, "children": [
        {"name": "a", "wall_s": 0.2, "children": []}]}
    assert leaf_coverage(sparse) == pytest.approx(0.2)
    assert leaf_coverage({"name": "empty", "wall_s": 0.0}) == 0.0


# -- retention ----------------------------------------------------------------


def test_tracer_ring_retains_last_n():
    tracer = Tracer(retain=2)
    disable()
    root = tracer.start("request")
    assert enabled()  # starting a root span arms tracing
    with root:
        pass
    ids = [tracer.new_request_id() for __ in range(3)]
    assert len(set(ids)) == 3
    for rid in ids:
        tracer.keep(rid, root)
    assert tracer.ids() == ids[-2:]
    assert tracer.get(ids[0]) is None
    assert tracer.get(ids[-1])["name"] == "request"
    stats = tracer.stats()
    assert stats["held"] == 2
    assert stats["retained"] == 3

"""Tracer/Span behaviour: identity, parenting, context, the null path."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    record_unit_spans,
)


class FakeClock:
    """A controllable wall clock for deterministic span timestamps."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def make_tracer(process=-1, now=100.0):
    clock = FakeClock(now)
    return Tracer(enabled=True, process=process, clock=clock), clock


def test_start_end_records_a_dict():
    tracer, clock = make_tracer()
    span = tracer.start("request", trace_id="req-1", request_id=1)
    clock.now = 101.5
    tracer.end(span, ok=True)
    (finished,) = tracer.finished
    assert finished == {
        "name": "request", "trace_id": "req-1", "span_id": span.span_id,
        "parent_id": None, "start_s": 100.0, "end_s": 101.5,
        "process": -1, "attrs": {"request_id": 1, "ok": True},
    }


def test_span_ids_embed_pid_and_are_unique():
    tracer, _ = make_tracer()
    ids = {tracer.start("s").span_id for _ in range(100)}
    assert len(ids) == 100
    assert all(i.startswith(f"{os.getpid():x}.") for i in ids)


def test_child_inherits_trace_id_from_parent_span():
    tracer, _ = make_tracer()
    root = tracer.start("request", trace_id="req-7")
    child = tracer.start("execute", parent=root)
    assert child.trace_id == "req-7"
    assert child.parent_id == root.span_id


def test_string_parent_is_a_foreign_span_id():
    tracer, _ = make_tracer()
    child = tracer.start("worker.serve", trace_id="req-3", parent="abc.5")
    assert child.parent_id == "abc.5"


def test_context_is_picklable_and_round_trips():
    tracer, _ = make_tracer()
    root = tracer.start("request", trace_id="req-9")
    ctx = Tracer.context(root)
    assert ctx == (root.trace_id, root.span_id)
    assert pickle.loads(pickle.dumps(ctx)) == ctx
    assert Tracer.context(NULL_SPAN) is None


def test_scope_records_and_tags_errors():
    tracer, clock = make_tracer()
    with tracer.span("ok-scope"):
        clock.now = 101.0
    with pytest.raises(RuntimeError):
        with tracer.span("bad-scope"):
            raise RuntimeError("boom")
    ok, bad = tracer.finished
    assert ok["name"] == "ok-scope" and "error" not in ok["attrs"]
    assert bad["attrs"]["error"] == "RuntimeError: boom"


def test_add_records_explicit_timestamps_and_process_override():
    tracer, _ = make_tracer(process=-1)
    span = tracer.add("run", 5.0, 7.5, trace_id="sim:req-0",
                      process=3, replica=3)
    assert span.start_s == 5.0 and span.end_s == 7.5
    assert tracer.finished[0]["process"] == 3
    assert tracer.finished[0]["attrs"] == {"replica": 3}


def test_ingest_and_drain_ship_spans_between_tracers():
    worker, _ = make_tracer(process=0)
    worker.end(worker.start("worker.serve", trace_id="req-0"))
    shipped = worker.drain()
    assert worker.finished == [] and len(shipped) == 1
    parent, _ = make_tracer(process=-1)
    parent.ingest(shipped)
    assert len(parent) == 1
    assert parent.finished[0]["process"] == 0


def test_two_tracers_never_collide_on_span_ids():
    # Same process here, but distinct counters; cross-process the pid
    # prefix disambiguates even identical counter values.
    a, _ = make_tracer()
    b, _ = make_tracer()
    span_a = a.start("x")
    span_b = b.start("x")
    assert span_a.span_id == span_b.span_id  # same pid, same counter...
    assert span_a.span_id.split(".")[0] == f"{os.getpid():x}"  # ...pid-scoped


# ----------------------------------------------------------------------
# The disabled path.
# ----------------------------------------------------------------------


def test_null_tracer_records_nothing():
    span = NULL_TRACER.start("request", trace_id="req-1", request_id=1)
    assert span is NULL_SPAN
    assert span.annotate(anything="goes") is NULL_SPAN
    NULL_TRACER.end(span, ok=True)
    with NULL_TRACER.span("scope"):
        pass
    NULL_TRACER.add("run", 0.0, 1.0)
    NULL_TRACER.ingest([{"name": "x"}])
    assert NULL_TRACER.finished == []
    assert len(NULL_TRACER) == 0
    assert NULL_SPAN.attrs == {}  # annotate never mutated the singleton


def test_disabled_end_of_null_span_is_noop_on_enabled_tracer():
    tracer, _ = make_tracer()
    tracer.end(NULL_SPAN)  # e.g. a span opened while disabled
    assert tracer.finished == []


# ----------------------------------------------------------------------
# Unit attribution + resolution classification.
# ----------------------------------------------------------------------


class FakeOpRecord:
    def __init__(self, sink, kind, start_cycle, end_cycle, group=0):
        self.sink = sink
        self.kind = kind
        self.start_cycle = start_cycle
        self.end_cycle = end_cycle
        self.group = group


def test_record_unit_spans_places_proportionally():
    tracer, clock = make_tracer()
    parent = tracer.start("execute", trace_id="req-0")
    clock.now = 110.0  # 10 s of wall for 1000 cycles
    tracer.end(parent, cycles=1000)
    records = [FakeOpRecord("CONV", "conv", 0, 500),
               FakeOpRecord("SDP", "relu", 500, 1000)]
    record_unit_spans(tracer, parent, records, total_cycles=1000)
    _, conv, sdp = tracer.finished
    assert conv["name"] == "unit.conv"
    assert conv["start_s"] == 100.0 and conv["end_s"] == 105.0
    assert conv["attrs"]["cycles"] == 500
    assert sdp["name"] == "unit.sdp"
    assert sdp["start_s"] == 105.0 and sdp["end_s"] == 110.0
    assert conv["parent_id"] == parent.span_id
    assert conv["trace_id"] == "req-0"


def test_record_unit_spans_disabled_or_empty_is_noop():
    record_unit_spans(NULL_TRACER, NULL_SPAN, [FakeOpRecord("SDP", "r", 0, 1)], 1)
    tracer, _ = make_tracer()
    parent = tracer.start("execute")
    record_unit_spans(tracer, parent, [], 100)
    assert tracer.finished == []


def test_record_unit_spans_zero_total_cycles():
    tracer, clock = make_tracer()
    parent = tracer.start("execute")
    tracer.end(parent)
    record_unit_spans(tracer, parent, [FakeOpRecord("SDP", "r", 0, 1)], 0)
    unit = tracer.finished[-1]
    # Degenerate scale: spans collapse onto the parent's start, cycles
    # still exact in attrs.
    assert unit["start_s"] == unit["end_s"] == parent.start_s
    assert unit["attrs"]["cycles"] == 1


def test_span_to_dict_shape_is_the_wire_format():
    span = Span("x", "t", "s", None, 1.0, process=2, attrs={"k": "v"})
    span.end_s = 2.0
    assert span.to_dict() == {
        "name": "x", "trace_id": "t", "span_id": "s", "parent_id": None,
        "start_s": 1.0, "end_s": 2.0, "process": 2, "attrs": {"k": "v"},
    }

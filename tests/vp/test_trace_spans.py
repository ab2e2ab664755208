"""VP trace log → obs spans / Chrome trace-event conversion."""

from __future__ import annotations

import json

from repro.obs import to_chrome_trace
from repro.vp.trace_log import LANE_NAMES, TraceLog, parse_trace


def sample_log():
    log = TraceLog()
    log.log_csb(12, 0xB010, 0x1, True)
    log.log_csb(15, 0xC, 0x4, False)
    log.log_dbb(20, 0x100000, bytes(range(64)), False)
    return log


def test_to_spans_places_transactions_on_the_simulated_clock():
    spans = sample_log().to_spans(frequency_hz=100e6)
    assert [s["name"] for s in spans] == ["csb.write", "csb.read", "dbb.read"]
    period = 1.0 / 100e6
    write = spans[0]
    assert write["start_s"] == 12 * period
    assert write["end_s"] == 13 * period  # one-cycle instants
    assert write["attrs"] == {
        "cycle": 12, "address": "0x0000b010", "iswrite": True,
        "data": "0x00000001",
    }
    # CSB on lane 0, DBB on lane 1; DBB carries a byte count, not data.
    assert [s["process"] for s in spans] == [0, 0, 1]
    assert spans[2]["attrs"]["bytes"] == 64
    assert "data" not in spans[2]["attrs"]
    # Root spans with unique ids in one "vp" trace.
    assert all(s["parent_id"] is None and s["trace_id"] == "vp" for s in spans)
    assert len({s["span_id"] for s in spans}) == 3


def test_frequency_scales_timestamps():
    slow = sample_log().to_spans(frequency_hz=50e6)
    fast = sample_log().to_spans(frequency_hz=100e6)
    assert slow[0]["start_s"] == 2 * fast[0]["start_s"]


def test_to_trace_events_labels_the_bus_lanes():
    payload = to_chrome_trace(sample_log().to_spans(), process_names=LANE_NAMES)
    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    meta = {(m["name"], m["pid"]): m["args"]["name"]
            for m in payload["traceEvents"] if m["ph"] == "M"}
    assert len(events) == 3
    assert meta[("process_name", 0)] == "csb"
    assert meta[("process_name", 1)] == "dbb"
    json.loads(json.dumps(payload))  # Perfetto-loadable as-is


def test_parsed_trace_converts_like_the_original():
    log = sample_log()
    reparsed = parse_trace(log.render())
    assert reparsed.to_spans() == log.to_spans()


def test_empty_log_converts_cleanly():
    assert TraceLog().to_spans() == []
    assert to_chrome_trace(TraceLog().to_spans(), process_names=LANE_NAMES) == {
        "traceEvents": [], "displayTimeUnit": "ms"}

"""Chrome trace_event export and schema validation."""

import json

from repro.trace import TraceConfig
from repro.trace.export import validate_chrome_trace, write_chrome_trace
from repro.trace.tracer import Tracer, wg_track


class FakeClock:
    def __init__(self):
        self.now = 0


def small_trace():
    clock = FakeClock()
    tracer = Tracer(clock, TraceConfig(categories=("wg", "sync", "cp")))
    tracer.set_span("wg", wg_track(1), "running")
    tracer.set_span("wg", wg_track(0), "running")
    clock.now = 5
    tracer.instant("sync", "register", track="syncmon", wg=0)
    tracer.counter("cp", "cp.waiting_wgs", 2)
    clock.now = 9
    tracer.finish()
    return tracer.export_chrome(label="unit")


def test_export_structure_and_metadata():
    doc = small_trace()
    assert doc["otherData"]["label"] == "unit"
    assert validate_chrome_trace(doc) == []
    meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
    names = {ev["args"]["name"]: ev["tid"] for ev in meta
             if ev["name"] == "thread_name"}
    # WG tracks first and in numeric order, then subsystems alphabetical
    assert names["wg/0"] == 1
    assert names["wg/1"] == 2
    assert names["cp.waiting_wgs"] < names["syncmon"]
    assert doc["awg"] == {
        "recorded": 4, "dropped": 0, "categories": ["wg", "sync", "cp"],
    }


def test_export_phases():
    doc = small_trace()
    by_phase = {}
    for ev in doc["traceEvents"]:
        by_phase.setdefault(ev["ph"], []).append(ev)
    assert all("dur" in ev for ev in by_phase["X"])
    assert all(ev["s"] == "t" for ev in by_phase["i"])
    assert all(
        isinstance(ev["args"]["value"], int) for ev in by_phase["C"]
    )


def test_write_is_deterministic_and_validates(tmp_path):
    doc = small_trace()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_chrome_trace(doc, a)
    write_chrome_trace(small_trace(), b)
    assert a.read_bytes() == b.read_bytes()
    assert validate_chrome_trace(json.loads(a.read_text())) == []


def test_validator_rejects_malformed_documents():
    assert validate_chrome_trace([]) == ["top level must be a JSON object"]
    assert validate_chrome_trace({}) == ["traceEvents must be a JSON array"]
    assert "traceEvents is empty" in validate_chrome_trace(
        {"traceEvents": []}
    )

    def bad(ev):
        return validate_chrome_trace({"traceEvents": [ev]})

    assert any("bad phase" in p for p in bad({"ph": "Z"}))
    assert any("event must be an object" in p for p in bad("nope"))
    assert any("name" in p for p in bad(
        {"ph": "i", "pid": 1, "tid": 1, "ts": 0, "s": "t"}))
    assert any("ts" in p for p in bad(
        {"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": -1}))
    assert any("dur" in p for p in bad(
        {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0}))
    assert any("instant scope" in p for p in bad(
        {"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": 0, "s": "q"}))
    assert any("numeric" in p for p in bad(
        {"ph": "C", "name": "x", "pid": 1, "tid": 1, "ts": 0,
         "args": {"value": "three"}}))


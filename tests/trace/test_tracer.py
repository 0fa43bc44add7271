"""Tracer unit tests: ring bounds, span bookkeeping, category filters."""

from repro.trace import TraceConfig, tracer as tracer_module
from repro.trace.tracer import Tracer, wg_track


class FakeClock:
    def __init__(self):
        self.now = 0


def make(categories=("wg", "sync")):
    clock = FakeClock()
    return clock, Tracer(clock, TraceConfig(categories=categories))


def test_filtered_categories_record_nothing():
    _clock, tracer = make(categories=("wg",))
    tracer.instant("sync", "register", track="syncmon")
    tracer.set_span("sync", "syncmon", "busy")
    tracer.counter("sync", "occupancy", 3)
    assert tracer.recorded == 0
    assert tracer.events() == []


def test_instants_carry_clock_and_args():
    clock, tracer = make()
    clock.now = 42
    tracer.instant("sync", "register", track="syncmon", wg=3)
    (ev,) = tracer.events()
    assert ev["ph"] == "i"
    assert ev["ts"] == 42
    assert ev["args"] == {"wg": 3}


def test_set_span_closes_previous_span_on_same_track():
    clock, tracer = make()
    track = wg_track(0)
    tracer.set_span("wg", track, "running")
    clock.now = 10
    tracer.set_span("wg", track, "stalled")
    clock.now = 25
    tracer.finish()
    spans = [ev for ev in tracer.events() if ev["ph"] == "X"]
    assert [(s["name"], s["ts"], s["dur"]) for s in spans] == [
        ("running", 0, 10), ("stalled", 10, 15),
    ]


def test_open_spans_appear_in_events_snapshot():
    clock, tracer = make()
    tracer.set_span("wg", wg_track(1), "running")
    clock.now = 7
    (ev,) = tracer.events()
    assert ev["ph"] == "X" and ev["dur"] == 7
    assert not tracer.finished
    tracer.finish()
    assert tracer.finished


def test_ring_overflow_drops_oldest_but_counts_stay_exact(monkeypatch):
    # "counts" are the ring's own: recorded and dropped stay exact
    monkeypatch.setattr(tracer_module, "BUFFER_SIZE", 4)
    clock, tracer = make()
    for i in range(10):
        clock.now = i
        tracer.instant("sync", "notify", track="syncmon", i=i)
    assert tracer.recorded == 10
    assert tracer.dropped == 6
    kept = tracer.events()
    assert len(kept) == 4
    assert [ev["ts"] for ev in kept] == [6, 7, 8, 9]


def test_counter_records_every_sample():
    clock, tracer = make()
    for value in (2, 9, 4):
        clock.now += 1
        tracer.counter("sync", "occupancy", value)
    events = tracer.events()
    assert [ev["ph"] for ev in events] == ["C", "C", "C"]
    assert [(ev["ts"], ev["args"]["value"]) for ev in events] == [
        (1, 2), (2, 9), (3, 4),
    ]


def test_events_sorted_by_time_then_sequence():
    clock, tracer = make()
    tracer.instant("sync", "a", track="syncmon")
    tracer.instant("sync", "b", track="syncmon")
    clock.now = 5
    tracer.instant("sync", "c", track="syncmon")
    names = [ev["name"] for ev in tracer.events()]
    assert names == ["a", "b", "c"]


def test_wg_transitions_view():
    clock, tracer = make()
    tracer.set_span("wg", wg_track(2), "running")
    clock.now = 8
    tracer.set_span("wg", wg_track(2), "done")
    tracer.instant("sync", "noise", track="syncmon")
    tracer.finish()
    assert tracer.wg_transitions() == [(0, 2, "running"), (8, 2, "done")]


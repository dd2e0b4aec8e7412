"""The span recorder on toy call trees with known self times."""

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import SpanRecorder, summarize  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children_at_every_depth():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("outer"):           # [0, 10]
        clock.now = 1.0
        with rec.span("a"):           # [1, 4]
            clock.now = 4.0
        clock.now = 5.0
        with rec.span("b"):           # [5, 9]
            clock.now = 6.0
            with rec.span("c"):       # [6, 8]
                clock.now = 8.0
            clock.now = 9.0
        clock.now = 10.0
    by_name = {r.name: r for r in rec.records()}
    assert {n: r.self_time for n, r in by_name.items()} == {
        "outer": 3.0, "a": 3.0, "b": 2.0, "c": 2.0}
    assert {n: r.duration for n, r in by_name.items()} == {
        "outer": 10.0, "a": 3.0, "b": 4.0, "c": 2.0}
    assert {n: r.parent for n, r in by_name.items()} == {
        "outer": None, "a": "outer", "b": "outer", "c": "b"}
    # One request: every span carries the root's trace id.
    assert len({r.trace for r in rec.records()}) == 1


def test_separate_top_level_spans_get_separate_traces():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    for step in range(3):
        with rec.span("request"):
            clock.now += 2.0
            with rec.span("work"):
                clock.now += 1.0
    summary = summarize(rec.records())
    assert summary["request"]["ms"] == [3000.0] * 3
    assert summary["request"]["self_ms"] == [2000.0] * 3
    assert summary["work"]["parent"] == ["request"] * 3
    assert len({r.trace for r in rec.records()}) == 3


def test_wrap_records_methods_static_and_class_methods():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    class Layer:
        def outer(self):
            clock.now += 1.0
            return self.inner(2) + Layer.helper() + Layer.build()

        def inner(self, x):
            clock.now += 0.5
            return x

        @staticmethod
        def helper():
            return 10

        @classmethod
        def build(cls):
            assert cls is Layer
            return 100

    rec.wrap(Layer, "outer", "layer.outer")
    rec.wrap(Layer, "inner", "layer.inner")
    rec.wrap(Layer, "helper", "layer.helper")
    rec.wrap(Layer, "build", "layer.build")
    assert Layer().outer() == 112
    by_name = {r.name: r for r in rec.records()}
    assert by_name["layer.outer"].duration == 1.5
    assert by_name["layer.outer"].self_time == 1.0
    assert by_name["layer.inner"].parent == "layer.outer"
    assert by_name["layer.build"].parent == "layer.outer"
    assert rec.records()[-1].name == "layer.outer"


def test_threads_keep_their_own_span_stacks():
    rec = SpanRecorder()
    barrier = threading.Barrier(2)

    def request(name):
        with rec.span(name):
            barrier.wait(timeout=5)
            with rec.span(name + ".child"):
                barrier.wait(timeout=5)

    threads = [threading.Thread(target=request, args=(n,)) for n in ("x", "y")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    parents = {r.name: r.parent for r in rec.records()}
    assert parents == {"x": None, "y": None, "x.child": "x", "y.child": "y"}


def test_counts_and_clear():
    rec = SpanRecorder()
    rec.count("reallocs")
    rec.count("reallocs", 2)
    with rec.span("s"):
        pass
    assert rec.counts == {"reallocs": 3}
    rec.clear()
    assert rec.counts == {} and rec.records() == []

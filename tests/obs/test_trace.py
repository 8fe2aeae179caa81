"""Span nesting, own-time accounting, exception safety, clock injection."""

import threading

import pytest

from repro.obs.trace import Span, Tracer, use_clock


class FakeClock:
    """Deterministic clock: every read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


class TestSpanTree:
    def test_nesting_builds_tree(self):
        tracer = Tracer()
        with use_clock(FakeClock()):
            with tracer.span("root") as root:
                with tracer.span("a"):
                    pass
                with tracer.span("b") as b:
                    b.add("records", 3)
        assert [c.name for c in root.children] == ["a", "b"]
        assert root.children[1].counters == {"records": 3}
        assert tracer.last is root

    def test_durations_and_own_time(self):
        tracer = Tracer()
        with use_clock(FakeClock(step=1.0)):
            # reads: root start(1), child start(2), child end(3), root end(4)
            with tracer.span("root") as root:
                with tracer.span("child") as child:
                    pass
        assert child.duration == pytest.approx(1.0)
        assert root.duration == pytest.approx(3.0)
        assert root.own_time == pytest.approx(2.0)

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        root = tracer.last
        assert root.name == "outer"
        assert root.status == "error"
        assert "RuntimeError: boom" in root.error
        inner = root.children[0]
        assert inner.status == "error"
        # both spans were closed: end times are set and the stack is empty
        assert inner.t_end >= inner.t_start
        assert tracer._stack() == []

    def test_span_closed_even_on_exception_midway(self):
        tracer = Tracer()
        try:
            with tracer.span("a"):
                raise ValueError("x")
        except ValueError:
            pass
        # a new root span works fine afterwards (no orphaned stack entries)
        with tracer.span("b"):
            assert tracer._stack()[-1].name == "b"
        assert [s.name for s in tracer.finished] == ["a", "b"]

    def test_walk_and_find(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("epoch"):
                with tracer.span("batch"):
                    pass
            with tracer.span("epoch"):
                pass
        root = tracer.last
        assert [s.name for s in root.walk()] == ["root", "epoch", "batch", "epoch"]
        assert len(root.find("epoch")) == 2

    def test_render_contains_names_and_counters(self):
        tracer = Tracer()
        with use_clock(FakeClock()):
            with tracer.span("fit") as sp:
                sp.add("epochs", 2)
        text = tracer.last.render()
        assert "fit:" in text and "epochs=2" in text

    def test_to_dict_roundtrips_structure(self):
        tracer = Tracer()
        with tracer.span("r"):
            with tracer.span("c"):
                pass
        d = tracer.last.to_dict()
        assert d["name"] == "r" and d["children"][0]["name"] == "c"
        assert d["status"] == "ok"


class TestTracerBehaviour:
    def test_finished_ring_is_bounded(self):
        tracer = Tracer(max_finished=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 4
        assert tracer.finished[0].name == "s6"

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as sp:
            sp.add("k")  # must not accumulate anywhere
        assert len(tracer.finished) == 0
        assert sp.counters == {}

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name):
                seen[name] = tracer._stack()[-1].name

        with tracer.span("main"):
            t = threading.Thread(target=worker, args=("worker",))
            t.start()
            t.join()
            assert tracer._stack()[-1].name == "main"
        assert seen["worker"] == "worker"
        # worker's span is its own root, not a child of "main"
        names = sorted(s.name for s in tracer.finished)
        assert names == ["main", "worker"]

    def test_default_clock_is_monotonic_time(self):
        sp = Span("x")
        tracer = Tracer()
        with tracer.span("t") as sp:
            pass
        assert sp.duration >= 0.0

"""repro.obs.tracer — nested spans, exception capture, JSONL round-trip,
and the pay-nothing no-op default."""

import json

import numpy as np
import pytest

from repro.obs import (
    NOOP_TRACER,
    NoopTracer,
    Tracer,
    aggregate,
    current_span,
    get_tracer,
    jsonable,
    load_trace,
    profile_block,
    profiled,
    set_tracer,
    use_tracer,
)
from repro.obs.tracer import NOOP_SPAN

pytestmark = pytest.mark.obs


class FakeClock:
    """A monotonic clock advancing a fixed tick per read."""

    def __init__(self, tick=1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


# ---------------------------------------------------------------------------
# Span lifecycle and nesting
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_depth_and_parent_ids(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("middle") as middle:
                with tr.span("inner") as inner:
                    assert tr.current is inner
                assert tr.current is middle
            assert tr.current is outer
        assert tr.current is NOOP_SPAN

        # children finish before parents
        names = [r.name for r in tr.records]
        assert names == ["inner", "middle", "outer"]
        by_name = {r.name: r for r in tr.records}
        assert by_name["outer"].depth == 0 and by_name["outer"].parent_id is None
        assert by_name["middle"].depth == 1
        assert by_name["middle"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].depth == 2
        assert by_name["inner"].parent_id == by_name["middle"].span_id

    def test_injectable_clocks_give_deterministic_timings(self):
        wall, cpu = FakeClock(tick=1.0), FakeClock(tick=0.25)
        tr = Tracer(wall_clock=wall, cpu_clock=cpu)
        with tr.span("solve"):
            pass
        rec = tr.records[0]
        # one wall read at enter, one at exit -> exactly one tick apart
        assert rec.wall_s == pytest.approx(1.0)
        assert rec.cpu_s == pytest.approx(0.25)
        assert rec.start_s == pytest.approx(1.0)  # epoch read at construction

    def test_set_attaches_attributes_and_chains(self):
        tr = Tracer()
        with tr.span("solve", solver="admm") as span:
            assert span.set(iterations=12).set(converged=True) is span
        rec = tr.records[0]
        assert rec.attrs == {"solver": "admm", "iterations": 12, "converged": True}

    def test_exception_marks_error_and_reraises(self):
        tr = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with tr.span("failing"):
                raise ValueError("boom")
        rec = tr.records[0]
        assert rec.status == "error"
        assert rec.error == "ValueError: boom"
        # the sibling opened after the failure nests correctly
        with tr.span("after"):
            pass
        assert tr.records[-1].depth == 0

    def test_events_parent_to_current_span(self):
        tr = Tracer()
        with tr.span("ladder") as span:
            tr.event("ladder.answered", rung="lp")
        events = [r for r in tr.records if r.kind == "event"]
        assert len(events) == 1
        assert events[0].parent_id == span.span_id
        assert events[0].wall_s == 0.0
        assert events[0].attrs == {"rung": "lp"}


# ---------------------------------------------------------------------------
# JSONL export / load round-trip
# ---------------------------------------------------------------------------


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tr = Tracer(wall_clock=FakeClock(), cpu_clock=FakeClock(0.5))
        with tr.span("outer", layer="stack"):
            with tr.span("inner"):
                tr.event("mark", value=3)
        path = tmp_path / "trace.jsonl"
        n = tr.export_jsonl(path)
        assert n == 3
        loaded = load_trace(path)
        assert loaded == [r.to_dict() for r in tr.records]
        # every line is independently valid JSON
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_numpy_attrs_survive_export(self, tmp_path):
        tr = Tracer()
        with tr.span("solve") as span:
            span.set(residual=np.float64(1e-9), shape=np.int64(4),
                     vec=np.array([1.0, 2.0]))
        path = tmp_path / "trace.jsonl"
        tr.export_jsonl(path)
        rec = load_trace(path)[0]
        assert rec["attrs"]["residual"] == pytest.approx(1e-9)
        assert rec["attrs"]["shape"] == 4
        assert rec["attrs"]["vec"] == [1.0, 2.0]

    @pytest.mark.parametrize("value, expected", [
        (np.float32(2.5), 2.5),
        (np.array(7), 7),
        (np.array([3.0]), [3.0]),
        ((1, np.int64(2)), [1, 2]),
        ({1: np.bool_(True)}, {"1": True}),
        (FakeClock, repr(FakeClock)),
    ], ids=["numpy-scalar", "0d-array", "1-element-array", "tuple",
            "non-str-key", "unknown-object"])
    def test_jsonable_rules(self, value, expected):
        """The one JSON coercion shared by trace export and the
        benchmark result files."""
        out = jsonable(value)
        assert out == expected
        assert type(out) is type(expected)
        json.dumps(out)

    def test_aggregate_counts_spans_and_errors(self):
        tr = Tracer(wall_clock=FakeClock(), cpu_clock=FakeClock())
        for _ in range(3):
            with tr.span("convex.admm.solve"):
                pass
        with pytest.raises(RuntimeError):
            with tr.span("convex.admm.solve"):
                raise RuntimeError("diverged")
        report = aggregate(r.to_dict() for r in tr.records)
        st = report["spans"]["convex.admm.solve"]
        assert st["count"] == 4
        assert st["errors"] == 1


# ---------------------------------------------------------------------------
# No-op default and tracer installation
# ---------------------------------------------------------------------------


class TestNoopAndInstallation:
    def test_default_tracer_is_noop(self):
        assert get_tracer() is NOOP_TRACER
        assert not NOOP_TRACER.enabled
        assert current_span() is NOOP_SPAN

    def test_noop_tracer_records_nothing(self):
        noop = NoopTracer()
        with noop.span("anything", attr=1) as span:
            assert span.set(more=2) is span
            assert not span.active
            noop.event("mark")
        assert noop.records == []

    def test_noop_span_never_suppresses_exceptions(self):
        with pytest.raises(KeyError):
            with NOOP_TRACER.span("x"):
                raise KeyError("propagates")

    def test_use_tracer_installs_and_restores(self):
        tr = Tracer()
        before = get_tracer()
        with use_tracer(tr) as installed:
            assert installed is tr
            assert get_tracer() is tr
            with tr.span("inside") as span:
                assert current_span() is span
        assert get_tracer() is before

    def test_use_tracer_restores_on_exception(self):
        before = get_tracer()
        with pytest.raises(ValueError):
            with use_tracer(Tracer()):
                raise ValueError("bail")
        assert get_tracer() is before

    def test_set_tracer_round_trip(self):
        tr = Tracer()
        set_tracer(tr)
        try:
            assert get_tracer() is tr
        finally:
            set_tracer(NOOP_TRACER)
        assert get_tracer() is NOOP_TRACER


# ---------------------------------------------------------------------------
# @profiled / profile_block sugar
# ---------------------------------------------------------------------------


class TestProfiled:
    def test_profiled_records_span_when_tracing(self):
        @profiled("demo.solve")
        def solve(x):
            current_span().set(iterations=7)
            return x * 2

        tr = Tracer()
        with use_tracer(tr):
            assert solve(21) == 42
        rec = tr.records[0]
        assert rec.name == "demo.solve"
        assert rec.attrs["iterations"] == 7

    def test_profiled_is_invisible_under_noop(self):
        @profiled()
        def solve():
            current_span().set(iterations=1)
            return "ok"

        assert get_tracer() is NOOP_TRACER
        assert solve() == "ok"
        assert solve.__name__ == "solve"  # functools.wraps preserved

    def test_profile_block_names_region(self):
        tr = Tracer()
        with use_tracer(tr):
            with profile_block("qos.frame", frame=3) as span:
                span.set(rung="greedy")
        rec = tr.records[0]
        assert rec.name == "qos.frame"
        assert rec.attrs == {"frame": 3, "rung": "greedy"}

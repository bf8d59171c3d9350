"""Tests for the causal event tracer (repro.obs.trace).

Covers the tracer's clock modes, the Chrome ``trace_event`` export and
its schema validator, the interval-based overlap analytics, the ASCII
Gantt renderer, and both engines' instrumentation: the simulated engine
emits the vocabulary on sim time, the threaded engine on wall time with
one track per real thread, and both fold overlap + cost-conformance
figures into the run report.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.analysis.costs import cost_conformance
from repro.core.engine import triangulate_disk
from repro.core.threaded import triangulate_threaded
from repro.graph.generators import rmat
from repro.obs import (
    EventTracer,
    RunContext,
    RunReport,
    TraceEvent,
    ascii_gantt,
    fold_trace_analytics,
    from_chrome_trace,
    overlap_analytics,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.trace import ExternalRead, IterationTrace, RunTrace


@pytest.fixture(scope="module")
def graph():
    return rmat(256, 1024, seed=7)


class TestEventTracer:
    def test_wall_clock_stamps_implicit_events(self):
        tracer = EventTracer.wall()
        tracer.instant("buffer.hit", pid=3)
        (event,) = tracer.events()
        assert event.ts >= 0
        assert event.args == {"pid": 3}
        assert event.track == threading.current_thread().name

    def test_sim_clock_drops_implicit_events(self):
        tracer = EventTracer.sim()
        tracer.instant("buffer.hit", pid=3)  # no explicit ts: dropped
        assert len(tracer) == 0
        tracer.instant("read.submit", ts=1.5, track="sim/flash0", pid=3)
        tracer.complete("fill", 0.0, 2.0, track="sim/core0")
        assert len(tracer) == 2

    def test_disabled_tracer_records_nothing(self):
        tracer = EventTracer(enabled=False)
        tracer.instant("x")
        tracer.complete("y", 0.0, 1.0)
        with tracer.slice("z"):
            pass
        assert len(tracer) == 0

    def test_slice_measures_wall_duration(self):
        tracer = EventTracer.wall()
        with tracer.slice("fill", index=0):
            pass
        (event,) = tracer.events()
        assert event.name == "fill"
        assert event.dur is not None and event.dur >= 0
        assert event.args == {"index": 0}

    def test_slice_is_noop_on_sim_clock(self):
        tracer = EventTracer.sim()
        with tracer.slice("fill"):
            pass
        assert len(tracer) == 0

    def test_sequence_numbers_are_monotonic(self):
        tracer = EventTracer.sim()
        for i in range(5):
            tracer.complete("fill", float(i), 0.5, track="sim/core0")
        seqs = [e.seq for e in tracer.events()]
        assert seqs == sorted(seqs) and len(set(seqs)) == 5

    def test_rejects_unknown_clock(self):
        with pytest.raises(ValueError, match="clock"):
            EventTracer(clock="cpu")


def _sample_events() -> list[TraceEvent]:
    return [
        TraceEvent("read.submit", 0.5, "main", args={"req": "0:0", "pid": 9}),
        TraceEvent("read.service", 1.0, "flash0", dur=2.0,
                   args={"req": "0:0", "pid": 9}),
        TraceEvent("internal", 0.0, "core0", dur=2.0),
        TraceEvent("external", 2.0, "core0", dur=2.0),
        TraceEvent("iteration", 0.0, "run", dur=4.0),
        TraceEvent("fault.inject", 1.2, "flash0", args={"kind": "latency"}),
    ]


class TestChromeExport:
    def test_export_is_schema_valid(self):
        payload = to_chrome_trace(_sample_events())
        assert validate_chrome_trace(payload) == []

    def test_one_named_track_per_tid(self):
        payload = to_chrome_trace(_sample_events())
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert names == {"main", "flash0", "core0", "run"}
        tids = {e["tid"] for e in metadata}
        assert len(tids) == len(metadata)

    def test_timestamps_are_microseconds(self):
        payload = to_chrome_trace(_sample_events())
        service = next(e for e in payload["traceEvents"]
                       if e["name"] == "read.service")
        assert service["ts"] == pytest.approx(1.0e6)
        assert service["dur"] == pytest.approx(2.0e6)

    def test_round_trip_preserves_events(self):
        original = _sample_events()
        restored = from_chrome_trace(to_chrome_trace(original))
        assert len(restored) == len(original)
        for before, after in zip(original, restored):
            assert after.name == before.name
            assert after.track == before.track
            assert after.ts == pytest.approx(before.ts)
            if before.dur is None:
                assert after.dur is None
            else:
                assert after.dur == pytest.approx(before.dur)
            assert after.args == before.args

    def test_write_is_deterministic_bytes(self, tmp_path):
        events = _sample_events()
        a = write_chrome_trace(tmp_path / "a.json", events)
        b = write_chrome_trace(tmp_path / "b.json", events)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_validator_flags_malformed_payloads(self):
        assert validate_chrome_trace([]) == ["trace must be a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents must be a list"]
        errors = validate_chrome_trace({"traceEvents": [
            {"ph": "Q", "name": "x", "tid": 0},
            {"ph": "X", "name": "x", "tid": 0, "ts": 1.0},  # missing dur
            {"ph": "i", "name": "", "tid": 0, "ts": 1.0},
        ]})
        assert any(".ph" in e for e in errors)
        assert any(".dur" in e for e in errors)
        assert any(".name" in e for e in errors)

    def test_from_chrome_trace_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid chrome trace"):
            from_chrome_trace({"traceEvents": "nope"})


class TestOverlapAnalytics:
    def test_empty_trace_yields_zeros(self):
        stats = overlap_analytics([])
        assert stats["macro_overlap_ratio"] == 0.0
        assert stats["micro_overlap_ratio"] == 0.0
        assert stats["span"] == 0.0
        assert stats["track_utilization"] == {}

    def test_macro_overlap_hand_computed(self):
        # internal CPU on [0, 2]; read outstanding from submit 0.5 to
        # service end 3.0 -> overlap [0.5, 2] = 1.5 of 2.0 internal.
        stats = overlap_analytics(_sample_events())
        assert stats["internal_cpu_time"] == pytest.approx(2.0)
        assert stats["io_outstanding_time"] == pytest.approx(2.5)
        assert stats["macro_overlap_ratio"] == pytest.approx(1.5 / 2.0)

    def test_micro_overlap_hand_computed(self):
        # external CPU on [2, 4]; I/O outstanding [0.5, 3] -> 1.0 of 2.0.
        stats = overlap_analytics(_sample_events())
        assert stats["external_cpu_time"] == pytest.approx(2.0)
        assert stats["micro_overlap_ratio"] == pytest.approx(1.0 / 2.0)

    def test_iteration_excluded_from_utilization(self):
        stats = overlap_analytics(_sample_events())
        assert "run" not in stats["track_utilization"]
        # core0 busy on [0,2] (internal) + [2,4] (external) over span 4.
        assert stats["track_utilization"]["core0"] == pytest.approx(1.0)

    def test_service_without_submit_counts_from_service_start(self):
        events = [TraceEvent("read.service", 1.0, "flash0", dur=1.0)]
        stats = overlap_analytics(events)
        assert stats["io_outstanding_time"] == pytest.approx(1.0)

    def test_fold_lands_derived_figures(self):
        report = RunReport("fold")
        stats = fold_trace_analytics(report, _sample_events())
        assert report.derived["macro_overlap_ratio"] == \
            stats["macro_overlap_ratio"]
        assert report.derived["trace_events"] == len(_sample_events())
        assert report.derived["track_utilization"]["core0"] == \
            pytest.approx(1.0)


class TestAsciiGantt:
    def test_empty_trace(self):
        assert ascii_gantt([]) == "(empty trace)"

    def test_rows_and_busy_percentages(self):
        text = ascii_gantt(_sample_events(), width=20)
        lines = text.splitlines()
        assert "trace span" in lines[0]
        assert any(line.startswith("core0") and "100.0%" in line
                   for line in lines)
        assert any("!" in line for line in lines)  # the fault.inject marker


class TestCostConformance:
    def make_trace(self) -> RunTrace:
        trace = RunTrace(num_pages=4, m_in=2, m_ex=2)
        trace.iterations.append(IterationTrace(
            fill_reads=2, internal_page_ops=[100, 100], candidate_ops=10,
            external_reads=[ExternalRead(pid=3, cpu_ops=200)],
        ))
        return trace

    def test_conforming_measurement(self):
        from repro.analysis.costs import opt_serial_cost
        from repro.sim.costmodel import DEFAULT_COST_MODEL as COST

        trace = self.make_trace()
        predicted = opt_serial_cost(trace, COST).total * COST.op_time
        verdict = cost_conformance(trace, predicted * 1.05, COST)
        assert verdict["verdict"] == "conforms"
        assert verdict["ratio"] == pytest.approx(1.05)
        assert verdict["basis"] == "simulated"

    def test_drift_flagged_beyond_tolerance(self):
        trace = self.make_trace()
        base = cost_conformance(trace, 1.0)["predicted_elapsed"]
        verdict = cost_conformance(trace, base * 2.0)
        assert verdict["verdict"] == "drift"
        assert verdict["delta_ex_minus_in_ops"] == \
            verdict["delta_ex_ops"] - verdict["delta_in_ops"]

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            cost_conformance(self.make_trace(), 1.0, tolerance=-0.1)


class TestDiskEngineTracing:
    def test_sim_trace_vocabulary_and_report(self, graph):
        tracer = EventTracer.sim()
        report = RunReport("traced")
        result = triangulate_disk(graph, buffer_ratio=0.2, page_size=1024,
                                  ctx=RunContext(report=report, trace=tracer))
        assert result.triangles > 0
        payload = to_chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] != "M"}
        tracks = {e["tid"] for e in payload["traceEvents"] if e["ph"] != "M"}
        assert len(names) >= 5, names
        assert len(tracks) >= 2
        assert {"fill", "internal", "iteration", "read.service"} <= names
        for key in ("macro_overlap_ratio", "micro_overlap_ratio",
                    "track_utilization", "trace_span", "cost_conformance"):
            assert key in report.derived, key
        assert report.derived["cost_conformance"]["verdict"] in \
            ("conforms", "drift")
        assert report.derived["cost_conformance"]["basis"] == "simulated"
        assert report.derived["trace_events"] == len(tracer)

    def test_trace_kwarg_defaults_off(self, graph):
        result = triangulate_disk(graph, buffer_ratio=0.2, page_size=1024)
        assert "tracer" not in result.extra

    def test_disabled_tracer_is_ignored(self, graph):
        tracer = EventTracer(enabled=False)
        result = triangulate_disk(graph, buffer_ratio=0.2, page_size=1024,
                                  ctx=RunContext(trace=tracer))
        assert len(tracer) == 0
        assert "tracer" not in result.extra

    def test_sim_events_cover_every_iteration(self, graph):
        tracer = EventTracer.sim()
        result = triangulate_disk(graph, buffer_ratio=0.2, page_size=1024,
                                  ctx=RunContext(trace=tracer))
        iterations = [e for e in tracer.events() if e.name == "iteration"]
        assert len(iterations) == result.iterations
        # Iterations tile the simulated timeline back to back.
        starts = sorted(e.ts for e in iterations)
        ends = sorted(e.end for e in iterations)
        for nxt, prev_end in zip(starts[1:], ends):
            assert nxt == pytest.approx(prev_end)


class TestThreadedEngineTracing:
    def test_wall_trace_spans_threads(self, graph, tmp_path):
        tracer = EventTracer.wall()
        report = RunReport("threaded-traced")
        result = triangulate_threaded(graph, tmp_path, buffer_pages=8,
                                      page_size=1024,
                                      ctx=RunContext(report=report,
                                                     trace=tracer))
        assert result.triangles > 0
        payload = to_chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] != "M"}
        metadata = {e["args"]["name"] for e in payload["traceEvents"]
                    if e["ph"] == "M"}
        assert len(names) >= 5, names
        assert len(metadata) >= 2, metadata
        assert {"fill", "internal", "iteration", "read.submit",
                "read.service", "read.callback"} <= names
        assert any(track.startswith("ssd-") for track in metadata)
        assert report.derived["cost_conformance"]["basis"] == "wall"
        assert "macro_overlap_ratio" in report.derived
        assert "track_utilization" in report.derived

    def test_threaded_run_trace_accounts_all_reads(self, graph, tmp_path):
        tracer = EventTracer.wall()
        result = triangulate_threaded(graph, tmp_path, buffer_pages=8,
                                      page_size=1024,
                                      ctx=RunContext(trace=tracer))
        run_trace = result.extra["trace"]
        assert isinstance(run_trace, RunTrace)
        assert run_trace.total_device_reads == result.pages_read
        assert len(run_trace.iterations) == result.iterations
        assert run_trace.triangles == result.triangles

    def test_threaded_trace_json_loads(self, graph, tmp_path):
        tracer = EventTracer.wall()
        triangulate_threaded(graph, tmp_path / "run", buffer_pages=8,
                             page_size=1024, ctx=RunContext(trace=tracer))
        path = write_chrome_trace(tmp_path / "out.json", tracer)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["schema"] == "repro.obs/trace"

"""Unit tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import (
    MetricsRegistry,
    RunReport,
    SpanTracker,
    configure_logging,
    get_logger,
    validate_report_dict,
)


class TestCounters:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.value("x") == 5

    def test_interning_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("ssd.pages_read")
        b = registry.counter("ssd.pages_read")
        assert a is b
        labeled = registry.counter("ssd.pages_read", device="1")
        assert labeled is not a
        labeled.inc(2)
        assert a.value == 0 and labeled.value == 2

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_label_key_formatting(self):
        registry = MetricsRegistry()
        counter = registry.counter("triangles", phase="internal")
        assert counter.key == "triangles{phase=internal}"
        snapshot = registry.snapshot()
        assert snapshot["counters"]["triangles{phase=internal}"] == 0


class TestGauges:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.5)
        assert gauge.value == 1.5


class TestHistograms:
    def test_summary_statistics(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in [1, 2, 3, 4, 5]:
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == 15
        assert histogram.mean == 3
        assert histogram.min == 1 and histogram.max == 5
        assert histogram.percentile(50) == 3
        summary = histogram.summary()
        assert summary["count"] == 5 and summary["p50"] == 3

    def test_reservoir_bounded(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("big")
        histogram.max_samples = 10
        for value in range(100):
            histogram.observe(value)
        assert histogram.count == 100
        assert len(histogram._samples) == 10

    def test_empty_percentile(self):
        histogram = MetricsRegistry().histogram("empty")
        assert histogram.percentile(99) == 0.0

    def test_empty_summary_is_all_zeros(self):
        summary = MetricsRegistry().histogram("empty").summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["min"] is None and summary["max"] is None
        assert summary["p50"] == summary["p90"] == summary["p99"] == 0.0

    def test_single_sample_percentile_is_that_sample(self):
        histogram = MetricsRegistry().histogram("one")
        histogram.observe(7.5)
        for q in (0, 1, 50, 99, 100):
            assert histogram.percentile(q) == 7.5

    def test_percentile_rejects_out_of_range(self):
        histogram = MetricsRegistry().histogram("lat")
        histogram.observe(1.0)
        with pytest.raises(ValueError, match="percentile"):
            histogram.percentile(-1)
        with pytest.raises(ValueError, match="percentile"):
            histogram.percentile(100.5)

    def test_overflowed_reservoir_keeps_exact_extremes(self):
        """Past max_samples, percentiles degrade to the retained prefix
        but count/sum/min/max stay exact."""
        histogram = MetricsRegistry().histogram("big")
        histogram.max_samples = 8
        for value in range(100):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.sum == sum(range(100))
        assert histogram.min == 0.0 and histogram.max == 99.0
        # Percentiles come from the first 8 observations (0..7) only.
        assert histogram.percentile(100) == 7.0
        assert histogram.percentile(0) == 0.0


class TestThreadSafety:
    def test_concurrent_counter_updates_are_exact(self):
        """The SSD callback thread and main thread update one counter."""
        registry = MetricsRegistry()
        counter = registry.counter("ssd.pages_read")
        histogram = registry.histogram("ssd.queue.depth")
        per_thread, threads = 5000, 8

        def work():
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(1.0)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert counter.value == per_thread * threads
        assert histogram.count == per_thread * threads

    def test_spans_from_other_threads_do_not_corrupt_nesting(self):
        tracker = SpanTracker()
        done = threading.Event()

        def other():
            with tracker.span("other-thread"):
                pass
            done.set()

        with tracker.span("main"):
            thread = threading.Thread(target=other)
            thread.start()
            done.wait(5)
            thread.join()
            with tracker.span("child"):
                pass
        main = tracker.find("main")
        assert main.child("child") is not None
        assert main.child("other-thread") is None  # attached as its own root
        assert tracker.find("other-thread") is not None


class TestSpans:
    def test_nested_wall_timing(self):
        tracker = SpanTracker()
        with tracker.span("outer"):
            with tracker.span("inner"):
                time.sleep(0.01)
        outer = tracker.find("outer")
        inner = outer.child("inner")
        assert inner is not None
        assert inner.wall_elapsed >= 0.01
        assert outer.wall_elapsed >= inner.wall_elapsed

    def test_simulated_spans_and_total(self):
        tracker = SpanTracker()
        parent = tracker.add("simulate")
        tracker.add("fill", parent=parent, sim_elapsed=1.0)
        tracker.add("external", parent=parent, sim_elapsed=2.5)
        assert parent.total_sim() == 3.5

    def test_attrs_round_trip(self):
        tracker = SpanTracker()
        with tracker.span("phase", index=3, plugin="edge-iterator"):
            pass
        restored = SpanTracker.from_list(tracker.to_list())
        span = restored.find("phase")
        assert span.attrs == {"index": 3, "plugin": "edge-iterator"}

    def test_callback_thread_span_after_main_tree_closed(self):
        """A late span from a callback thread becomes its own root.

        The threaded SSD's callback thread can outlive the main thread's
        span tree (e.g. a read completing right at the barrier): opening
        a span there must not crash or graft onto the closed tree.
        """
        tracker = SpanTracker()
        with tracker.span("run"):
            pass  # main tree opened and closed

        errors: list[BaseException] = []

        def late_callback():
            try:
                with tracker.span("read.callback", pid=42):
                    pass
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        worker = threading.Thread(target=late_callback)
        worker.start()
        worker.join()
        assert not errors
        names = [span.name for span in tracker.roots]
        assert names == ["run", "read.callback"]
        assert tracker.find("run").child("read.callback") is None

    def test_thread_local_stacks_do_not_cross_nest(self):
        """A span opened on another thread while the main span is still
        open must not nest under it — stacks are per-thread."""
        tracker = SpanTracker()
        started = threading.Event()
        release = threading.Event()

        def worker():
            with tracker.span("worker-span"):
                started.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        with tracker.span("main-span"):
            thread.start()
            assert started.wait(timeout=5)
            release.set()
            thread.join()
        main = tracker.find("main-span")
        assert main.child("worker-span") is None
        assert {span.name for span in tracker.roots} == \
            {"main-span", "worker-span"}


class TestRunReport:
    def make_report(self) -> RunReport:
        report = RunReport("unit", meta={"dataset": "LJ"})
        report.counter("ssd.pages_read").inc(7)
        report.counter("triangles", phase="internal").inc(3)
        report.gauge("run.elapsed_simulated").set(0.5)
        report.histogram("ssd.queue.depth").observe(2)
        with report.span("run-opt"):
            report.spans.add("simulate", sim_elapsed=0.5)
        report.derive("overhead_vs_ideal", 1.04)
        return report

    def test_json_round_trip(self):
        report = self.make_report()
        text = report.to_json()
        restored = RunReport.from_json(text)
        assert restored.label == "unit"
        assert restored.meta == {"dataset": "LJ"}
        assert restored.derived["overhead_vs_ideal"] == 1.04
        assert restored.counter_value("ssd.pages_read") == 7
        assert restored.counter_value("triangles{phase=internal}") == 3
        assert restored.spans.find("simulate").sim_elapsed == 0.5
        # Serializing the deserialized report is the identity.
        assert restored.to_json() == text

    def test_summary_renders(self):
        text = self.make_report().summary()
        assert "RunReport: unit" in text
        assert "ssd.pages_read" in text
        assert "overhead_vs_ideal" in text
        assert "run-opt" in text

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="schema"):
            validate_report_dict({"schema": "wrong"})
        payload = json.loads(self.make_report().to_json())
        payload["metrics"]["counters"]["bad"] = -1
        with pytest.raises(ValueError, match="non-negative"):
            validate_report_dict(payload)
        payload = json.loads(self.make_report().to_json())
        payload["spans"][0]["name"] = ""
        with pytest.raises(ValueError, match="name"):
            validate_report_dict(payload)


class TestLogging:
    def test_get_logger_namespaces(self):
        assert get_logger("repro.core.engine").name == "repro.core.engine"
        assert get_logger("obs").name == "repro.obs"

    def test_configure_is_idempotent(self):
        root = configure_logging(1)
        handlers = list(root.handlers)
        root = configure_logging(2)
        assert root.handlers == handlers
        import logging

        assert root.level == logging.DEBUG
        configure_logging(0)


class TestVocabClosure:
    """Every vocabulary name has an emitter."""

    def test_every_vocabulary_name_has_an_emitter(self):
        """The direction the ``obs-vocab`` lint rule does not cover: a
        name nothing emits is dead vocabulary.  Every member must appear
        as a string literal in some module under ``src/repro`` or
        ``benchmarks/`` (``lint.*`` live in ``bench_lint.py``)."""
        import ast
        from pathlib import Path

        from repro.obs import METRIC_NAMES, TRACE_EVENT_NAMES

        root = Path(__file__).resolve().parents[1]
        literals: set[str] = set()
        for tree in ("src/repro", "benchmarks"):
            for path in sorted((root / tree).rglob("*.py")):
                if path.name == "vocab.py":
                    continue
                for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                    if isinstance(node, ast.Constant) \
                            and isinstance(node.value, str):
                        literals.add(node.value)
        assert sorted((METRIC_NAMES | TRACE_EVENT_NAMES) - literals) == []

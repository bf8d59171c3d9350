"""Live telemetry pipeline: sampler, determinism, heartbeats, CLI.

Four concerns, mirroring the tentpole's structure:

* :class:`TestSampler` — the :class:`~repro.obs.TelemetrySampler` unit
  contract (sim mode needs explicit timestamps, disabled samplers are
  inert, the tick window stays bounded, rates derive from counter deltas).
* :class:`TestSimDeterminism` — the headline guarantee: a sim-clock tick
  stream is byte-identical across repeat runs, and (for the parallel
  engine's merge-replay sampling) across worker counts.
* :class:`TestHeartbeats` / :class:`TestFaultMatrix` — worker heartbeats
  fold into per-worker series; an injected slow worker is flagged as a
  straggler but the run completes; an injected *stalled* worker raises
  :class:`~repro.errors.ParallelError` well before the run would have
  hung at join.  Plus the resource-hygiene gates: no fd and no /dev/shm
  growth with the heartbeat channel enabled.
* :class:`TestCli` — the ``--telemetry`` CLI surface.
"""

from __future__ import annotations

import gc
import json
import os

import pytest

from repro.errors import ConfigurationError, ParallelError
from repro.obs import (
    MetricsRegistry,
    RunContext,
    RunReport,
    TelemetrySampler,
    fold_telemetry,
)
from repro.parallel import StragglerPolicy, triangulate_parallel

WORKER_COUNTS = (1, 2, 4)


def _sampled_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("parallel.ops").inc(10)
    registry.gauge("buffer.resident").set(4.0)
    registry.histogram("parallel.chunk.elapsed").observe(0.5)
    return registry


class TestSampler:
    def test_sim_clock_requires_explicit_now(self):
        sampler = TelemetrySampler(_sampled_registry(), clock="sim")
        with pytest.raises(ValueError, match="explicit sample time"):
            sampler.sample()
        tick = sampler.sample(0.0)
        assert tick["t"] == 0.0 and tick["seq"] == 0

    def test_unbound_sampler_raises(self):
        with pytest.raises(ValueError, match="no registry"):
            TelemetrySampler(clock="wall").sample()

    def test_disabled_sampler_is_inert(self):
        sampler = TelemetrySampler(_sampled_registry(), clock="sim",
                                   enabled=False)
        assert sampler.sample(0.0) == {}
        assert sampler.maybe_sample(1.0) is None
        assert len(sampler) == 0
        assert sampler.to_jsonl() == ""

    def test_ring_buffers_stay_bounded(self):
        registry = _sampled_registry()
        sampler = TelemetrySampler(registry, clock="sim", capacity=8)
        for i in range(50):
            sampler.sample(float(i))
        assert len(sampler) == 8
        assert sampler.ticks()[0]["t"] == 42.0  # oldest retained

    def test_sample_count_is_taken_not_retained(self):
        import io

        report = RunReport("telemetry-count")
        stream = io.StringIO()
        sampler = TelemetrySampler(report.registry, clock="sim", capacity=8,
                                   stream=stream)
        for i in range(50):
            sampler.sample(float(i))
        assert len(stream.getvalue().splitlines()) == 50
        assert report.registry.counter("telemetry.samples").value == 50
        assert len(sampler) == len(sampler.ticks()) == 8
        assert sampler.samples == 50
        assert fold_telemetry(report, sampler)["samples"] == 50

    def test_counter_rates_from_deltas(self):
        registry = MetricsRegistry()
        ops = registry.counter("parallel.ops")
        sampler = TelemetrySampler(registry, clock="sim")
        ops.inc(10)
        sampler.sample(0.0)
        ops.inc(30)
        tick = sampler.sample(2.0)
        assert tick["counters"]["parallel.ops"] == 40
        assert tick["rates"]["parallel.ops"] == pytest.approx(15.0)

    def test_maybe_sample_rate_limits(self):
        sampler = TelemetrySampler(_sampled_registry(), clock="sim",
                                   interval=1.0)
        assert sampler.maybe_sample(0.0) is not None
        assert sampler.maybe_sample(0.5) is None  # under the interval
        assert sampler.maybe_sample(1.5) is not None

    def test_histogram_percentiles_on_ticks(self):
        registry = MetricsRegistry()
        hist = registry.histogram("parallel.chunk.elapsed")
        for value in range(100):
            hist.observe(float(value))
        tick = TelemetrySampler(registry, clock="sim").sample(0.0)
        summary = tick["histograms"]["parallel.chunk.elapsed"]
        assert summary["count"] == 100
        assert summary["p50"] == 50.0  # nearest-rank over 0..99
        assert summary["p99"] == 98.0

    def test_finish_emits_final_marker(self):
        sampler = TelemetrySampler(_sampled_registry(), clock="sim")
        sampler.sample(0.0)
        sampler.sample(1.0)
        tick = sampler.finish()
        assert tick["final"] is True
        assert tick["t"] == 2.0  # one ordinal past the last sample

    def test_fold_telemetry_lands_in_derived(self):
        report = RunReport("telemetry-fold")
        sampler = TelemetrySampler(report.registry, clock="sim")
        report.registry.counter("parallel.ops").inc(3)
        sampler.sample(0.0)
        payload = fold_telemetry(report, sampler)
        assert report.to_dict()["derived"]["telemetry"] == payload
        assert payload["samples"] == 1
        assert payload["series"]["parallel.ops"] == 3.0


class TestSimDeterminism:
    """Byte-identical JSONL: the sim-clock stream is a pure function of
    the workload — across repeat runs and across worker counts."""

    @staticmethod
    def _disk_jsonl(graph) -> str:
        from repro.core import make_store, triangulate_disk

        sampler = TelemetrySampler(clock="sim")
        triangulate_disk(make_store(graph, 1024), buffer_ratio=0.2,
                         ctx=RunContext(telemetry=sampler))
        sampler.finish()
        return sampler.to_jsonl()

    def test_disk_stream_identical_across_repeat_runs(self, small_rmat_ordered):
        first = self._disk_jsonl(small_rmat_ordered)
        second = self._disk_jsonl(small_rmat_ordered)
        assert first and first == second
        # One opening tick, one per iteration, one final marker.
        ticks = [json.loads(line) for line in first.splitlines()]
        assert ticks[0]["t"] == 0.0
        assert ticks[-1]["final"] is True

    @staticmethod
    def _parallel_jsonl(graph, workers: int) -> str:
        sampler = TelemetrySampler(clock="sim")
        triangulate_parallel(graph, workers=workers, chunks=8,
                             ctx=RunContext(telemetry=sampler))
        sampler.finish()
        return sampler.to_jsonl()

    def test_parallel_stream_identical_across_worker_counts(self, clustered_graph):
        streams = {w: self._parallel_jsonl(clustered_graph, w)
                   for w in WORKER_COUNTS}
        assert len(set(streams.values())) == 1
        assert streams[1]  # non-empty

    def test_parallel_stream_identical_across_repeat_runs(self, clustered_graph):
        first = self._parallel_jsonl(clustered_graph, 2)
        second = self._parallel_jsonl(clustered_graph, 2)
        assert first == second


class TestHeartbeats:
    def test_live_run_folds_worker_sections(self, clustered_graph):
        """A wall-clock sampler on the parallel engine yields ticks with
        a per-worker ``workers`` section and heartbeat counters."""
        report = RunReport("heartbeat-live")
        sampler = TelemetrySampler(clock="wall", interval=0.01)
        triangulate_parallel(clustered_graph, workers=2, chunks=8,
                             ctx=RunContext(report=report, telemetry=sampler))
        sampler.finish()
        ticks = sampler.ticks()
        assert ticks, "wall sampler recorded nothing"
        last = ticks[-1]
        workers = last["workers"]
        assert set(workers["per"]) == {"0", "1"}
        assert workers["total_chunks"] == 8
        assert workers["chunks_done"] == 8
        assert all(state["status"] == "done"
                   for state in workers["per"].values())
        assert report.registry.value("parallel.heartbeats") > 0

    def test_report_count_beats_a_late_heartbeat(self):
        """A worker's last beat can arrive after its report: the report's
        chunk count stands, and a beat arriving later never lowers it."""
        from repro.parallel.heartbeat import Heartbeat, HeartbeatMonitor

        monitor = HeartbeatMonitor(StragglerPolicy(), workers=2,
                                   total_chunks=8)
        monitor.observe(Heartbeat(0, chunks_done=1, ts=0.01, done=True))
        monitor.observe(Heartbeat(1, chunks_done=6, ts=0.02))  # stale
        monitor.mark_done(0, chunks_done=1)
        monitor.mark_done(1, chunks_done=7)  # the report arrives first
        assert monitor.chunks_done() == 8 and monitor.all_done()
        monitor.observe(Heartbeat(1, chunks_done=6, ts=0.03))  # late
        assert monitor.chunks_done() == 8 and monitor.all_done()
        assert monitor.provider(0.04)["chunks_done"] == 8

    def test_plain_run_has_no_heartbeat_counters(self, clustered_graph):
        """Without telemetry or a straggler policy the heartbeat channel
        stays out of the run entirely (the determinism-critical path)."""
        report = RunReport("heartbeat-off")
        triangulate_parallel(clustered_graph, workers=2,
                             ctx=RunContext(report=report))
        assert report.registry.value("parallel.heartbeats") == 0

    @pytest.mark.parametrize("workers", (1, 4))
    def test_no_fd_leak_with_heartbeats(self, clustered_graph, workers):
        """The heartbeat queue and telemetry add no lingering fds."""
        policy = StragglerPolicy(poll_interval=0.01)
        sampler = TelemetrySampler(clock="wall", interval=0.01)
        triangulate_parallel(clustered_graph, workers=workers, chunks=8,
                             straggler=policy,  # warm-up
                             ctx=RunContext(telemetry=sampler))
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            sampler = TelemetrySampler(clock="wall", interval=0.01)
            triangulate_parallel(clustered_graph, workers=workers, chunks=8,
                                 straggler=policy,
                                 ctx=RunContext(telemetry=sampler))
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) <= before

    def test_no_dev_shm_leak_with_heartbeats(self, clustered_graph):
        before = set(os.listdir("/dev/shm"))
        policy = StragglerPolicy(poll_interval=0.01)
        for _ in range(2):
            triangulate_parallel(clustered_graph, workers=2, chunks=8,
                                 straggler=policy)
        assert set(os.listdir("/dev/shm")) <= before


class TestFaultMatrix:
    def test_slow_worker_flagged_but_run_completes(self, clustered_graph):
        """A worker made modestly slow is flagged as a straggler while
        the run still finishes with the right answer."""
        policy = StragglerPolicy(poll_interval=0.02, fraction=0.6,
                                 min_chunks=1, grace=0.0,
                                 inject_worker=1, inject_chunk_delay=0.05)
        report = RunReport("fault-slow")
        result = triangulate_parallel(clustered_graph, workers=3, chunks=12,
                                      straggler=policy,
                                      ctx=RunContext(report=report))
        reference = triangulate_parallel(clustered_graph, workers=3, chunks=12)
        assert result.triangles == reference.triangles
        assert report.registry.value("parallel.straggler") >= 1

    def test_idle_finished_worker_does_not_mask_a_straggler(self):
        """One worker drained every chunk, one found the queue empty and
        left, one is stalled: the idle finisher's 0 must not pull the
        median to 0 and hide the stalled worker."""
        from repro.parallel.heartbeat import Heartbeat, HeartbeatMonitor

        policy = StragglerPolicy(fraction=0.6, min_chunks=1, grace=0.0)
        registry = MetricsRegistry()
        monitor = HeartbeatMonitor(policy, workers=3, total_chunks=12,
                                   registry=registry)
        monitor.observe(Heartbeat(0, chunks_done=12, ts=0.01, done=True))
        monitor.observe(Heartbeat(1, ts=0.001))
        monitor.observe(Heartbeat(2, ts=0.002))
        # Worker 2 may still be about to fetch: two of three at 0, no flag.
        assert monitor.check(0.02) == []
        monitor.mark_done(2)
        assert monitor.check(0.03) == [1]
        assert monitor.flagged == frozenset({1})
        assert registry.value("parallel.straggler") == 1

    def test_stalled_worker_raises_before_join(self, clustered_graph):
        """A worker stalled far past the deadline surfaces a timely
        ParallelError instead of hanging the parent at join."""
        import time

        policy = StragglerPolicy(poll_interval=0.02, deadline=0.25,
                                 inject_worker=1, inject_chunk_delay=30.0)
        report = RunReport("fault-stall")
        start = time.perf_counter()
        with pytest.raises(ParallelError, match="no heartbeat"):
            triangulate_parallel(clustered_graph, workers=3, chunks=12,
                                 straggler=policy,
                                 ctx=RunContext(report=report))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"detection took {elapsed:.1f}s"
        assert report.registry.value("parallel.straggler") >= 1

    def test_stalled_worker_leaves_no_shm(self, clustered_graph):
        before = set(os.listdir("/dev/shm"))
        policy = StragglerPolicy(poll_interval=0.02, deadline=0.2,
                                 inject_worker=1, inject_chunk_delay=30.0)
        with pytest.raises(ParallelError):
            triangulate_parallel(clustered_graph, workers=2, chunks=8,
                                 straggler=policy)
        assert set(os.listdir("/dev/shm")) <= before

    def test_stalling_the_caller_is_refused(self, clustered_graph):
        """Worker 0 is the caller, which also runs the detections: a
        stall there could never be noticed, so the engine refuses it
        before it forks, and releases the segment."""
        before = set(os.listdir("/dev/shm"))
        policy = StragglerPolicy(deadline=0.2, inject_worker=0,
                                 inject_chunk_delay=30.0)
        with pytest.raises(ConfigurationError, match="inject_worker=0"):
            triangulate_parallel(clustered_graph, workers=2, chunks=8,
                                 straggler=policy)
        assert set(os.listdir("/dev/shm")) <= before
        # Nothing is forked with one worker, so there is no one to stall.
        assert triangulate_parallel(clustered_graph, workers=1, chunks=8,
                                    straggler=policy).triangles > 0


class TestThreadedTelemetry:
    def test_threaded_engine_samples_wall_ticks(self, small_rmat_ordered, tmp_path):
        from repro.core import make_store, triangulate_threaded

        store = make_store(small_rmat_ordered, 1024)
        sampler = TelemetrySampler(clock="wall", interval=0.0001)
        triangulate_threaded(store, tmp_path / "pages", buffer_pages=8,
                             page_size=1024, ctx=RunContext(telemetry=sampler))
        sampler.finish()
        assert len(sampler) >= 2
        assert sampler.ticks()[-1]["final"] is True

    def test_threaded_engine_rejects_sim_sampler(self, small_rmat_ordered, tmp_path):
        from repro.core import make_store, triangulate_threaded

        store = make_store(small_rmat_ordered, 1024)
        with pytest.raises(ConfigurationError, match="wall"):
            triangulate_threaded(store, tmp_path / "pages", buffer_pages=8,
                                 page_size=1024, ctx=RunContext(
                                     telemetry=TelemetrySampler(clock="sim")))


class TestCli:
    def test_triangulate_telemetry_stream(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_edge_list
        from repro.graph import generators

        graph = generators.erdos_renyi(120, 600, seed=3)
        graph_path = tmp_path / "g.txt"
        write_edge_list(graph, graph_path)
        out = tmp_path / "ticks.jsonl"
        assert main(["triangulate", "--input", str(graph_path),
                     "--method", "opt", "--telemetry", str(out)]) == 0
        ticks = [json.loads(line)
                 for line in out.read_text(encoding="utf-8").splitlines()]
        assert ticks and ticks[-1]["final"] is True
        assert (f"wrote {len(ticks)} telemetry samples"
                in capsys.readouterr().out)

    def test_telemetry_rejects_in_memory_methods(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_edge_list
        from repro.graph import generators

        graph_path = tmp_path / "g.txt"
        write_edge_list(generators.erdos_renyi(50, 200, seed=1), graph_path)
        code = main(["triangulate", "--input", str(graph_path),
                     "--method", "forward",
                     "--telemetry", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "--telemetry applies" in capsys.readouterr().err

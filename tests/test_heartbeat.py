"""Worker heartbeats: the straggler and hang checks of the process pool.

* :class:`TestHeartbeats` — a ``straggler=`` policy opens the heartbeat
  channel and beats are counted; a plain run opens none; a beat that
  arrives after its worker's report never rolls progress back; and the
  resource-hygiene gates: no fd and no /dev/shm growth with the channel
  open.
* :class:`TestFaultMatrix` — an injected slow worker is flagged as a
  straggler but the run completes; an injected *stalled* worker raises
  :class:`~repro.errors.ParallelError` well before the run would have
  hung at join; stalling the caller is refused.
* :func:`test_policy_refuses_a_value_that_breaks_a_run` — a
  :class:`StragglerPolicy` that would fail or spin a healthy run is
  refused when it is built, before anything is forked.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.errors import ConfigurationError, ParallelError
from repro.graph import generators
from repro.obs import MetricsRegistry, RunContext, RunReport
from repro.parallel import StragglerPolicy, triangulate_parallel
from repro.parallel.heartbeat import Heartbeat, HeartbeatMonitor


class TestHeartbeats:
    def test_policy_run_counts_heartbeats(self, clustered_graph):
        """A straggler policy alone switches the channel on: every
        forked worker's beats reach the report."""
        report = RunReport("heartbeat-on")
        result = triangulate_parallel(clustered_graph, workers=2, chunks=8,
                                      straggler=StragglerPolicy(),
                                      ctx=RunContext(report=report))
        assert report.registry.value("parallel.heartbeats") > 0
        reference = triangulate_parallel(clustered_graph, workers=2, chunks=8)
        assert result.triangles == reference.triangles

    def test_report_count_beats_a_late_heartbeat(self):
        """A worker's last beat can arrive after its report: the report's
        chunk count stands, and a beat arriving later never lowers it."""
        monitor = HeartbeatMonitor(StragglerPolicy(), workers=2)
        monitor.observe(Heartbeat(0, chunks_done=1, ts=0.01, done=True))
        monitor.observe(Heartbeat(1, chunks_done=6, ts=0.02))  # stale
        monitor.mark_done(0, chunks_done=1)
        monitor.mark_done(1, chunks_done=7)  # the report arrives first
        assert monitor.chunks_done() == 8 and monitor.all_done()
        monitor.observe(Heartbeat(1, chunks_done=6, ts=0.03))  # late
        assert monitor.chunks_done() == 8 and monitor.all_done()

    def test_plain_run_has_no_heartbeat_counters(self, clustered_graph):
        """Without a straggler policy the heartbeat channel stays out of
        the run entirely (the determinism-critical path)."""
        report = RunReport("heartbeat-off")
        triangulate_parallel(clustered_graph, workers=2,
                             ctx=RunContext(report=report))
        assert report.registry.value("parallel.heartbeats") == 0

    @pytest.mark.parametrize("workers", (1, 4))
    def test_no_fd_leak_with_heartbeats(self, clustered_graph, workers):
        """The workers' pipes, which carry the beats, leave no fd open."""
        policy = StragglerPolicy(poll_interval=0.01)
        triangulate_parallel(clustered_graph, workers=workers, chunks=8,
                             straggler=policy)  # warm-up
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            triangulate_parallel(clustered_graph, workers=workers, chunks=8,
                                 straggler=policy)
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
        policy = StragglerPolicy(fraction=0.6, min_chunks=1, grace=0.0)
        registry = MetricsRegistry()
        monitor = HeartbeatMonitor(policy, workers=3, registry=registry)
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


@pytest.mark.parametrize("field, value", [
    ("deadline", 0.0),
    ("deadline", -1.0),
    ("poll_interval", 0.0),
    ("poll_interval", -0.5),
    ("grace", -0.1),
    ("fraction", -0.1),
    ("fraction", 1.5),
    ("fraction", float("nan")),
    ("min_chunks", -1),
    ("inject_chunk_delay", -0.01),
])
def test_policy_refuses_a_value_that_breaks_a_run(field, value):
    """``deadline=0`` used to fail a healthy run, blaming the caller that
    runs the check, and a non-positive ``poll_interval`` made the
    caller's waits return at once, so it spun.  Each is refused when
    the policy is built, naming the field; nothing is forked and
    /dev/shm is unchanged."""
    before = set(os.listdir("/dev/shm"))
    with pytest.raises(ConfigurationError, match=rf"StragglerPolicy\.{field}="):
        triangulate_parallel(generators.erdos_renyi(400, 4000, seed=1),
                             workers=2, chunks=8,
                             straggler=StragglerPolicy(**{field: value}))
    assert set(os.listdir("/dev/shm")) == before

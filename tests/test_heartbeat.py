"""Worker heartbeats: the hang check of the process pool.

* :class:`TestHeartbeats` — a ``straggler=`` policy opens the heartbeat
  channel and beats are counted; a plain run opens none; a beat that
  arrives after its worker's report never makes the worker live again;
  and the resource-hygiene gates: no fd and no /dev/shm growth with the
  channel open.
* :class:`TestFaultMatrix` — an injected slow worker finishes the run
  with the right answer; an injected *stalled* worker raises
  :class:`~repro.errors.ParallelError` naming it well before the run
  would have hung at join; stalling the caller is refused.
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
from repro.obs import RunContext, RunReport
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

    def test_a_beat_after_the_report_never_reopens_the_worker(self):
        """A worker's last beat can be read after its report: the worker
        stays done, so its silence from then on never fails the run,
        while a live peer's still does."""
        monitor = HeartbeatMonitor(StragglerPolicy(deadline=1.0), workers=3)
        monitor.observe(Heartbeat(0, chunks_done=1, ts=0.01, done=True))
        monitor.mark_done(1)  # the report arrives first
        monitor.observe(Heartbeat(1, chunks_done=6, ts=0.02))  # late
        monitor.observe(Heartbeat(2, chunks_done=2, ts=0.03))
        monitor.check(1.0)
        with pytest.raises(ParallelError, match=r"worker w2 "):
            monitor.check(5.0)

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
        """A worker made modestly slow, well inside the deadline, slows
        the run but does not fail it: the run finishes with the right
        answer, and no straggler signal is recorded."""
        policy = StragglerPolicy(poll_interval=0.02, deadline=5.0,
                                 inject_worker=1, inject_chunk_delay=0.05)
        report = RunReport("fault-slow")
        result = triangulate_parallel(clustered_graph, workers=3, chunks=12,
                                      straggler=policy,
                                      ctx=RunContext(report=report))
        reference = triangulate_parallel(clustered_graph, workers=3, chunks=12)
        assert result.triangles == reference.triangles
        assert report.registry.value("parallel.heartbeats") > 0
        assert not any(key.startswith("parallel.straggler")
                       for key in report.registry.snapshot()["counters"])

    def test_stalled_worker_raises_before_join(self, clustered_graph):
        """A worker stalled far past the deadline surfaces a timely
        ParallelError instead of hanging the parent at join."""
        import time

        policy = StragglerPolicy(poll_interval=0.02, deadline=0.25,
                                 inject_worker=1, inject_chunk_delay=30.0)
        report = RunReport("fault-stall")
        start = time.perf_counter()
        with pytest.raises(ParallelError,
                           match=r"worker w1 has sent no heartbeat"):
            triangulate_parallel(clustered_graph, workers=3, chunks=12,
                                 straggler=policy,
                                 ctx=RunContext(report=report))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"detection took {elapsed:.1f}s"

    def test_stalled_worker_leaves_no_shm(self, clustered_graph):
        before = set(os.listdir("/dev/shm"))
        policy = StragglerPolicy(poll_interval=0.02, deadline=0.2,
                                 inject_worker=1, inject_chunk_delay=30.0)
        with pytest.raises(ParallelError):
            triangulate_parallel(clustered_graph, workers=2, chunks=8,
                                 straggler=policy)
        assert set(os.listdir("/dev/shm")) <= before

    def test_stalling_the_caller_is_refused(self, clustered_graph):
        """Worker 0 is the caller, which also runs the check: a
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

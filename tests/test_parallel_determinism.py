"""Determinism gates for the process-parallel engine.

The merge step promises that everything *semantic* about a run — the
triangle listing (including its emission order), the op counts, the
merged metric counters — is a pure function of the graph, independent
of worker count, chunk scheduling, and OS timing.  Only the explicitly
scheduling-dependent figures (``parallel.steals``, the wall-clock
gauges) may vary, and this module pins exactly that boundary.

It also proves the shared-memory lifecycle: segments are visible in
``/dev/shm`` only while a publisher holds them, and every code path —
success, worker crash, a publish that fails half-way, publisher
context exit — leaves the directory
exactly as it found it.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, ParallelError
from repro.graph.graph import Graph
from repro.memory.base import CollectSink
from repro.obs import RunContext, RunReport
from repro.parallel import CSRHandle, SharedCSR, shm, triangulate_parallel

pytestmark = pytest.mark.parallel

WORKER_COUNTS = (1, 2, 4)

#: Metric keys that legitimately depend on scheduling or configuration;
#: everything else in a merged snapshot must be byte-identical across
#: worker counts and runs.
SCHEDULING_DEPENDENT = {"parallel.steals", "parallel.workers",
                        "run.elapsed_wall"}


def canonical_snapshot(report: RunReport) -> dict:
    """Counters/gauges minus the documented scheduling-dependent keys."""
    snapshot = report.registry.snapshot()
    return {
        kind: {
            key: value
            for key, value in sorted(snapshot[kind].items())
            if key.split("{")[0] not in SCHEDULING_DEPENDENT
        }
        for kind in ("counters", "gauges")
    }


def run_once(graph, workers, chunks=None):
    sink = CollectSink()
    report = RunReport("determinism")
    result = triangulate_parallel(graph, workers=workers, chunks=chunks,
                                  sink=sink, ctx=RunContext(report=report))
    return result, sink, report


class TestOutputDeterminism:
    def test_byte_identical_listing_across_worker_counts(self, clustered_graph):
        """Sorted listing AND raw emission order match byte-for-byte."""
        payloads = []
        for workers in WORKER_COUNTS:
            _, sink, _ = run_once(clustered_graph, workers)
            payloads.append({
                "emitted": [list(t) for t in sink.triangles],
                "sorted": [list(t) for t in sorted(sink.triangles)],
            })
        blobs = [json.dumps(p, sort_keys=True).encode() for p in payloads]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_byte_identical_listing_across_repeat_runs(self, small_rmat):
        blobs = []
        for _ in range(2):
            _, sink, _ = run_once(small_rmat, 2)
            blobs.append(json.dumps(sink.triangles).encode())
        assert blobs[0] == blobs[1]

    def test_op_totals_identical_across_worker_counts(self, clustered_graph):
        results = [run_once(clustered_graph, workers)[0]
                   for workers in WORKER_COUNTS]
        assert len({r.cpu_ops for r in results}) == 1
        assert len({r.triangles for r in results}) == 1


class TestMetricsDeterminism:
    def test_merged_metrics_equal_across_worker_counts(self, clustered_graph):
        # Pin the chunk plan: the default count derives from the worker
        # count, and `parallel.chunks` honestly reports it.  With the plan
        # fixed, every remaining counter must be identical.
        snapshots = [canonical_snapshot(run_once(clustered_graph, w,
                                                 chunks=8)[2])
                     for w in WORKER_COUNTS]
        assert snapshots[0] == snapshots[1] == snapshots[2]
        # and the filtered view still carries the semantic counters
        assert "parallel.ops" in snapshots[0]["counters"]
        assert "triangles{phase=parallel}" in snapshots[0]["counters"]

    def test_merged_metrics_equal_across_repeat_runs(self, small_rmat):
        first = canonical_snapshot(run_once(small_rmat, 4)[2])
        second = canonical_snapshot(run_once(small_rmat, 4)[2])
        assert first == second

    def test_steal_counter_consistency(self, clustered_graph):
        """Steals vary run to run, but always equal the executed_by audit."""
        result, _, report = run_once(clustered_graph, 2)
        parallel = result.extra["parallel"]
        audited = sum(1 for i, wid in enumerate(parallel.executed_by)
                      if wid != i % parallel.workers)
        assert parallel.steals == audited
        snapshot = report.registry.snapshot()
        assert snapshot["counters"]["parallel.steals"] == audited


class TestSharedMemoryLifecycle:
    def graph(self):
        indptr = np.array([0, 2, 4, 6], dtype=np.int64)
        indices = np.array([1, 2, 0, 2, 0, 1], dtype=np.int64)
        return Graph(indptr, indices)

    def test_segments_visible_then_unlinked(self):
        shared = SharedCSR.publish(self.graph())
        names = [name.lstrip("/") for name in shared.segment_names]
        for name in names:
            assert os.path.exists(f"/dev/shm/{name}")
        shared.close()
        shared.unlink()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_context_manager_unlinks(self):
        with SharedCSR.publish(self.graph()) as shared:
            names = [name.lstrip("/") for name in shared.segment_names]
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_attach_roundtrip_is_zero_copy_and_closes(self):
        publisher = SharedCSR.publish(self.graph())
        try:
            attached = SharedCSR.attach(publisher.handle)
            np.testing.assert_array_equal(attached.indptr, publisher.indptr)
            np.testing.assert_array_equal(attached.indices,
                                          publisher.indices)
            assert attached.graph().num_vertices == 3
            attached.close()  # attacher close must not unlink
            name = publisher.segment_names[0].lstrip("/")
            assert os.path.exists(f"/dev/shm/{name}")
            with pytest.raises(ConfigurationError):
                attached.unlink()  # only the owner may unlink
        finally:
            publisher.close()
            publisher.unlink()

    def test_views_are_read_only(self):
        with SharedCSR.publish(self.graph()) as shared:
            with pytest.raises(ValueError):
                shared.indptr[0] = 99

    def test_closed_handle_refuses_views(self):
        shared = SharedCSR.publish(self.graph())
        shared.close()
        with pytest.raises(ConfigurationError):
            _ = shared.indptr
        shared.close()  # idempotent
        shared.unlink()

    def test_partial_publish_unlinks_what_it_allocated(self, monkeypatch):
        """A publish whose second segment fails leaves /dev/shm as it
        found it, and the typed error reaches the caller."""
        copy_into_segment = shm._copy_into_segment
        made = []

        def copy_then_fail(array):
            if made:
                raise ParallelError("second segment refused")
            made.append(copy_into_segment(array))
            return made[-1]

        monkeypatch.setattr(shm, "_copy_into_segment", copy_then_fail)
        before = set(os.listdir("/dev/shm"))
        with pytest.raises(ParallelError, match="second segment refused"):
            SharedCSR.publish(self.graph())
        assert len(made) == 1
        assert not os.path.exists(f"/dev/shm/{made[0].name.lstrip('/')}")
        assert set(os.listdir("/dev/shm")) <= before

    def test_attach_to_missing_segment_fails_cleanly(self):
        handle = CSRHandle(indptr_name="repro-nonexistent-a",
                           indices_name="repro-nonexistent-b",
                           indptr_len=1, indices_len=0)
        with pytest.raises(FileNotFoundError):
            SharedCSR.attach(handle)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_no_dev_shm_leak_after_runs(self, clustered_graph, workers):
        """The headline guarantee: /dev/shm is unchanged by a full run."""
        before = set(os.listdir("/dev/shm"))
        for _ in range(2):
            triangulate_parallel(clustered_graph, workers=workers)
        assert set(os.listdir("/dev/shm")) <= before

    def test_empty_graph_segments_roundtrip(self):
        """Zero-length arrays still publish (1-byte floor) and unlink."""
        empty = Graph(np.zeros(1, dtype=np.int64),
                      np.array([], dtype=np.int64))
        with SharedCSR.publish(empty) as shared:
            names = [name.lstrip("/") for name in shared.segment_names]
            attached = SharedCSR.attach(shared.handle)
            assert len(attached.indices) == 0
            assert attached.graph().num_vertices == 0
            attached.close()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

"""Tests for the nested-output reader and the run checkpoint."""

from __future__ import annotations

import io

import pytest

from repro.analysis.costs import cost_conformance
from repro.core import NestedOutputWriter, triangulate_disk
from repro.core.result_store import read_nested_groups
from repro.errors import GraphFormatError
from repro.graph.metrics import per_vertex_triangles, trigonal_connectivity
from repro.memory import edge_iterator
from repro.obs import RunContext, RunReport


class TestReader:
    def test_round_trip_stream(self):
        stream = io.BytesIO()
        writer = NestedOutputWriter(stream, page_size=64)
        writer.emit(0, 1, [2, 3])
        writer.emit(4, 5, [9])
        writer.close()
        stream.seek(0)
        groups = list(read_nested_groups(stream))
        assert groups == [(0, 1, [2, 3]), (4, 5, [9])]

    def test_round_trip_file(self, tmp_path, small_rmat_ordered):
        path = tmp_path / "triangles.nested"
        with NestedOutputWriter(path) as writer:
            result = triangulate_disk(small_rmat_ordered, page_size=256,
                                      buffer_pages=6, sink=writer)
        total = sum(len(ws) for _, _, ws in read_nested_groups(path))
        assert total == result.triangles

    def test_truncated_header_rejected(self):
        stream = io.BytesIO(b"\x01\x02\x03")
        with pytest.raises(GraphFormatError):
            list(read_nested_groups(stream))

    def test_truncated_body_rejected(self):
        stream = io.BytesIO()
        writer = NestedOutputWriter(stream)
        writer.emit(0, 1, [2, 3, 4])
        writer.close()
        data = stream.getvalue()[:-2]
        with pytest.raises(GraphFormatError):
            list(read_nested_groups(io.BytesIO(data)))

    def test_empty_file(self):
        assert list(read_nested_groups(io.BytesIO())) == []


class TestRunCheckpoint:
    """Iteration-level checkpoint/resume (see docs/robustness.md)."""

    def _checkpointed_run(self, graph, checkpoint):
        from repro.memory.base import CollectSink

        sink = CollectSink()
        triangulate_disk(graph, page_size=256, buffer_pages=4, sink=sink,
                         ctx=RunContext(checkpoint=checkpoint))
        return sorted(sink.triangles)

    def test_resume_replays_exact_output(self, small_rmat_ordered, tmp_path):
        from repro.core import RunCheckpoint

        first = RunCheckpoint()
        expected = self._checkpointed_run(small_rmat_ordered, first)
        assert len(first.committed()) > 1
        path = first.save(tmp_path / "run.ckpt.json")
        resumed = RunCheckpoint.load(path)
        replayed = self._checkpointed_run(small_rmat_ordered, resumed)
        assert replayed == expected

    def test_partial_checkpoint_resumes_midway(self, small_rmat_ordered):
        from repro.core import RunCheckpoint

        full = RunCheckpoint()
        expected = self._checkpointed_run(small_rmat_ordered, full)
        # Drop the tail half of the committed iterations: the resumed run
        # replays the head and re-triangulates only the tail.
        partial = RunCheckpoint.from_dict(full.to_dict())
        committed = partial.committed()
        for index in committed[len(committed) // 2:]:
            del partial._iterations[index]
        replayed = self._checkpointed_run(small_rmat_ordered, partial)
        assert replayed == expected
        assert partial.committed() == committed

    def test_geometry_mismatch_rejected(self, small_rmat_ordered, figure1):
        from repro.core import RunCheckpoint
        from repro.errors import CheckpointError

        checkpoint = RunCheckpoint()
        self._checkpointed_run(small_rmat_ordered, checkpoint)
        with pytest.raises(CheckpointError):
            self._checkpointed_run(figure1, checkpoint)

    def test_double_commit_rejected(self):
        from repro.core import RunCheckpoint
        from repro.errors import CheckpointError

        checkpoint = RunCheckpoint()
        checkpoint.record(0, 0, 3, [(0, 1, [2])])
        with pytest.raises(CheckpointError):
            checkpoint.record(0, 0, 3, [(0, 1, [2])])

    def test_bad_payload_rejected(self):
        from repro.core import RunCheckpoint
        from repro.errors import CheckpointError

        with pytest.raises(CheckpointError):
            RunCheckpoint.from_dict({"schema": "something/else"})
        with pytest.raises(CheckpointError):
            RunCheckpoint.from_dict({
                "schema": "repro.core/run-checkpoint", "version": 99,
            })

    def test_resume_under_faults_reproduces_the_run(self, small_rmat_ordered):
        """The checkpoint is the one serialiser of a ``RunTrace``: a run
        under injected faults, resumed from its checkpoint's dict form,
        bills the same pages and seconds, fault delays included."""
        import json

        from repro.core import RunCheckpoint
        from repro.memory.base import CollectSink
        from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy

        specs = [FaultSpec("latency", rate=0.5, times=1, delay=0.01),
                 FaultSpec("transient", rate=0.5, times=1)]
        policy = RetryPolicy(max_retries=3, backoff_base=0.001)

        def run(checkpoint):
            return triangulate_disk(
                small_rmat_ordered, page_size=256, buffer_pages=4,
                sink=CollectSink(),
                ctx=RunContext(fault_plan=FaultPlan(specs, seed=3),
                               retry_policy=policy, checkpoint=checkpoint))

        first = RunCheckpoint()
        whole = run(first)
        trace = whole.extra["trace"]
        assert any(it.fill_delay > 0 for it in trace.iterations)
        assert any(read.delay > 0 for it in trace.iterations
                   for read in it.external_reads)
        resumed = run(RunCheckpoint.from_dict(
            json.loads(json.dumps(first.to_dict()))))
        assert resumed.elapsed == whole.elapsed
        assert resumed.pages_read == whole.pages_read
        assert resumed.iterations == whole.iterations
        assert resumed.extra["trace"] == trace

    def test_threaded_engine_checkpoints_too(self, small_rmat_ordered,
                                             tmp_path):
        from repro.core import RunCheckpoint
        from repro.core.threaded import triangulate_threaded
        from repro.memory.base import CollectSink

        first = RunCheckpoint()
        sink = CollectSink()
        whole = triangulate_threaded(small_rmat_ordered, tmp_path / "a",
                                     buffer_pages=4, page_size=256, sink=sink,
                                     ctx=RunContext(checkpoint=first))
        expected = sorted(sink.triangles)
        resumed = RunCheckpoint.from_dict(first.to_dict())
        sink2 = CollectSink()
        report = RunReport("resumed")
        result = triangulate_threaded(small_rmat_ordered, tmp_path / "b",
                                      buffer_pages=4, page_size=256,
                                      sink=sink2,
                                      ctx=RunContext(checkpoint=resumed,
                                                     report=report))
        assert sorted(sink2.triangles) == expected
        assert result.pages_read == 0  # everything replayed, nothing read
        # The checkpoint carries each iteration's trace, as run_opt's does,
        # so the resumed run bills (and prices) the uninterrupted run's ops.
        bill, resumed_bill = whole.extra["trace"], result.extra["trace"]
        assert bill.total_ops > 0 and bill.total_candidate_ops > 0
        assert [it.candidate_ops for it in resumed_bill.iterations] == \
            [it.candidate_ops for it in bill.iterations]
        assert resumed_bill.total_ops == bill.total_ops
        assert result.cpu_ops == whole.cpu_ops > 0
        assert report.derived["cost_conformance"]["predicted_elapsed"] == \
            cost_conformance(bill, 1.0)["predicted_elapsed"]

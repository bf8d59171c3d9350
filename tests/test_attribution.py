"""The attribution profiler: bucketing, conservation, determinism.

Three layers of guarantees:

* unit behavior of the table itself — bucket labels, scope caching,
  snapshot round-trips, merge algebra;
* **conservation** — per-bucket op totals sum exactly to each engine's
  Eq. 3 ``cpu_ops`` (the attribution never invents or drops a probe);
* **determinism** — the deterministic snapshot is byte-identical across
  repeat runs and across worker counts, for the process executor and the
  process-parallel engine alike (integer cells merge by summation, so
  scheduling cannot leak into the artifact).
"""

from __future__ import annotations

import json

import pytest

from repro.exec import compose
from repro.obs import (
    RunContext,
    degree_bucket,
    render_attribution,
    validate_attribution_dict,
)
from repro.obs.attribution import (
    Attribution,
    bucket_for_length,
)


def _snapshot_bytes(attribution: Attribution) -> str:
    return json.dumps(attribution.snapshot(), sort_keys=True)


class TestBuckets:
    def test_small_degrees_get_own_buckets(self):
        assert degree_bucket(0) == "0"
        assert degree_bucket(1) == "1"
        assert degree_bucket(-3) == "0"

    def test_power_of_two_ranges(self):
        assert degree_bucket(2) == "2-3"
        assert degree_bucket(3) == "2-3"
        assert degree_bucket(4) == "4-7"
        assert degree_bucket(7) == "4-7"
        assert degree_bucket(8) == "8-15"
        assert degree_bucket(1023) == "512-1023"
        assert degree_bucket(1024) == "1024-2047"

    def test_none_is_unbucketed(self):
        assert degree_bucket(None) == "*"

    def test_bucket_for_length_matches_degree_bucket(self):
        for degree in list(range(0, 70)) + [100, 1000, 2 ** 20]:
            assert bucket_for_length(int(degree).bit_length()) == \
                degree_bucket(degree)


class TestTable:
    def test_scope_charges_accumulate(self):
        table = Attribution()
        scope = table.scope(phase="exec", kernel="hash", source="memory")
        scope.charge(5, 12, triangles=2)
        scope.charge(6, 8, triangles=1)
        scope.charge(1, 3)
        assert table.total_ops == 23
        assert table.total_triangles == 3
        assert table.total_pairs == 3
        cells = table.cells()
        assert [(c["bucket"], c["ops"]) for c in cells] == \
            [("1", 3), ("4-7", 20)]

    def test_charge_lengths_equals_per_pair_charges(self):
        per_pair = Attribution()
        scope = per_pair.scope(phase="p", kernel="k", source="s")
        bulk = Attribution()
        bulk_scope = bulk.scope(phase="p", kernel="k", source="s")
        counts: dict[int, list[int]] = {}
        for degree, ops, triangles in [(0, 0, 0), (1, 1, 0), (5, 9, 2),
                                       (6, 4, 0), (17, 30, 5)]:
            scope.charge(degree, ops, triangles=triangles)
            cell = counts.setdefault(int(degree).bit_length(), [0, 0, 0])
            cell[0] += 1
            cell[1] += ops
            cell[2] += triangles
        bulk_scope.charge_lengths(counts)
        assert _snapshot_bytes(per_pair) == _snapshot_bytes(bulk)

    def test_snapshot_round_trip(self):
        table = Attribution()
        table.scope(phase="a", kernel="k", source="s").charge(4, 10,
                                                              triangles=1)
        table.scope(phase="b", kernel="k", source="s").charge(None, 5)
        snapshot = table.snapshot()
        assert validate_attribution_dict(snapshot) == []
        rebuilt = Attribution.from_snapshot(snapshot)
        assert _snapshot_bytes(rebuilt) == json.dumps(snapshot,
                                                      sort_keys=True)

    def test_wall_seconds_excluded_from_deterministic_snapshot(self):
        table = Attribution()
        scope = table.scope(phase="a", kernel="k", source="s")
        scope.charge(4, 10)
        scope.charge_time(1.25)
        assert "seconds" not in table.snapshot()
        full = table.snapshot(deterministic=False)
        assert full["seconds"]
        assert table.seconds()[0]["seconds"] == pytest.approx(1.25)

    def test_merge_is_order_independent(self):
        parts = []
        for seed in range(3):
            part = Attribution()
            scope = part.scope(phase="p", kernel="k", source="s")
            for i in range(seed + 2):
                scope.charge(i + seed, 3 * i + 1, triangles=i % 2)
            parts.append(part)
        forward = Attribution()
        for part in parts:
            forward.merge(part)
        backward = Attribution()
        for part in reversed(parts):
            backward.merge_snapshot(part.snapshot())
        assert _snapshot_bytes(forward) == _snapshot_bytes(backward)

    def test_validator_catches_total_mismatch(self):
        table = Attribution()
        table.scope(phase="a", kernel="k", source="s").charge(4, 10)
        snapshot = table.snapshot()
        snapshot["totals"]["ops"] = 11
        assert any("ops" in error
                   for error in validate_attribution_dict(snapshot))

    def test_render_contains_cells_and_shares(self):
        table = Attribution()
        table.scope(phase="exec", kernel="hash",
                    source="memory").charge(4, 10, triangles=1)
        text = render_attribution(table)
        assert "exec" in text and "hash" in text and "4-7" in text
        assert "ops" in text


@pytest.fixture(scope="module")
def rmat(seeded_graph):
    return seeded_graph("rmat", 400, 3000, seed=5)


class TestExecConservation:
    @pytest.mark.parametrize("executor", ["serial"])
    def test_compose_conserves_and_matches_uninstrumented(self, rmat,
                                                          executor):
        engine = compose("memory", "hash", executor, graph=rmat, workers=3)
        table = Attribution()
        result = engine.run(ctx=RunContext(attribution=table))
        assert table.total_ops == result.cpu_ops
        assert table.total_triangles == result.triangles
        plain = engine.run()
        assert (plain.triangles, plain.cpu_ops) == \
            (result.triangles, result.cpu_ops)

    def test_process_executor_conserves(self, rmat):
        engine = compose("shm", "hash", "process", graph=rmat, workers=2)
        table = Attribution()
        result = engine.run(ctx=RunContext(attribution=table))
        assert table.total_ops == result.cpu_ops
        assert table.total_triangles == result.triangles

    def test_serial_and_process_snapshots_identical(self, rmat):
        # The source name is part of the coordinate, so every leg is shm.
        snapshots = []
        for executor, workers in [("serial", 1), ("process", 2),
                                  ("process", 4)]:
            engine = compose("shm", "hash", executor, graph=rmat,
                             workers=workers)
            table = Attribution()
            engine.run(ctx=RunContext(attribution=table))
            snapshots.append(_snapshot_bytes(table))
        assert len(set(snapshots)) == 1

    @pytest.mark.parametrize("kernel", ["merge", "gallop", "bitmap"])
    def test_every_kernel_conserves(self, rmat, kernel):
        engine = compose("memory", kernel, "serial", graph=rmat)
        table = Attribution()
        result = engine.run(ctx=RunContext(attribution=table))
        assert table.total_ops == result.cpu_ops
        cells = table.cells()
        assert all(cell["kernel"] == kernel for cell in cells)


class TestParallelDeterminism:
    def test_snapshots_byte_identical_across_worker_counts(self,
                                                           clustered_graph):
        from repro.parallel import triangulate_parallel

        snapshots = {}
        results = {}
        for workers in (1, 2, 4):
            table = Attribution()
            results[workers] = triangulate_parallel(
                clustered_graph, workers=workers,
                ctx=RunContext(attribution=table))
            assert table.total_ops == results[workers].cpu_ops
            assert table.total_triangles == results[workers].triangles
            snapshots[workers] = _snapshot_bytes(table)
        assert len(set(snapshots.values())) == 1
        assert len({r.triangles for r in results.values()}) == 1

    def test_repeat_runs_byte_identical(self, clustered_graph):
        from repro.parallel import triangulate_parallel

        runs = []
        for _ in range(2):
            table = Attribution()
            triangulate_parallel(clustered_graph, workers=2,
                                 ctx=RunContext(attribution=table))
            runs.append(_snapshot_bytes(table))
        assert runs[0] == runs[1]


class TestDiskDriver:
    def test_opt_phases_conserve_cpu_ops(self, rmat):
        from repro.core import make_store, triangulate_disk

        store = make_store(rmat, 1024)
        table = Attribution()
        result = triangulate_disk(store, ctx=RunContext(attribution=table))
        # The disk driver charges candidate/external/internal ops; its
        # cpu_ops is exactly their sum (triangles are counted by the
        # output writer, not attributed per bucket).
        assert table.total_ops == result.cpu_ops
        phases = {cell["phase"] for cell in table.cells()}
        assert phases <= {"candidate", "external", "internal"}
        assert "internal" in phases
        plain = triangulate_disk(store)
        assert (plain.triangles, plain.cpu_ops) == \
            (result.triangles, result.cpu_ops)

    def test_disk_snapshot_repeatable(self, rmat):
        from repro.core import make_store, triangulate_disk

        store = make_store(rmat, 1024)
        runs = []
        for _ in range(2):
            table = Attribution()
            triangulate_disk(store, ctx=RunContext(attribution=table))
            runs.append(_snapshot_bytes(table))
        assert runs[0] == runs[1]

"""End-to-end observability: the report agrees with the engines exactly.

The regression guard of the observability PR: for a small graph, the
report's device-read counters must equal the simulator's page-read count,
and the phase-attributed triangle counters must sum to the exact triangle
count cross-checked by :mod:`repro.verify`.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import make_store, triangulate_disk, triangulate_threaded
from repro.memory import edge_iterator
from repro.obs import RunContext, RunReport, validate_report_dict
from repro.sim import CostModel
from repro.verify import verify_methods

PAGE_SIZE = 1024


@pytest.fixture(scope="module")
def instrumented_run(small_rmat_ordered):
    store = make_store(small_rmat_ordered, PAGE_SIZE)
    reference = edge_iterator(small_rmat_ordered)
    report = RunReport("e2e", meta={"dataset": "small_rmat"})
    result = triangulate_disk(store, buffer_ratio=0.15, cost=CostModel(),
                              cores=2, ctx=RunContext(report=report),
                              ideal_cpu_ops=reference.cpu_ops)
    return report, result


class TestDiskEngineReport:
    def test_pages_read_matches_simulator(self, instrumented_run):
        report, result = instrumented_run
        counters = report.metrics_snapshot()["counters"]
        sim = result.extra["sim"]
        sim_reads = sum(t.device_reads for t in sim.iterations)
        assert counters["opt.pages_read"] == result.pages_read
        assert counters["sim.device_reads"] == sim_reads
        assert counters["opt.pages_read"] == sim_reads
        # Every device read is a buffer miss, and vice versa.
        assert counters["buffer.misses"] == sim_reads

    def test_triangle_phases_sum_to_exact_count(self, instrumented_run,
                                                small_rmat_ordered):
        report, result = instrumented_run
        counters = report.metrics_snapshot()["counters"]
        verification = verify_methods(small_rmat_ordered, page_size=PAGE_SIZE,
                                      buffer_pages=8, include_threaded=False)
        assert verification.consistent
        exact = verification.expected
        internal = counters.get("triangles{phase=internal}", 0)
        external = counters.get("triangles{phase=external}", 0)
        assert internal + external == exact
        assert result.triangles == exact
        assert counters["triangles{phase=total}"] == exact

    def test_span_tree_has_all_phases(self, instrumented_run):
        report, _result = instrumented_run
        run = report.spans.find("run-opt")
        assert run is not None
        iteration = run.child("iteration")
        assert iteration is not None
        for phase in ("fill", "identify-candidates", "external-triangulation",
                      "internal-triangulation"):
            assert iteration.child(phase) is not None, phase
        simulate_span = report.spans.find("simulate")
        assert simulate_span is not None
        assert simulate_span.sim_elapsed == pytest.approx(
            report.derived["elapsed_simulated"])

    def test_overhead_vs_ideal_derived(self, instrumented_run):
        report, result = instrumented_run
        ideal = report.derived["ideal_elapsed"]
        assert report.derived["overhead_vs_ideal"] == pytest.approx(
            result.elapsed / ideal)

    def test_report_is_schema_valid(self, instrumented_run):
        report, _result = instrumented_run
        validate_report_dict(json.loads(report.to_json()))

    def test_morph_events_counted_with_morphing(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 256)
        report = RunReport("morph")
        triangulate_disk(store, buffer_ratio=0.10, cost=CostModel(),
                         cores=4, morphing=True, serial=False,
                         ctx=RunContext(report=report))
        counters = report.metrics_snapshot()["counters"]
        assert counters["sim.morph.events"] > 0


class TestFig3aFromReportAlone:
    def test_elbow_overhead_reproduced(self):
        """Replaying the Fig. 3a config: overhead <= ~7% from the report."""
        from repro.experiments.common import prepared

        _graph, store, reference = prepared("LJ")
        report = RunReport("fig3a")
        triangulate_disk(store, buffer_ratio=0.15, cost=CostModel(), cores=1,
                         ideal_cpu_ops=reference.cpu_ops,
                         ctx=RunContext(report=report))
        assert report.derived["overhead_vs_ideal"] <= 1.07


class TestThreadedEngineReport:
    def test_ssd_counters_flow_into_report(self, tmp_path, small_rmat_ordered):
        store = make_store(small_rmat_ordered, PAGE_SIZE)
        report = RunReport("threaded")
        result = triangulate_threaded(store, tmp_path, buffer_pages=8,
                                      ctx=RunContext(report=report))
        counters = report.metrics_snapshot()["counters"]
        assert counters["ssd.pages_read"] == result.pages_read
        assert counters["ssd.async_reads"] == result.pages_read
        histograms = report.metrics_snapshot()["histograms"]
        assert histograms["ssd.queue.depth"]["count"] == result.pages_read
        assert histograms["ssd.callback.latency"]["count"] == result.pages_read
        assert report.spans.find("iteration") is not None
        exact = edge_iterator(small_rmat_ordered).triangles
        assert result.triangles == exact
        # Same driver as the disk engine: its per-iteration bill and the
        # per-phase triangle split reach a threaded report too.
        disk = triangulate_disk(store, buffer_pages=8)
        assert result.cpu_ops == disk.cpu_ops > 0
        assert (counters["opt.candidate.ops"] + counters["opt.internal.ops"]
                + counters["opt.external.ops"]) == result.cpu_ops
        assert counters["opt.iterations"] == result.iterations
        assert counters["opt.pages_read"] == result.pages_read
        assert (counters["triangles{phase=internal}"]
                + counters["triangles{phase=external}"]
                == counters["triangles{phase=total}"] == exact)


class TestCliReportFlow:
    def test_triangulate_writes_valid_report(self, tmp_path, figure1, capsys):
        from repro.graph.io import write_edge_list

        graph_path = tmp_path / "fig1.txt"
        write_edge_list(figure1, graph_path)
        out = tmp_path / "run.json"
        code = main(["triangulate", "--input", str(graph_path),
                     "--method", "opt", "--page-size", "128",
                     "--report", str(out)])
        assert code == 0
        assert "wrote run report" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        validate_report_dict(payload)
        assert "overhead_vs_ideal" in payload["derived"]
        assert payload["metrics"]["counters"]["triangles{phase=total}"] == 5

    def test_report_run_pretty_prints(self, tmp_path, figure1, capsys):
        from repro.graph.io import write_edge_list

        graph_path = tmp_path / "fig1.txt"
        write_edge_list(figure1, graph_path)
        out = tmp_path / "run.json"
        assert main(["triangulate", "--input", str(graph_path),
                     "--method", "opt", "--page-size", "128",
                     "--report", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        text = capsys.readouterr().out
        assert "RunReport: opt" in text
        assert "overhead_vs_ideal" in text
        assert "span tree" in text

    def test_report_flag_for_in_memory_method(self, tmp_path, figure1, capsys):
        from repro.graph.io import write_edge_list

        graph_path = tmp_path / "fig1.txt"
        write_edge_list(figure1, graph_path)
        out = tmp_path / "mem.json"
        assert main(["triangulate", "--input", str(graph_path),
                     "--method", "edge-iterator", "--report", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate_report_dict(payload)
        assert payload["metrics"]["counters"]["triangles{phase=total}"] == 5

"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph.io import read_edge_list


class TestGenerate:
    def test_generate_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = main(["generate", "--model", "rmat", "--vertices", "64",
                     "--edges", "200", "--output", str(out)])
        assert code == 0
        graph = read_edge_list(out)
        assert graph.num_vertices <= 64
        assert "wrote" in capsys.readouterr().out

    def test_generate_binary(self, tmp_path):
        out = tmp_path / "g.bin"
        assert main(["generate", "--model", "holme-kim", "--vertices", "50",
                     "--attach", "3", "--output", str(out)]) == 0
        assert out.exists()


class TestTriangulate:
    @pytest.fixture()
    def graph_file(self, tmp_path, figure1):
        from repro.graph.io import write_edge_list

        path = tmp_path / "fig1.txt"
        write_edge_list(figure1, path)
        return path

    @pytest.mark.parametrize(
        "method", ["opt", "opt-vi", "mgt", "cc-seq", "graphchi",
                   "edge-iterator", "matrix"],
    )
    def test_methods_run(self, graph_file, capsys, method):
        code = main(["triangulate", "--input", str(graph_file),
                     "--method", method, "--page-size", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "triangles" in out
        assert "5" in out

    def test_dataset_input(self, capsys):
        code = main(["triangulate", "--dataset", "LJ", "--method",
                     "edge-iterator"])
        assert code == 0
        assert "triangles" in capsys.readouterr().out

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-inf", "0", "-0.5"])
    def test_bad_buffer_ratio_fails_cleanly(self, graph_file, capsys, ratio):
        code = main(["triangulate", "--input", str(graph_file),
                     "--method", "opt", f"--buffer-ratio={ratio}"])
        assert code == 1
        assert "error: buffer ratio must be finite and positive" in \
            capsys.readouterr().err

    def test_unknown_dataset_fails_cleanly(self, capsys):
        code = main(["triangulate", "--dataset", "NOPE", "--method", "opt"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_trace_flag_writes_chrome_json(self, graph_file, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "run.trace.json"
        code = main(["triangulate", "--input", str(graph_file),
                     "--method", "opt", "--page-size", "128",
                     "--trace", str(trace_path)])
        assert code == 0
        assert "trace events" in capsys.readouterr().out
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] != "M"}
        assert "iteration" in names

    def test_trace_flag_rejected_for_inmemory_methods(self, graph_file,
                                                      tmp_path, capsys):
        code = main(["triangulate", "--input", str(graph_file),
                     "--method", "edge-iterator",
                     "--trace", str(tmp_path / "t.json")])
        assert code == 1
        assert "--trace" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, accepted, refused", [
        ("--trace", "t.json", "opt-parallel", "compose"),
        ("--fault-kind", "latency", "opt", "opt-parallel"),
        ("--checkpoint", "ckpt.json", "opt-threaded", "opt-parallel"),
    ])
    def test_instrument_flag_is_gated_by_the_engine(self, graph_file,
                                                    tmp_path, capsys, flag,
                                                    value, accepted, refused):
        if flag != "--fault-kind":
            value = str(tmp_path / value)
        base = ["triangulate", "--input", str(graph_file),
                "--page-size", "128", flag, value, "--method"]
        assert main(base + [accepted]) == 0
        capsys.readouterr()
        assert main(base + [refused]) == 1
        err = capsys.readouterr().err
        # The refusal is the engine's own ConfigurationError, named by
        # the flag that filled the refused RunContext field.
        assert err.startswith(f"error: {flag} applies only")
        assert "does not consume ctx." in err

    def test_telemetry_flag_is_rejected_by_the_parser(self, graph_file,
                                                      tmp_path, capsys):
        """The live tick stream is gone: ``--telemetry`` is an unknown
        argument, refused before any file is written."""
        with pytest.raises(SystemExit) as info:
            main(["triangulate", "--input", str(graph_file), "--method",
                  "opt", "--telemetry", str(tmp_path / "x.jsonl")])
        assert info.value.code == 2
        assert "unrecognized arguments: --telemetry" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.jsonl"))

    def test_opt_threaded_checkpoint_saves_and_resumes(self, graph_file,
                                                       tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        argv = ["triangulate", "--input", str(graph_file), "--method",
                "opt-threaded", "--page-size", "128",
                "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        assert "wrote checkpoint" in capsys.readouterr().out
        assert ckpt.exists()
        assert main(argv) == 0
        assert "resuming from checkpoint" in capsys.readouterr().out

    def test_opt_threaded_method_runs(self, graph_file, tmp_path, capsys):
        trace_path = tmp_path / "threaded.trace.json"
        code = main(["triangulate", "--input", str(graph_file),
                     "--method", "opt-threaded", "--page-size", "128",
                     "--trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "elapsed (wall s)" in out
        assert trace_path.exists()


class TestTraceCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path, figure1):
        from repro.graph.io import write_edge_list

        graph_path = tmp_path / "fig1.txt"
        write_edge_list(figure1, graph_path)
        trace_path = tmp_path / "run.trace.json"
        assert main(["triangulate", "--input", str(graph_path),
                     "--method", "opt", "--page-size", "128",
                     "--trace", str(trace_path)]) == 0
        return trace_path

    def test_summarizes_saved_trace(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", str(trace_file), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "macro overlap ratio" in out
        assert "trace span" in out
        assert "sim/core0" in out

    def test_rejects_invalid_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": "nope"}', encoding="utf-8")
        assert main(["trace", str(bad)]) == 1
        assert "not a valid Chrome trace" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.json")]) == 1
        assert "error" in capsys.readouterr().err


class TestLayoutCommand:
    def test_layout_packs_store(self, tmp_path, capsys):
        from repro.storage import GraphStore

        graph_path = tmp_path / "g.txt"
        assert main(["generate", "--model", "rmat", "--vertices", "100",
                     "--edges", "500", "--output", str(graph_path)]) == 0
        out_dir = tmp_path / "store"
        code = main(["layout", "--input", str(graph_path),
                     "--output", str(out_dir), "--page-size", "512"])
        assert code == 0
        store = GraphStore.load(out_dir)
        assert store.num_pages > 0
        assert "packed" in capsys.readouterr().out


class TestVerifyCommand:
    def test_verify_agrees(self, tmp_path, capsys):
        from repro.graph.io import write_edge_list

        from repro.graph.generators import figure1_graph

        path = tmp_path / "fig1.txt"
        write_edge_list(figure1_graph(), path)
        code = main(["verify", "--input", str(path), "--page-size", "128",
                     "--buffer-pages", "4", "--skip-threaded"])
        assert code == 0
        assert "agree" in capsys.readouterr().out


class TestReportCommand:
    def test_report_assembles(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table2_datasets.txt").write_text("table body")
        output = tmp_path / "report.md"
        code = main(["report", "--results-dir", str(results),
                     "--output", str(output)])
        assert code == 0
        assert "table body" in output.read_text()

    def test_closed_pipe_ends_without_a_traceback(self, tmp_path, figure1):
        """``opt-repro report --run r.json | true``: the reader is gone
        before the summary is written, and the command still exits cleanly."""
        from repro.graph.io import write_edge_list

        graph, run = tmp_path / "fig1.txt", tmp_path / "run.json"
        write_edge_list(figure1, graph)
        assert main(["triangulate", "--input", str(graph), "--method", "opt",
                     "--page-size", "128", "--report", str(run)]) == 0
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "report", "--run", str(run)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        proc.stdout.close()  # a reader that exits at once
        try:
            stderr = proc.communicate(timeout=60)[1]
        finally:
            proc.kill()
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


class TestInfoCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("LJ", "ORKUT", "TWITTER", "UK", "YAHOO"):
            assert name in out

    def test_metrics(self, tmp_path, figure1, capsys):
        from repro.graph.io import write_edge_list

        path = tmp_path / "fig1.txt"
        write_edge_list(figure1, path)
        assert main(["metrics", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clustering coefficient" in out


class TestProfileCommand:
    @pytest.fixture()
    def graph_file(self, tmp_path, figure1):
        from repro.graph.io import write_edge_list

        path = tmp_path / "fig1.txt"
        write_edge_list(figure1, path)
        return path

    def test_table_output_conserves_ops(self, graph_file, capsys):
        assert main(["profile", "--input", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "attributed ops" in out and "triangles" in out

    def test_bad_composition_fails_cleanly(self, graph_file, capsys):
        # A memory source cannot cross process boundaries — compose
        # rejects the pair and profile must surface it as exit 1.
        assert main(["profile", "--input", str(graph_file),
                     "--source", "memory", "--executor", "process"]) == 1
        assert "error" in capsys.readouterr().err


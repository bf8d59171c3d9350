"""Tier-1 guard for the benchmark regression differ.

``benchmarks/compare_reports.py`` is the gate that fails CI when a fresh
``BENCH_*.json`` headline time regresses past the threshold; these tests
run it against the two committed baselines (self-diff must be clean) and
against synthetic regressed / improved / missing counterparts.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
RESULTS_DIR = BENCHMARKS_DIR / "results"


@pytest.fixture(scope="module")
def differ():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", BENCHMARKS_DIR / "compare_reports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scaled_copy(src: Path, dst: Path, factor: float) -> None:
    payload = json.loads(src.read_text(encoding="utf-8"))
    payload["derived"]["elapsed_simulated"] *= factor
    gauges = payload["metrics"]["gauges"]
    for key in ("run.elapsed_simulated", "sim.elapsed"):
        if key in gauges:
            gauges[key] *= factor
    dst.write_text(json.dumps(payload), encoding="utf-8")


def test_committed_baselines_self_diff_clean(differ):
    rows = differ.compare_dirs(RESULTS_DIR, RESULTS_DIR)
    assert rows, "no committed BENCH_*.json baselines found"
    assert {"BENCH_fig3a.json", "BENCH_fault_overhead.json"} <= set(rows)
    assert all(row["status"] == "ok" for row in rows.values()), rows
    assert all(row["ratio"] == pytest.approx(1.0) for row in rows.values())


def test_main_exit_zero_on_committed_baselines(differ, capsys):
    assert differ.main([str(RESULTS_DIR), str(RESULTS_DIR)]) == 0
    out = capsys.readouterr().out
    assert "BENCH_fig3a.json" in out


def test_regression_beyond_threshold_fails(differ, tmp_path, capsys):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for src in RESULTS_DIR.glob("BENCH_*.json"):
        shutil.copy(src, fresh / src.name)
    _scaled_copy(RESULTS_DIR / "BENCH_fig3a.json",
                 fresh / "BENCH_fig3a.json", factor=1.5)
    assert differ.main([str(RESULTS_DIR), str(fresh)]) == 1
    captured = capsys.readouterr()
    assert "regressed" in captured.out
    assert "regression(s)" in captured.err


def test_slowdown_within_threshold_passes(differ, tmp_path):
    fresh = tmp_path / "BENCH_fig3a.json"
    _scaled_copy(RESULTS_DIR / "BENCH_fig3a.json", fresh, factor=1.1)
    row = differ.compare_files(RESULTS_DIR / "BENCH_fig3a.json", fresh)
    assert row["status"] == "ok"
    assert row["ratio"] == pytest.approx(1.1)


def test_speedup_never_regresses(differ, tmp_path):
    fresh = tmp_path / "BENCH_fig3a.json"
    _scaled_copy(RESULTS_DIR / "BENCH_fig3a.json", fresh, factor=0.5)
    row = differ.compare_files(RESULTS_DIR / "BENCH_fig3a.json", fresh)
    assert row["status"] == "ok"


def test_missing_counterparts_reported_not_fatal(differ, tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    shutil.copy(RESULTS_DIR / "BENCH_fig3a.json",
                fresh / "BENCH_fig3a.json")
    shutil.copy(RESULTS_DIR / "BENCH_fig3a.json",
                fresh / "BENCH_only_fresh.json")
    rows = differ.compare_dirs(RESULTS_DIR, fresh)
    assert rows["BENCH_fault_overhead.json"]["status"] == "fresh-missing"
    assert rows["BENCH_only_fresh.json"]["status"] == "baseline-missing"
    assert differ.main([str(RESULTS_DIR), str(fresh)]) == 0


def test_wall_clock_headline_fallback(differ, tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    payload = {"metrics": {"gauges": {"run.elapsed_wall": 1.0}}}
    base.write_text(json.dumps(payload), encoding="utf-8")
    payload = {"metrics": {"gauges": {"run.elapsed_wall": 1.3}}}
    fresh.write_text(json.dumps(payload), encoding="utf-8")
    row = differ.compare_files(base, fresh)
    assert row["metric"] == "run.elapsed_wall"
    assert row["status"] == "regressed"


def test_headline_resolution_prefers_derived(differ):
    payload = {
        "derived": {"elapsed_simulated": 2.0},
        "metrics": {"gauges": {"run.elapsed_simulated": 3.0,
                               "sim.elapsed": 1.0,
                               "run.elapsed_wall": 4.0}},
    }
    assert differ.headline_elapsed(payload) == ("elapsed_simulated", 2.0)
    del payload["derived"]
    assert differ.headline_elapsed(payload) == ("run.elapsed_simulated", 3.0)
    del payload["metrics"]["gauges"]["run.elapsed_simulated"]
    assert differ.headline_elapsed(payload) == ("sim.elapsed", 1.0)
    del payload["metrics"]["gauges"]["sim.elapsed"]
    assert differ.headline_elapsed(payload) == ("run.elapsed_wall", 4.0)
    # No positive headline at all: nothing to compare.
    assert differ.headline_elapsed({}) is None
    assert differ.headline_elapsed({"derived": {"elapsed_simulated": 0}}) \
        is None

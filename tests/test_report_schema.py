"""Tier-1 guard against RunReport schema drift.

Wires ``benchmarks/check_report_schema.py`` into the main test run: every
committed ``BENCH_*.json`` trajectory artifact must validate against the
current schema, and a freshly produced report must too (so drift is
caught even before any trajectory file exists).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs import RunReport, validate_report_dict

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_report_schema", BENCHMARKS_DIR / "check_report_schema.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_bench_reports_are_valid(checker):
    failures = {
        name: errors
        for name, errors in checker.validate_results_dir().items()
        if errors
    }
    assert not failures, f"BENCH_*.json schema drift: {failures}"


#: Baselines the parallel-engine benchmarks must keep seeded so
#: ``compare_reports.py`` always has something to diff against.
PARALLEL_BASELINES = ("BENCH_fig6_speedup.json", "BENCH_table4_cores.json")


@pytest.fixture(scope="module")
def comparer():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", BENCHMARKS_DIR / "compare_reports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", PARALLEL_BASELINES)
def test_parallel_baselines_are_seeded(checker, comparer, name):
    """The committed parallel baselines validate and diff cleanly."""
    path = BENCHMARKS_DIR / "results" / name
    assert path.exists(), f"missing committed baseline {name}"
    assert checker.validate_file(path) == []
    payload = comparer.load_report(path)
    headline = comparer.headline_elapsed(payload)
    assert headline is not None, f"{name}: no headline elapsed metric"
    assert headline[0] == "run.elapsed_wall"
    row = comparer.compare_payloads(payload, payload)
    assert row["status"] == "ok" and row["ratio"] == 1.0


#: Baselines for the kernel/ordering-ablation CI gate.  Their headline
#: is the deterministic op-priced ``derived.elapsed_simulated`` (not
#: wall time), so the >20% compare_reports threshold is a hard gate on
#: op-count regressions regardless of runner speed.
ABLATION_BASELINES = ("BENCH_ablation_kernels.json",
                      "BENCH_ablation_ordering.json")


@pytest.mark.parametrize("name", ABLATION_BASELINES)
def test_ablation_baselines_are_seeded(checker, comparer, name):
    """The committed ablation baselines validate, carry the op-priced
    deterministic headline, and self-diff at ratio 1.0."""
    path = BENCHMARKS_DIR / "results" / name
    assert path.exists(), f"missing committed baseline {name}"
    assert checker.validate_file(path) == []
    payload = comparer.load_report(path)
    headline = comparer.headline_elapsed(payload)
    assert headline is not None, f"{name}: no headline elapsed metric"
    assert headline[0] == "elapsed_simulated"
    row = comparer.compare_payloads(payload, payload)
    assert row["status"] == "ok" and row["ratio"] == 1.0


def test_fresh_report_passes_the_checker(checker, tmp_path):
    report = RunReport("fresh")
    report.counter("ssd.pages_read").inc(3)
    with report.span("phase"):
        pass
    report.derive("overhead_vs_ideal", 1.0)
    path = tmp_path / "BENCH_fresh.json"
    report.write_json(path)
    assert checker.validate_file(path) == []


def test_checker_flags_bad_payload(checker, tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
    errors = checker.validate_file(path)
    assert errors and "schema" in errors[0]


def test_profile_overhead_baseline_is_seeded(checker):
    """The committed profiler-overhead artifact validates and its
    derived ratio keeps the attribution table within its documented
    ceiling (see bench_instrumentation_overhead.py)."""
    path = BENCHMARKS_DIR / "results" / "BENCH_profile_overhead.json"
    assert path.exists(), "missing committed BENCH_profile_overhead.json"
    assert checker.validate_file(path) == []
    derived = json.loads(path.read_text(encoding="utf-8"))["derived"]
    assert derived["attribution_overhead"] < 1.30
    # The embedded attribution snapshot conserves its own totals.
    from repro.obs import validate_attribution_dict

    attribution = derived["attribution"]
    assert validate_attribution_dict(attribution) == []
    assert attribution["totals"]["ops"] > 0


def test_validate_report_dict_rejects_future_version():
    payload = json.loads(RunReport("x").to_json())
    payload["version"] = 999
    with pytest.raises(ValueError, match="newer"):
        validate_report_dict(payload)

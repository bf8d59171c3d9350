"""Smoke test of the e2e benchmark at 1/20 scale (not part of tier-1).

Run as ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = bench.SPEC
NAMES = [w["name"] for w in SPEC["workloads"]]
SMALL = ["--seconds", "0", "--scale", "0.05"]


def invoke(workload: str, seed: int, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *SMALL],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])


def check_report(stdout: str, result: dict, expected: dict[str, str]) -> None:
    """Every expected name printed once with its unit and a finite value."""
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(expected)
    lines = [line.split() for line in stdout.splitlines() if line.strip()]
    for name, unit in expected.items():
        printed = [parts for parts in lines if parts[0] == name]
        assert len(printed) == 1, name
        assert printed[0][2] == unit
        metric = result["metrics"][name]
        assert metric["unit"] == unit and math.isfinite(metric["value"]), name


def test_spec_matches_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload):
    stdout, result = invoke(workload, seed=1, trace=0)
    check_report(stdout, result,
                 {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics(workload):
    units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    exact = [name for name, (_, repeats) in layers.PER_LAYER.items() if repeats]
    runs = []
    for seed in (1, 1, 2):
        stdout, result = invoke(workload, seed=seed, trace=1)
        check_report(stdout, result, units)
        runs.append([result["metrics"][name]["value"] for name in exact])
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]
    trace = json.loads((HERE / "out" / f"{workload}.trace.json").read_text())
    assert {"name", "start", "end", "parent", "workload", "pass", "self"} <= set(
        trace["spans"][0])


def test_wrong_oracle_fails_closed(monkeypatch, capsys):
    real = workloads.oracle_triples
    monkeypatch.setattr(workloads, "oracle_triples", lambda g: real(g)[:-1])
    for key, value in bench.ENV.items():  # run in this process
        monkeypatch.setenv(key, value)
    code = bench.main(["--workload", "mem-list-dense", *SMALL])
    result = json.loads(capsys.readouterr().out.rstrip().rsplit("\n", 1)[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0

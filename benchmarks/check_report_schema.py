"""Validate ``BENCH_*.json`` files against the RunReport schema.

Every benchmark that emits a machine-readable artifact writes it through
:class:`repro.obs.RunReport`; this checker keeps those files honest so
run-to-run perf comparisons never silently break.  It runs three ways:

* as a script: ``PYTHONPATH=src python benchmarks/check_report_schema.py``;
* as a benchmark-suite pytest (this file matches ``bench_*``/``test_*``
  collection via its test function);
* from the tier-1 suite via ``tests/test_report_schema.py``, which
  imports :func:`validate_results_dir` directly.

Beyond the RunReport payload it also covers the profiler's output: an
embedded ``derived.attribution`` snapshot validates against the
attribution schema.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs import validate_attribution_dict, validate_report_dict

RESULTS_DIR = Path(__file__).parent / "results"


def bench_report_paths(results_dir: str | Path = RESULTS_DIR) -> list[Path]:
    """Every ``BENCH_*.json`` file under *results_dir*."""
    return sorted(Path(results_dir).glob("BENCH_*.json"))


def validate_file(path: str | Path) -> list[str]:
    """Schema errors in one file, a single JSON report (empty = valid)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"{path.name}: not JSON: {exc}"]
    try:
        validate_report_dict(payload)
    except ValueError as exc:
        return [f"{path.name}: {exc}"]
    attribution = payload.get("derived", {}).get("attribution")
    if attribution is None:
        return []
    return [f"{path.name}.derived.attribution: {error}"
            for error in validate_attribution_dict(attribution)]


def validate_results_dir(results_dir: str | Path = RESULTS_DIR) -> dict[str, list[str]]:
    """Map of file name -> schema errors, for every ``BENCH_*.json``."""
    return {path.name: validate_file(path)
            for path in bench_report_paths(results_dir)}


def test_bench_reports_match_schema():
    """Benchmark-suite guard: every emitted BENCH_*.json is schema-valid."""
    failures = {name: errors
                for name, errors in validate_results_dir().items() if errors}
    assert not failures, f"schema drift in {failures}"


def main(argv: list[str] | None = None) -> int:
    results_dir = Path(argv[0]) if argv else RESULTS_DIR
    all_errors: list[str] = []
    checked = validate_results_dir(results_dir)
    for name, errors in sorted(checked.items()):
        status = "FAIL" if errors else "ok"
        print(f"{status:4s}  {name}")
        all_errors.extend(errors)
    for error in all_errors:
        print(f"  {error}", file=sys.stderr)
    if not checked:
        print(f"no BENCH_*.json files under {results_dir}")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

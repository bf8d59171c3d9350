"""Validate ``BENCH_*.json`` trajectory files against the RunReport schema.

Every benchmark that emits a machine-readable artifact writes it through
:class:`repro.obs.RunReport`; this checker keeps those files honest so
run-to-run perf comparisons never silently break.  It runs three ways:

* as a script: ``PYTHONPATH=src python benchmarks/check_report_schema.py``;
* as a benchmark-suite pytest (this file matches ``bench_*``/``test_*``
  collection via its test function);
* from the tier-1 suite via ``tests/test_report_schema.py``, which
  imports :func:`validate_results_dir` directly.

Beyond the RunReport payloads it also covers the profiler's artifacts:
an embedded ``derived.attribution`` snapshot validates against the
attribution schema, and ``PROFILE_*.speedscope.json`` flame profiles
against the speedscope format.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs import (
    validate_attribution_dict,
    validate_report_dict,
    validate_speedscope,
)

RESULTS_DIR = Path(__file__).parent / "results"


def bench_report_paths(results_dir: str | Path = RESULTS_DIR) -> list[Path]:
    """Every ``BENCH_*.json`` trajectory file under *results_dir*."""
    return sorted(Path(results_dir).glob("BENCH_*.json"))


def profile_paths(results_dir: str | Path = RESULTS_DIR) -> list[Path]:
    """Every ``PROFILE_*.speedscope.json`` flame profile artifact."""
    return sorted(Path(results_dir).glob("PROFILE_*.speedscope.json"))


def validate_profile_file(path: str | Path) -> list[str]:
    """Speedscope-schema errors in one flame profile (empty = valid)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        return [f"{path.name}: not JSON: {exc}"]
    return [f"{path.name}: {error}" for error in validate_speedscope(data)]


def validate_file(path: str | Path) -> list[str]:
    """Schema errors in one file (empty list = valid).

    Accepts both a single JSON report per file and JSONL (one report per
    line, the append-trajectory format).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        payloads = [json.loads(text)]
    except json.JSONDecodeError:
        payloads = []
        for number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payloads.append(json.loads(line))
            except json.JSONDecodeError as exc:
                return [f"{path.name}:{number}: not JSON: {exc}"]
    errors: list[str] = []
    for index, payload in enumerate(payloads):
        try:
            validate_report_dict(payload)
        except ValueError as exc:
            errors.append(f"{path.name}[{index}]: {exc}")
        attribution = (payload.get("derived", {}).get("attribution")
                       if isinstance(payload, dict) else None)
        if attribution is not None:
            errors.extend(
                f"{path.name}[{index}].derived.attribution: {error}"
                for error in validate_attribution_dict(attribution))
    if not payloads:
        errors.append(f"{path.name}: contains no reports")
    return errors


def validate_results_dir(results_dir: str | Path = RESULTS_DIR) -> dict[str, list[str]]:
    """Map of file name -> schema errors, for every artifact file.

    Covers the RunReport trajectories and the speedscope flame profiles.
    """
    checked = {path.name: validate_file(path)
               for path in bench_report_paths(results_dir)}
    checked.update({path.name: validate_profile_file(path)
                    for path in profile_paths(results_dir)})
    return checked


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

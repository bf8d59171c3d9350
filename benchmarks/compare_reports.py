"""Diff fresh benchmark reports against the committed baselines.

The benchmarks emit machine-readable ``BENCH_<name>.json`` artifacts
(RunReport schema, guarded by ``check_report_schema.py``); this tool
answers the follow-up question — *did the run get slower?* — by
comparing each fresh report's headline elapsed time against the
committed baseline of the same name and failing loudly on regression.

Usage::

    PYTHONPATH=src python benchmarks/compare_reports.py BASELINE FRESH \
        [--threshold 0.20] [--json]

``BASELINE`` and ``FRESH`` are either two report files or two
directories of ``BENCH_*.json`` files (matched by file name; files
present on only one side are reported but don't fail the diff).  The
exit code is 1 when any matched report regressed by more than
``--threshold`` (fraction, default 20%), else 0.

``--json`` prints the comparison rows as one machine-readable JSON
object (``{"rows": {...}, "regressions": N}``) instead of the table.

The headline metric is resolved per report, most-specific first:
``derived.elapsed_simulated``, then the ``run.elapsed_simulated`` /
``sim.elapsed`` / ``run.elapsed_wall`` gauges — so the same diff covers
the simulated engines and the wall-clock threaded engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Mapping

__all__ = [
    "DEFAULT_THRESHOLD",
    "HEADLINE_KEYS",
    "compare_dirs",
    "compare_files",
    "compare_payloads",
    "headline_elapsed",
    "load_report",
    "main",
]

#: Resolution order for the headline elapsed-time metric.
HEADLINE_KEYS: tuple[tuple[str, str], ...] = (
    ("derived", "elapsed_simulated"),
    ("gauge", "run.elapsed_simulated"),
    ("gauge", "sim.elapsed"),
    ("gauge", "run.elapsed_wall"),
)

#: Allowed slowdown fraction before a comparison regresses.
DEFAULT_THRESHOLD = 0.20


def headline_elapsed(payload: Mapping) -> tuple[str, float] | None:
    """The report's headline elapsed time as ``(metric_name, seconds)``.

    Most-specific first: ``derived.elapsed_simulated``, then the
    ``run.elapsed_simulated`` / ``sim.elapsed`` / ``run.elapsed_wall``
    gauges — so one resolution covers the simulated engines and the
    wall-clock engines alike.
    """
    derived = payload.get("derived") or {}
    gauges = (payload.get("metrics") or {}).get("gauges") or {}
    for kind, key in HEADLINE_KEYS:
        source = derived if kind == "derived" else gauges
        value = source.get(key)
        if isinstance(value, (int, float)) and value > 0:
            return key, float(value)
    return None


def load_report(path: str | Path) -> dict:
    """The report payload at *path* (one JSON document)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def compare_payloads(
    baseline: dict,
    fresh: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """One comparison row: headline values, ratio, and the verdict."""
    base = headline_elapsed(baseline)
    new = headline_elapsed(fresh)
    if base is None or new is None:
        return {"status": "no-headline", "baseline": base, "fresh": new}
    ratio = new[1] / base[1]
    regressed = ratio > 1.0 + threshold
    return {
        "status": "regressed" if regressed else "ok",
        "metric": new[0],
        "baseline": base[1],
        "fresh": new[1],
        "ratio": ratio,
        "threshold": threshold,
    }


def compare_files(
    baseline_path: str | Path,
    fresh_path: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    return compare_payloads(load_report(baseline_path),
                            load_report(fresh_path), threshold)


def compare_dirs(
    baseline_dir: str | Path,
    fresh_dir: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, dict]:
    """Compare every ``BENCH_*.json`` present on both sides, by name."""
    baseline_dir, fresh_dir = Path(baseline_dir), Path(fresh_dir)
    names = {p.name for p in baseline_dir.glob("BENCH_*.json")}
    names |= {p.name for p in fresh_dir.glob("BENCH_*.json")}
    rows: dict[str, dict] = {}
    for name in sorted(names):
        base, new = baseline_dir / name, fresh_dir / name
        if not base.exists():
            rows[name] = {"status": "baseline-missing"}
        elif not new.exists():
            rows[name] = {"status": "fresh-missing"}
        else:
            rows[name] = compare_files(base, new, threshold)
    return rows


def _format_row(name: str, row: dict) -> str:
    status = row["status"]
    if status in ("baseline-missing", "fresh-missing", "no-headline"):
        return f"{status:18s}  {name}"
    return (f"{status:18s}  {name}  {row['metric']}: "
            f"{row['baseline']:.6f}s -> {row['fresh']:.6f}s "
            f"(x{row['ratio']:.3f}, limit x{1 + row['threshold']:.2f})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a fresh BENCH report regressed vs baseline")
    parser.add_argument("baseline", help="baseline report file or directory")
    parser.add_argument("fresh", help="fresh report file or directory")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed slowdown fraction (default 0.20)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print rows as machine-readable JSON")
    args = parser.parse_args(argv)
    baseline, fresh = Path(args.baseline), Path(args.fresh)
    if not baseline.exists() or not fresh.exists():
        print(f"error: {baseline if not baseline.exists() else fresh}: "
              f"does not exist", file=sys.stderr)
        return 2
    if baseline.is_dir() != fresh.is_dir():
        print("error: baseline and fresh must both be files or both be "
              "directories", file=sys.stderr)
        return 2
    if baseline.is_dir():
        rows = compare_dirs(baseline, fresh, args.threshold)
    else:
        rows = {fresh.name: compare_files(baseline, fresh, args.threshold)}
    regressions = sum(1 for row in rows.values()
                      if row["status"] == "regressed")
    if args.as_json:
        print(json.dumps({"rows": rows, "regressions": regressions,
                          "threshold": args.threshold},
                         sort_keys=True, indent=2))
    else:
        for name, row in rows.items():
            print(_format_row(name, row))
        if not rows:
            print("no BENCH_*.json files to compare")
        if regressions:
            print(f"{regressions} regression(s) beyond the "
                  f"{args.threshold:.0%} threshold", file=sys.stderr)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

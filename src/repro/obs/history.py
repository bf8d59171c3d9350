"""Cross-run perf history: an append-only index of benchmark headlines.

The benchmarks emit ``BENCH_<name>.json`` RunReports and
``benchmarks/compare_reports.py`` diffs one pair of them — but nothing
remembered runs across PRs, so the bench *trajectory* ("are we getting
faster?") was unanswerable.  This module is that memory:

* :data:`HEADLINE_KEYS` / :func:`headline_elapsed` — the canonical
  headline-metric resolution (moved here from ``compare_reports.py``,
  which now imports it, so the differ and the history store can never
  disagree about what "elapsed" means);
* :class:`PerfRecord` — one ingested headline, keyed by
  ``(bench, metric, git_rev)`` plus a per-index sequence number;
* :class:`PerfHistory` — the append-only JSONL index: ingest reports,
  query trends, find the best-of-history value, and issue regression
  verdicts with the same threshold semantics ``compare_reports.py``
  uses (``ratio > 1 + threshold`` fails);
* :func:`render_trend` — the ASCII sparkline trajectory view behind
  ``repro perf trend``;
* :func:`validate_history_dict` — schema checking for
  ``benchmarks/check_report_schema.py``.

Ingestion is deterministic: records carry no timestamps (the git rev
*is* the time axis), so re-ingesting the same artifacts produces a
byte-identical index, and an exact ``(bench, metric, git_rev, value)``
repeat is skipped rather than appended.

Like the rest of :mod:`repro.obs`, nothing here imports anything outside
the standard library (the sparkline renderer is imported lazily from
:mod:`repro.analysis`, same as the attribution table renderer).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "DEFAULT_THRESHOLD",
    "HEADLINE_KEYS",
    "PerfHistory",
    "PerfRecord",
    "bench_name_of",
    "headline_elapsed",
    "render_trend",
    "validate_history_dict",
    "validate_history_file",
]

HISTORY_SCHEMA = "repro.obs/perf-history"
HISTORY_VERSION = 1

#: Resolution order for the headline elapsed-time metric — the single
#: source of truth shared with ``benchmarks/compare_reports.py``.
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


def bench_name_of(path: str | Path) -> str:
    """The bench name encoded in a ``BENCH_<name>.json`` file name."""
    stem = Path(path).stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


@dataclass(frozen=True)
class PerfRecord:
    """One ingested benchmark headline.

    ``(bench, metric, git_rev)`` is the logical key; ``seq`` is the
    position in the index's append order, so trends replay ingestion
    order even when revs are re-run.
    """

    bench: str
    metric: str
    value: float
    git_rev: str = "unknown"
    seq: int = 0
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {
            "schema": HISTORY_SCHEMA,
            "version": HISTORY_VERSION,
            "bench": self.bench,
            "metric": self.metric,
            "value": self.value,
            "git_rev": self.git_rev,
            "seq": self.seq,
        }
        if self.meta:
            payload["meta"] = self.meta
        return payload

    @classmethod
    def from_dict(cls, data: Mapping) -> "PerfRecord":
        return cls(
            bench=str(data["bench"]),
            metric=str(data["metric"]),
            value=float(data["value"]),
            git_rev=str(data.get("git_rev", "unknown")),
            seq=int(data.get("seq", 0)),
            meta=dict(data.get("meta") or {}),
        )


class PerfHistory:
    """The append-only JSONL perf index (``repro perf``).

    One JSON object per line, each self-describing with
    ``schema``/``version`` so a line survives being separated from its
    file.  The whole file is re-read per operation — the index is tiny
    (one line per bench per rev) and this keeps the class safe for
    concurrent CI jobs appending via atomic line writes.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    # -- reading -------------------------------------------------------------

    def records(self) -> list[PerfRecord]:
        """Every record in the index, in append order."""
        if not self.path.exists():
            return []
        records = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                records.append(PerfRecord.from_dict(json.loads(line)))
        return records

    def __len__(self) -> int:
        return len(self.records())

    def benches(self) -> list[str]:
        """Distinct bench names, sorted."""
        return sorted({record.bench for record in self.records()})

    def trend(self, bench: str, metric: str | None = None) -> list[PerfRecord]:
        """*bench*'s records in ingestion order (optionally one metric)."""
        return [
            record for record in self.records()
            if record.bench == bench
            and (metric is None or record.metric == metric)
        ]

    def best(self, bench: str, metric: str | None = None) -> PerfRecord | None:
        """The best-of-history (minimum headline) record for *bench*.

        Ties keep the earliest record, so the baseline a fresh run is
        judged against never silently moves between equal values.
        """
        best: PerfRecord | None = None
        for record in self.trend(bench, metric):
            if best is None or record.value < best.value:
                best = record
        return best

    def latest(self, bench: str, metric: str | None = None) -> PerfRecord | None:
        """The most recently ingested record for *bench*."""
        trend = self.trend(bench, metric)
        return trend[-1] if trend else None

    # -- ingestion -----------------------------------------------------------

    def ingest(self, payload: Mapping, *, bench: str,
               git_rev: str = "unknown") -> PerfRecord | None:
        """Append *payload*'s headline to the index.

        Returns the appended :class:`PerfRecord`, or ``None`` when the
        report has no headline or the exact ``(bench, metric, git_rev,
        value)`` tuple is already present (idempotent re-ingest).
        """
        headline = headline_elapsed(payload)
        if headline is None:
            return None
        metric, value = headline
        existing = self.records()
        for record in existing:
            if (record.bench == bench and record.metric == metric
                    and record.git_rev == git_rev and record.value == value):
                return None
        meta = payload.get("meta") or {}
        record = PerfRecord(
            bench=bench, metric=metric, value=value, git_rev=git_rev,
            seq=len(existing),
            meta={key: meta[key] for key in ("engine", "plugin", "graph")
                  if key in meta},
        )
        self.append(record)
        return record

    def ingest_file(self, path: str | Path, *,
                    git_rev: str = "unknown") -> PerfRecord | None:
        """Ingest a ``BENCH_*.json`` file (last line of a trajectory)."""
        text = Path(path).read_text(encoding="utf-8")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
            if not lines:
                raise ValueError(f"{path}: contains no reports") from None
            payload = json.loads(lines[-1])
        return self.ingest(payload, bench=bench_name_of(path),
                           git_rev=git_rev)

    def append(self, record: PerfRecord) -> None:
        """Append one serialized record line (creates the file/parents)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    # -- verdicts ------------------------------------------------------------

    def check(self, payload_or_value, *, bench: str,
              metric: str | None = None, against: str = "best",
              threshold: float = DEFAULT_THRESHOLD) -> dict:
        """Regression verdict for a fresh value against the history.

        *payload_or_value* is a report payload (headline resolved the
        usual way) or a plain number.  *against* selects the baseline:
        ``"best"`` (best-of-history, the multi-baseline mode) or
        ``"latest"``.  Verdict semantics match ``compare_reports.py``:
        ``regressed`` when ``fresh / baseline > 1 + threshold``.
        """
        if isinstance(payload_or_value, (int, float)):
            fresh: tuple[str, float] | None = (metric or "value",
                                               float(payload_or_value))
        else:
            fresh = headline_elapsed(payload_or_value)
        if fresh is None:
            return {"status": "no-headline", "bench": bench}
        if against not in ("best", "latest"):
            raise ValueError(f"against must be 'best' or 'latest', "
                             f"got {against!r}")
        baseline = (self.best(bench, metric) if against == "best"
                    else self.latest(bench, metric))
        if baseline is None:
            return {"status": "no-history", "bench": bench,
                    "metric": fresh[0], "fresh": fresh[1]}
        ratio = fresh[1] / baseline.value
        return {
            "status": "regressed" if ratio > 1.0 + threshold else "ok",
            "bench": bench,
            "metric": fresh[0],
            "baseline": baseline.value,
            "baseline_rev": baseline.git_rev,
            "against": against,
            "fresh": fresh[1],
            "ratio": ratio,
            "threshold": threshold,
        }


def render_trend(history: PerfHistory, bench: str, *,
                 metric: str | None = None, width: int = 48) -> str:
    """ASCII trajectory of *bench*: sparkline plus first/best/last stats."""
    from repro.analysis.ascii_chart import sparkline

    records = history.trend(bench, metric)
    if not records:
        return f"{bench}: no history"
    values = [record.value for record in records]
    best = min(values)
    spark = sparkline(values, width=min(width, len(values)))
    stats = (f"  first {values[0]:.6f}s @ {records[0].git_rev}"
             f"  best {best:.6f}s"
             f"  last {values[-1]:.6f}s @ {records[-1].git_rev}")
    if best > 0:
        stats += f"  (last/best x{values[-1] / best:.3f})"
    return "\n".join([
        f"{bench} ({records[-1].metric}, {len(records)} run(s))",
        f"  {spark}",
        stats,
    ])


def validate_history_dict(data: object) -> list[str]:
    """Schema errors in one serialized history record (empty = valid)."""
    errors: list[str] = []
    if not isinstance(data, Mapping):
        return ["history record must be a JSON object"]
    if data.get("schema") != HISTORY_SCHEMA:
        errors.append(f"schema must be {HISTORY_SCHEMA!r}, "
                      f"got {data.get('schema')!r}")
    if not isinstance(data.get("version"), int):
        errors.append("version must be an integer")
    for fieldname in ("bench", "metric", "git_rev"):
        value = data.get(fieldname)
        if not isinstance(value, str) or not value:
            errors.append(f"{fieldname} must be a non-empty string")
    value = data.get("value")
    if not isinstance(value, (int, float)) or value < 0:
        errors.append("value must be a non-negative number")
    seq = data.get("seq")
    if not isinstance(seq, int) or seq < 0:
        errors.append("seq must be a non-negative integer")
    meta = data.get("meta", {})
    if not isinstance(meta, Mapping):
        errors.append("meta must be an object")
    return errors


def validate_history_file(path: str | Path) -> list[str]:
    """Schema errors across every line of a history JSONL file."""
    errors: list[str] = []
    text = Path(path).read_text(encoding="utf-8")
    seen_seq: set[int] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {number}: invalid JSON ({exc})")
            continue
        for error in validate_history_dict(data):
            errors.append(f"line {number}: {error}")
        seq = data.get("seq")
        if isinstance(seq, int):
            if seq in seen_seq:
                errors.append(f"line {number}: duplicate seq {seq}")
            seen_seq.add(seq)
    return errors

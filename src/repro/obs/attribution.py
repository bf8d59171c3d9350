"""Cost attribution: *where* the Eq. 3 operations actually go.

The metrics registry answers "how many ops did the run charge"; the
tracer answers "when"; neither answers the question kernel and ordering
choices hinge on: *which kernel, phase, source, and degree regime the
operations land in*.  This module is that missing
axis — a deterministic cost-attribution table.

An :class:`Attribution` accumulates integer charges into cells keyed by
``(phase, kernel, source, degree-bucket)``:

* **phase** — where in the algorithm the charge arose (``exec`` for the
  composed single-loop engines, ``parallel`` for the process engine,
  ``candidate`` / ``internal`` / ``external`` for the OPT driver's
  Algorithm 7 / 5 / 9 phases);
* **kernel** — the intersection strategy that executed the pair
  (``hash`` / ``merge`` / ``gallop`` / ``bitmap``, or the OPT plugin
  name for disk runs);
* **source** — the read path the successor lists came from
  (``memory`` / ``shm`` / ``disk``);
* **degree bucket** — the power-of-two bucket of the *probed side's*
  length, ``min(|a|, |b|)`` — exactly the quantity the paper's Eq. 3
  charge is ``min(|a|, |b|)`` of, and the quantity an adaptive (AOT
  style) kernel would switch on.

Each cell carries ``pairs`` (kernel invocations), ``ops`` (Eq. 3
charges), and ``triangles``.  All three are integers, so cells merge by
summation in any order — attribution over any partition of the vertex
range reproduces the serial table exactly, worker count and scheduling
notwithstanding.  That makes the sim-mode profile output byte-identical
across repeat runs and across ``--workers 1/2/4`` (the determinism gate
in ``tests/test_attribution.py``), and it makes conservation checkable:
:attr:`Attribution.total_ops` must equal the engine's Eq. 3 op count.

Wall-clock seconds are attributed separately at ``(phase, kernel,
source)`` granularity (per-pair timing would dominate the cost being
measured) and are *excluded* from the deterministic snapshot — sim-mode
CPU time is ``ops x CostModel.hash_probe`` by construction (Eq. 3), so
the op table already is the simulated-time attribution.

Like the rest of :mod:`repro.obs`, nothing here imports anything outside
the standard library.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "Attribution",
    "AttributionScope",
    "degree_bucket",
    "render_attribution",
]

ATTRIBUTION_SCHEMA = "repro.obs/attribution"
ATTRIBUTION_VERSION = 1

#: The bucket for charges that carry no degree (page-granular internal
#: ops, for example).
UNBUCKETED = "*"


#: Interned bucket labels by ``degree.bit_length()`` — the label is hit
#: once per intersection pair, so building the f-string every call would
#: dominate the charge path.
_BUCKET_LABELS: dict[int, str] = {}


def degree_bucket(degree: int | None) -> str:
    """The power-of-two bucket label for *degree*.

    ``0`` and ``1`` get their own buckets; beyond that the buckets are
    ``"2-3"``, ``"4-7"``, ``"8-15"``, ... (half-open powers of two).
    ``None`` maps to the :data:`UNBUCKETED` label for charges with no
    meaningful degree.
    """
    if degree is None:
        return UNBUCKETED
    d = int(degree)
    if d <= 0:
        return "0"
    if d == 1:
        return "1"
    return bucket_for_length(d.bit_length())


def bucket_for_length(length: int) -> str:
    """The bucket label for a ``degree.bit_length()`` value.

    ``degree_bucket(d) == bucket_for_length(d.bit_length())`` for every
    non-negative ``d`` — bit length 0 is degree 0, bit length 1 is
    degree 1, and every longer length is one power-of-two bucket.  Hot
    loops accumulate plain per-length counts and bulk-charge them
    through :meth:`AttributionScope.charge_lengths`.
    """
    if length <= 0:
        return "0"
    if length == 1:
        return "1"
    label = _BUCKET_LABELS.get(length)
    if label is None:
        lo = 1 << (length - 1)
        label = f"{lo}-{2 * lo - 1}"
        _BUCKET_LABELS[length] = label
    return label


def _bucket_sort_key(bucket: str) -> tuple[int, int]:
    """Sort buckets numerically by lower bound; ``*`` sorts last."""
    if bucket == UNBUCKETED:
        return (1, 0)
    lower = bucket.split("-", 1)[0]
    return (0, int(lower))


class AttributionScope:
    """One ``(phase, kernel, source)`` coordinate, ready to charge.

    Engines resolve their coordinates once (:meth:`Attribution.scope`)
    and charge per pair through the scope — a dict lookup per bucket,
    nothing else, so the hot loop pays a few percent, not a multiple.
    """

    __slots__ = ("_attribution", "phase", "kernel", "source", "_cells")

    def __init__(self, attribution: "Attribution", phase: str, kernel: str,
                 source: str):
        self._attribution = attribution
        self.phase = phase
        self.kernel = kernel
        self.source = source
        #: bucket -> [pairs, ops, triangles] (shared with the parent table).
        self._cells: dict[str, list[int]] = {}

    def charge(self, degree: int | None, ops: int, triangles: int = 0,
               pairs: int = 1) -> None:
        """Charge *ops* Eq. 3 operations at *degree*'s bucket."""
        bucket = degree_bucket(degree)
        cell = self._cells.get(bucket)
        if cell is None:
            cell = self._attribution._cell(
                self.phase, self.kernel, self.source, bucket)
            self._cells[bucket] = cell
        cell[0] += pairs
        cell[1] += ops
        cell[2] += triangles

    def charge_lengths(self, counts: dict[int, list[int]]) -> None:
        """Bulk-charge a ``bit_length -> [pairs, ops, triangles]`` map.

        The batched form of :meth:`charge` for per-pair hot loops: the
        loop accumulates into a plain local dict (no method call per
        pair) and folds it here once per range.
        """
        for length, (pairs, ops, triangles) in counts.items():
            bucket = bucket_for_length(length)
            cell = self._cells.get(bucket)
            if cell is None:
                cell = self._attribution._cell(
                    self.phase, self.kernel, self.source, bucket)
                self._cells[bucket] = cell
            cell[0] += pairs
            cell[1] += ops
            cell[2] += triangles

    def charge_time(self, seconds: float) -> None:
        """Attribute *seconds* of wall time to this scope's coordinate."""
        self._attribution._charge_time(
            self.phase, self.kernel, self.source, seconds)


class Attribution:
    """The cost-attribution table: deterministic integer charge cells.

    Not thread-safe by design: every concurrent execution path (thread
    pool tasks, forked workers) accumulates into its *own* table and the
    parent folds them with :meth:`merge` / :meth:`merge_snapshot` — the
    same discipline the metrics registry's snapshot merge already uses,
    and the reason the merged table is independent of scheduling.
    """

    def __init__(self) -> None:
        #: (phase, kernel, source, bucket) -> [pairs, ops, triangles]
        self._cells: dict[tuple[str, str, str, str], list[int]] = {}
        #: (phase, kernel, source) -> wall seconds
        self._seconds: dict[tuple[str, str, str], float] = {}

    # -- charging ------------------------------------------------------------

    def scope(self, *, phase: str, kernel: str, source: str) -> AttributionScope:
        """A charging handle bound to one ``(phase, kernel, source)``."""
        return AttributionScope(self, phase, kernel, source)

    def _cell(self, phase: str, kernel: str, source: str,
              bucket: str) -> list[int]:
        key = (phase, kernel, source, bucket)
        cell = self._cells.get(key)
        if cell is None:
            cell = [0, 0, 0]
            self._cells[key] = cell
        return cell

    def charge(self, *, phase: str, kernel: str, source: str,
               degree: int | None, ops: int, triangles: int = 0,
               pairs: int = 1) -> None:
        """One-off charge without a scope (tests, ad-hoc accounting)."""
        cell = self._cell(phase, kernel, source, degree_bucket(degree))
        cell[0] += pairs
        cell[1] += ops
        cell[2] += triangles

    def _charge_time(self, phase: str, kernel: str, source: str,
                     seconds: float) -> None:
        key = (phase, kernel, source)
        self._seconds[key] = self._seconds.get(key, 0.0) + float(seconds)

    # -- introspection -------------------------------------------------------

    @property
    def total_ops(self) -> int:
        """Sum of all charged ops — must equal the engine's Eq. 3 count."""
        return sum(cell[1] for cell in self._cells.values())

    @property
    def total_pairs(self) -> int:
        return sum(cell[0] for cell in self._cells.values())

    @property
    def total_triangles(self) -> int:
        return sum(cell[2] for cell in self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def __bool__(self) -> bool:
        return bool(self._cells)

    def cells(self) -> list[dict]:
        """The charge cells as sorted plain dicts (deterministic order)."""
        rows = []
        for (phase, kernel, source, bucket) in sorted(
                self._cells,
                key=lambda k: (k[0], k[1], k[2], _bucket_sort_key(k[3]))):
            pairs, ops, triangles = self._cells[(phase, kernel, source, bucket)]
            rows.append({
                "phase": phase, "kernel": kernel, "source": source,
                "bucket": bucket, "pairs": pairs, "ops": ops,
                "triangles": triangles,
            })
        return rows

    def seconds(self) -> list[dict]:
        """Wall-second charges as sorted plain dicts."""
        return [
            {"phase": phase, "kernel": kernel, "source": source,
             "seconds": self._seconds[(phase, kernel, source)]}
            for (phase, kernel, source) in sorted(self._seconds)
        ]

    # -- serialization -------------------------------------------------------

    def snapshot(self, *, deterministic: bool = True) -> dict:
        """Plain-dict export, cells sorted.

        ``deterministic=True`` (the default) omits the wall-second
        charges, leaving a payload that is a pure function of the
        workload — the form the byte-determinism gate serializes.
        """
        payload: dict = {
            "schema": ATTRIBUTION_SCHEMA,
            "version": ATTRIBUTION_VERSION,
            "cells": self.cells(),
            "totals": {
                "pairs": self.total_pairs,
                "ops": self.total_ops,
                "triangles": self.total_triangles,
            },
        }
        if not deterministic:
            payload["seconds"] = self.seconds()
        return payload

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a serialized :meth:`snapshot` into this table.

        The cross-process path: forked workers ship their tables as
        plain dicts (pickle-friendly) and the parent sums them.  Cells
        add; wall seconds add.
        """
        for row in snapshot.get("cells", ()):
            cell = self._cell(row["phase"], row["kernel"], row["source"],
                              row["bucket"])
            cell[0] += int(row.get("pairs", 0))
            cell[1] += int(row.get("ops", 0))
            cell[2] += int(row.get("triangles", 0))
        for row in snapshot.get("seconds", ()):
            self._charge_time(row["phase"], row["kernel"], row["source"],
                              float(row["seconds"]))

    def merge(self, other: "Attribution") -> None:
        """Fold *other*'s cells and seconds into this table."""
        for key, (pairs, ops, triangles) in other._cells.items():
            cell = self._cell(*key)
            cell[0] += pairs
            cell[1] += ops
            cell[2] += triangles
        for key, seconds in other._seconds.items():
            self._charge_time(*key, seconds)

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "Attribution":
        table = cls()
        table.merge_snapshot(snapshot)
        return table


def validate_attribution_dict(data: Mapping) -> list[str]:
    """Schema errors in a serialized attribution snapshot (empty = valid).

    ``benchmarks/check_report_schema.py`` runs it over the snapshot a
    committed ``BENCH_*.json`` embeds as ``derived.attribution``.
    """
    errors: list[str] = []
    if not isinstance(data, Mapping):
        return ["attribution must be a JSON object"]
    if data.get("schema") != ATTRIBUTION_SCHEMA:
        errors.append(f"schema must be {ATTRIBUTION_SCHEMA!r}, "
                      f"got {data.get('schema')!r}")
    if not isinstance(data.get("version"), int):
        errors.append("version must be an integer")
    cells = data.get("cells")
    if not isinstance(cells, list):
        errors.append("cells must be a list")
        cells = []
    ops_total = pairs_total = triangles_total = 0
    for index, row in enumerate(cells):
        if not isinstance(row, Mapping):
            errors.append(f"cells[{index}] must be an object")
            continue
        for field in ("phase", "kernel", "source", "bucket"):
            if not isinstance(row.get(field), str) or not row.get(field):
                errors.append(f"cells[{index}].{field} must be a non-empty "
                              f"string")
        for field in ("pairs", "ops", "triangles"):
            value = row.get(field)
            if not isinstance(value, int) or value < 0:
                errors.append(f"cells[{index}].{field} must be a "
                              f"non-negative integer")
            else:
                if field == "ops":
                    ops_total += value
                elif field == "pairs":
                    pairs_total += value
                else:
                    triangles_total += value
    totals = data.get("totals")
    if not isinstance(totals, Mapping):
        errors.append("totals must be an object")
    elif isinstance(cells, list) and not errors:
        # Conservation inside the document itself.
        for field, summed in (("ops", ops_total), ("pairs", pairs_total),
                              ("triangles", triangles_total)):
            if totals.get(field) != summed:
                errors.append(f"totals.{field}={totals.get(field)} does not "
                              f"equal the cell sum {summed}")
    return errors


def render_attribution(source: "Attribution | Mapping", *,
                       max_rows: int = 40, width: int = 28) -> str:
    """ASCII table of an attribution: one row per cell, ops-share bars.

    *source* is a live :class:`Attribution` or a serialized snapshot.
    Rows sort by descending ops (the question is "where do the ops go"),
    ties broken by coordinate for deterministic output.
    """
    from repro.util.tables import format_table

    snapshot = (source.snapshot(deterministic=False)
                if isinstance(source, Attribution) else source)
    cells: Iterable[Mapping] = snapshot.get("cells", ())
    totals = snapshot.get("totals", {})
    total_ops = int(totals.get("ops", 0))
    rows = sorted(
        cells,
        key=lambda row: (-int(row["ops"]), row["phase"], row["kernel"],
                         row["source"], _bucket_sort_key(row["bucket"])),
    )[:max_rows]
    table_rows = []
    for row in rows:
        ops = int(row["ops"])
        share = ops / total_ops if total_ops else 0.0
        bar = "#" * max(1 if ops else 0, round(share * width))
        table_rows.append((
            row["phase"], row["kernel"], row["source"], row["bucket"],
            f"{int(row['pairs']):,}", f"{ops:,}", f"{share * 100:5.1f}%",
            f"{int(row['triangles']):,}", bar,
        ))
    sections = [format_table(
        ["phase", "kernel", "source", "degree", "pairs", "ops", "ops%",
         "triangles", "share"],
        table_rows,
        title=f"cost attribution — {total_ops:,} Eq. 3 ops, "
              f"{int(totals.get('triangles', 0)):,} triangles",
    )]
    seconds = snapshot.get("seconds") or ()
    if seconds:
        sec_rows = [
            (row["phase"], row["kernel"], row["source"],
             f"{float(row['seconds']):.4f}")
            for row in sorted(seconds, key=lambda r: -float(r["seconds"]))
        ]
        sections.append(format_table(
            ["phase", "kernel", "source", "wall (s)"], sec_rows,
            title="wall time by phase (excluded from deterministic output)",
        ))
    return "\n\n".join(sections)

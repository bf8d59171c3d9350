"""Run-trace serialization.

A :class:`~repro.sim.trace.RunTrace` captures everything needed to replay
a run under new machine configurations; persisting it decouples the
(expensive) algorithm execution from the (cheap) scheduling experiments —
e.g. sweep core counts tomorrow without re-triangulating today.

The format is plain JSON: stable, diffable, and small (traces hold
per-page op counts, not triangles).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import SimulationError
from repro.sim.trace import ExternalRead, IterationTrace, RunTrace

__all__ = ["load_trace", "save_trace", "trace_to_dict", "trace_from_dict"]

_FORMAT_VERSION = 1


def trace_to_dict(run_trace: RunTrace) -> dict:
    """Encode *run_trace* as JSON-serializable primitives."""
    return {
        "version": _FORMAT_VERSION,
        "num_pages": run_trace.num_pages,
        "m_in": run_trace.m_in,
        "m_ex": run_trace.m_ex,
        "sync_external": run_trace.sync_external,
        "triangles": run_trace.triangles,
        "iterations": [
            {
                "fill_reads": it.fill_reads,
                "fill_buffered": it.fill_buffered,
                "candidate_ops": it.candidate_ops,
                "internal_page_ops": list(it.internal_page_ops),
                "external_reads": [
                    [read.pid, read.cpu_ops, int(read.buffered)]
                    for read in it.external_reads
                ],
                "output_pages": it.output_pages,
            }
            for it in run_trace.iterations
        ],
    }


def trace_from_dict(payload: dict) -> RunTrace:
    """Decode a trace written by :func:`trace_to_dict`."""
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise SimulationError(f"unsupported trace format version {version!r}")
    try:
        iterations = [
            IterationTrace(
                fill_reads=entry["fill_reads"],
                fill_buffered=entry["fill_buffered"],
                candidate_ops=entry["candidate_ops"],
                internal_page_ops=list(entry["internal_page_ops"]),
                external_reads=[
                    ExternalRead(pid=pid, cpu_ops=ops, buffered=bool(buffered))
                    for pid, ops, buffered in entry["external_reads"]
                ],
                output_pages=entry.get("output_pages", 0),
            )
            for entry in payload["iterations"]
        ]
        return RunTrace(
            num_pages=payload["num_pages"],
            m_in=payload["m_in"],
            m_ex=payload["m_ex"],
            iterations=iterations,
            triangles=payload.get("triangles", 0),
            sync_external=payload.get("sync_external", False),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"malformed trace payload: {exc}") from exc


def save_trace(run_trace: RunTrace, path: str | Path) -> None:
    """Write *run_trace* as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(run_trace)), encoding="utf-8")


def load_trace(path: str | Path) -> RunTrace:
    """Load a trace written by :func:`save_trace`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SimulationError(f"{path}: not valid JSON") from exc
    return trace_from_dict(payload)

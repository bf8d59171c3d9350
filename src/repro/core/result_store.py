"""Reading and checkpointing triangle listings in the nested representation.

:class:`NestedOutputWriter` produces the paper's ``<u, v, {w...}>``
encoding; this module is its consumer side: a streaming reader (the
decoded groups never need to fit in memory at once), and the
:class:`RunCheckpoint` that stores each committed iteration's groups so
a resumed run replays them.  Per-vertex and per-edge triangle queries
are :mod:`repro.graph.metrics`.
"""

from __future__ import annotations

import json
import struct
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from repro.errors import CheckpointError, GraphFormatError
from repro.exec.block import GroupBlock
from repro.memory.base import emit_block

__all__ = ["GroupCaptureSink", "RunCheckpoint", "read_nested_groups"]

_GROUP_HEADER = struct.Struct("<IIH")
_VERTEX = struct.Struct("<I")


def read_nested_groups(
    source: str | Path | IO[bytes],
) -> Iterator[tuple[int, int, list[int]]]:
    """Stream ``(u, v, ws)`` groups from a nested-representation file."""
    own = False
    if isinstance(source, (str, Path)):
        handle: IO[bytes] = open(source, "rb")
        own = True
    else:
        handle = source
    try:
        while True:
            header = handle.read(_GROUP_HEADER.size)
            if not header:
                return
            if len(header) != _GROUP_HEADER.size:
                raise GraphFormatError("truncated nested group header")
            u, v, count = _GROUP_HEADER.unpack(header)
            body = handle.read(_VERTEX.size * count)
            if len(body) != _VERTEX.size * count:
                raise GraphFormatError("truncated nested group body")
            yield u, v, list(struct.unpack(f"<{count}I", body))
    finally:
        if own:
            handle.close()


class GroupCaptureSink:
    """A sink wrapper that records every nested group it forwards.

    The checkpointing engines wrap the run's sink with one of these per
    *uncommitted* iteration, so a committed iteration's exact output can
    later be replayed from the checkpoint without re-triangulating.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        #: What was forwarded, in order and as it came: whole blocks, and
        #: one-group sequences for single emits.
        self._captured: list[Iterable[tuple]] = []

    @property
    def groups(self) -> Iterator[tuple[int, int, Sequence[int]]]:
        """Every forwarded group, in order, as :meth:`RunCheckpoint.record`
        takes them (it is the one place they become JSON-ready ints)."""
        return chain.from_iterable(self._captured)

    def emit(self, u: int, v: int, ws: Sequence[int]) -> None:
        self._captured.append(((u, v, ws),))
        self._inner.emit(u, v, ws)

    def emit_block(self, block: GroupBlock) -> None:
        self._captured.append(block)
        emit_block(self._inner, block)

    def __getattr__(self, name):  # count, pages_written, ...
        return getattr(self._inner, name)


class RunCheckpoint:
    """Iteration-level checkpoint of a disk-based triangulation run.

    OPT's iteration barrier (Algorithm 3 line 11) is a natural commit
    point: when iteration *i* completes, every triangle whose smallest
    vertex lives in chunk *i* has been emitted and will never be touched
    again.  The checkpoint records, per committed iteration, the chunk's
    page bounds, the emitted nested groups, and (for the simulated
    engine) the measured :class:`~repro.sim.trace.IterationTrace` — so a
    run that dies mid-iteration can be *resumed*: committed iterations
    replay their stored groups into the sink (``recovery.checkpoint.replayed``)
    and execution restarts at the first uncommitted chunk, without
    re-listing a single already-emitted triangle.

    The JSON ``save`` / ``load`` round-trip makes the checkpoint a
    durable artifact; ``meta`` pins the store geometry and plugin so a
    checkpoint can never silently replay into a different run shape.
    """

    VERSION = 1

    def __init__(self, meta: dict | None = None):
        self.meta: dict = dict(meta or {})
        self._iterations: dict[int, dict] = {}

    # -- binding -------------------------------------------------------------

    def bind(self, **meta) -> None:
        """Pin run geometry (``num_pages=...``, ``plugin=...``).

        The first run fills the fields in; a resume validates them and
        raises :class:`CheckpointError` on any mismatch.
        """
        for key, value in meta.items():
            existing = self.meta.get(key)
            if existing is None:
                self.meta[key] = value
            elif existing != value:
                raise CheckpointError(
                    f"checkpoint was recorded with {key}={existing!r}; "
                    f"this run has {key}={value!r}"
                )

    # -- recording -----------------------------------------------------------

    def has(self, index: int) -> bool:
        return index in self._iterations

    def committed(self) -> list[int]:
        return sorted(self._iterations)

    def record(
        self,
        index: int,
        start_pid: int,
        end_pid: int,
        groups: Iterable[tuple[int, int, Sequence[int]]],
        iteration_trace: dict | None = None,
    ) -> None:
        """Commit iteration *index* (bounds, emitted groups, trace)."""
        if index in self._iterations:
            raise CheckpointError(f"iteration {index} is already committed")
        self._iterations[index] = {
            "start": int(start_pid),
            "end": int(end_pid),
            "groups": [(int(u), int(v), [int(w) for w in ws])
                       for u, v, ws in groups],
            "trace": iteration_trace,
        }

    # -- replay ---------------------------------------------------------------

    def bounds(self, index: int) -> tuple[int, int]:
        entry = self._iterations[index]
        return entry["start"], entry["end"]

    def trace_of(self, index: int) -> dict | None:
        return self._iterations[index].get("trace")

    def replay_into(self, index: int, sink) -> int:
        """Emit iteration *index*'s stored groups into *sink*.

        Returns the number of triangles replayed.
        """
        if index not in self._iterations:
            raise CheckpointError(f"iteration {index} is not committed")
        triangles = 0
        for u, v, ws in self._iterations[index]["groups"]:
            sink.emit(u, v, ws)
            triangles += len(ws)
        return triangles

    # -- persistence ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": "repro.core/run-checkpoint",
            "version": self.VERSION,
            "meta": self.meta,
            "iterations": {
                str(index): entry
                for index, entry in sorted(self._iterations.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunCheckpoint":
        if data.get("schema") != "repro.core/run-checkpoint":
            raise CheckpointError(
                f"not a checkpoint payload (schema {data.get('schema')!r})"
            )
        if int(data.get("version", 0)) > cls.VERSION:
            raise CheckpointError(
                f"checkpoint version {data.get('version')} is newer than "
                f"supported {cls.VERSION}"
            )
        checkpoint = cls(meta=data.get("meta", {}))
        for key, entry in data.get("iterations", {}).items():
            checkpoint._iterations[int(key)] = {
                "start": int(entry["start"]),
                "end": int(entry["end"]),
                "groups": [(int(u), int(v), [int(w) for w in ws])
                           for u, v, ws in entry["groups"]],
                "trace": entry.get("trace"),
            }
        return checkpoint

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunCheckpoint":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

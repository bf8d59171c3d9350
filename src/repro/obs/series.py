"""Bounded in-memory time series: the telemetry pipeline's storage.

A :class:`Series` is a ring buffer of ``(t, value)`` points — the last
``capacity`` samples of one scalar signal (a counter's cumulative value,
a counter's per-second rate, a gauge, a histogram percentile, one
worker's chunk progress).  A :class:`SeriesBank` interns series by name,
exactly as the :class:`~repro.obs.registry.MetricsRegistry` interns
instruments, so every sampler tick lands its readings on stable keys
(``"buffer.hits.rate"``, ``"parallel.w0.chunks"``).

Ring buffers keep live telemetry bounded by construction: a sampler
ticking once a second for a week still holds ``capacity`` points per
series, which is what lets the pipeline stay on for arbitrarily long
runs without growing.

Like the rest of :mod:`repro.obs`, nothing here imports anything outside
the standard library, and nothing here reads a clock — callers supply
``t``, which is what keeps sim-clock telemetry a pure function of the
workload.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Iterator

__all__ = ["Series", "SeriesBank"]

#: One sampled point: (timestamp, value).
Point = tuple[float, float]


class Series:
    """One named signal: a bounded, append-only sequence of points.

    Timestamps are whatever clock the sampler runs on — wall seconds
    since its epoch, or iteration ordinals in sim mode — and must be
    supplied by the caller (this class never reads a clock).
    """

    def __init__(self, name: str, *, capacity: int = 512):
        if capacity < 1:
            raise ValueError("series capacity must be at least one point")
        self.name = name
        self.capacity = capacity
        self._points: deque[Point] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        self._points.append((float(t), float(value)))

    def points(self) -> list[Point]:
        """All retained points, oldest first."""
        return list(self._points)

    def values(self) -> list[float]:
        return [value for _, value in self._points]

    def times(self) -> list[float]:
        return [t for t, _ in self._points]

    def last(self) -> Point | None:
        return self._points[-1] if self._points else None

    def rate(self) -> float:
        """Mean slope over the retained window (value units per t unit).

        The straight line between the oldest and newest retained points —
        the chunk-completion rate the ``repro top`` ETA uses.  Zero when
        fewer than two points are retained or time has not advanced.
        """
        if len(self._points) < 2:
            return 0.0
        t0, v0 = self._points[0]
        t1, v1 = self._points[-1]
        if t1 <= t0:
            return 0.0
        return (v1 - v0) / (t1 - t0)

    def __len__(self) -> int:
        return len(self._points)

    def to_dict(self) -> dict:
        return {"name": self.name, "capacity": self.capacity,
                "points": [[t, v] for t, v in self._points]}


class SeriesBank:
    """Interning factory for :class:`Series`, keyed by name.

    Thread-safe at the interning level: the wall-clock sampler's
    background thread and a caller inspecting the bank may race on
    :meth:`series`, so the name table takes a lock.  Appends go through
    the sampler's own lock (one writer), so `Series` itself stays plain.
    """

    def __init__(self, *, capacity: int = 512):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._series: dict[str, Series] = {}

    def series(self, name: str) -> Series:
        with self._lock:
            found = self._series.get(name)
            if found is None:
                found = Series(name, capacity=self.capacity)
                self._series[name] = found
            return found

    def record(self, name: str, t: float, value: float) -> None:
        self.series(name).append(t, value)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def get(self, name: str) -> Series | None:
        with self._lock:
            return self._series.get(name)

    def items(self) -> Iterator[tuple[str, Series]]:
        with self._lock:
            snapshot = sorted(self._series.items())
        return iter(snapshot)

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._series

    def to_dict(self) -> dict:
        """Deterministic export: series sorted by name, points in order."""
        return {name: series.to_dict() for name, series in self.items()}

    def last_values(self, names: Iterable[str] | None = None) -> dict:
        """``{name: latest value}`` for *names* (default: every series)."""
        selected = list(names) if names is not None else self.names()
        out: dict[str, float] = {}
        for name in selected:
            series = self.get(name)
            if series is None:
                continue
            last = series.last()
            if last is not None:
                out[name] = last[1]
        return out

"""Live telemetry: periodic sampling of the metrics registry into ticks.

Every observability surface before this module was post-hoc — the
:class:`~repro.obs.report.RunReport` serializes *after* the run, the
trace exports *after* the run.  The :class:`TelemetrySampler` closes that
gap: it periodically reads a :class:`~repro.obs.registry.MetricsRegistry`
and folds each reading into one *tick record* — counter cumulative
values *and* rates, gauge values, histogram count/p50/p99 — kept in a
bounded in-memory window and streamable to disk as JSONL while the run
is still going.  The tick record is the telemetry store; nothing else
holds sampled values.

Two clock modes, mirroring :class:`~repro.obs.trace.EventTracer`:

* ``clock="wall"`` — timestamps are seconds since the sampler's epoch.
  ``sample()`` is called at natural boundaries (the threaded engine
  samples per iteration, the parallel engine from its drain loop).
* ``clock="sim"`` — every sample *must* carry an explicit ``now``
  (engines pass iteration/chunk ordinals).  A sim-clock tick stream is
  therefore a pure function of the workload: byte-identical JSONL
  across repeat runs — and, for the process-parallel engine's
  merge-replay sampling, across worker counts (the determinism gate in
  ``tests/test_telemetry.py``).

Overhead contract (pinned by
``benchmarks/bench_instrumentation_overhead.py``):
an enabled per-iteration sampler costs <10% wall clock on the Fig. 3a
workload, and ``enabled=False`` costs nothing beyond the ``is not None``
guard — :class:`~repro.obs.RunContext` turns a disabled sampler into
``None`` when it is built, as it does a disabled tracer.

Like the rest of :mod:`repro.obs`, nothing here imports anything outside
the standard library.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import IO, Callable, Mapping

from repro.obs.registry import MetricsRegistry

__all__ = ["TelemetrySampler", "fold_telemetry"]

#: Histogram summary fields copied onto tick records.
_HISTOGRAM_FIELDS = ("count", "mean", "p50", "p99")


class TelemetrySampler:
    """Samples a metrics registry into a bounded window of JSONL ticks.

    Parameters
    ----------
    registry:
        The registry to sample.  May be ``None`` at construction (the
        CLI builds the sampler before the engine builds its report) and
        bound later with :meth:`bind`; sampling unbound raises.
    clock:
        ``"wall"`` (implicit timestamps allowed) or ``"sim"`` (explicit
        ``now`` required, deterministic).
    interval:
        Minimum seconds between :meth:`maybe_sample` ticks.
    capacity:
        Tick records retained in memory (the newest ones).  Streams
        written via *stream* are unbounded by design (they live on
        disk).
    stream:
        Optional text file object; every tick record is appended to it
        as one JSON line and flushed, so the file can be read while the
        run is still going.
    enabled:
        ``False`` constructs an inert sampler; ``RunContext`` drops it,
        so the hot path pays only the ``is not None`` guard.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        *,
        clock: str = "wall",
        interval: float = 0.5,
        capacity: int = 512,
        stream: IO[str] | None = None,
        enabled: bool = True,
    ):
        if clock not in ("wall", "sim"):
            raise ValueError(f"clock must be 'wall' or 'sim', got {clock!r}")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.registry = registry
        self.clock = clock
        self.interval = interval
        self.capacity = capacity
        self.enabled = enabled
        self._stream = stream
        self._lock = threading.Lock()
        self._ticks: list[dict] = []
        self._seq = 0
        self._last_t: float | None = None
        self._prev_counters: dict[str, float] = {}
        self._epoch = time.perf_counter()
        self._providers: list[tuple[str, Callable[[float], object]]] = []

    # -- wiring --------------------------------------------------------------

    def bind(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Attach *registry* if none is bound yet; returns the bound one.

        Engines call this on entry (through
        :meth:`RunContext.bound_telemetry`): a sampler constructed
        without a registry (the CLI path) adopts the run's report
        registry, while an explicitly bound sampler keeps sampling what
        its caller chose.
        """
        if self.registry is None:
            self.registry = registry
        return self.registry

    def add_provider(self, name: str,
                     provider: Callable[[float], object]) -> None:
        """Merge ``provider(now)``'s payload into each tick under *name*.

        The heartbeat monitor registers a provider that contributes the
        per-worker progress section (``workers``).
        """
        with self._lock:
            self._providers.append((name, provider))

    def now(self) -> float:
        """Seconds since the sampler's epoch (wall clock)."""
        return time.perf_counter() - self._epoch

    # -- sampling ------------------------------------------------------------

    def sample(self, now: float | None = None, **extra: object) -> dict:
        """Take one sample tick; returns the tick record.

        ``now`` is the tick's timestamp: mandatory in sim mode (the
        deterministic tick axis — iteration or chunk ordinals), optional
        in wall mode (defaults to :meth:`now`).  Keyword *extra* fields
        land on the record verbatim (``final=True`` marks the last tick
        of a run).
        """
        if not self.enabled:
            return {}
        if self.registry is None:
            raise ValueError("sampler has no registry bound; call bind()")
        if now is None:
            if self.clock == "sim":
                raise ValueError(
                    "sim-clock telemetry requires an explicit sample time "
                    "(iteration/chunk ordinal); implicit wall timestamps "
                    "would break byte-determinism"
                )
            now = self.now()
        now = float(now)
        snapshot = self.registry.snapshot()
        with self._lock:
            record = self._fold_locked(now, snapshot, extra)
        self.registry.counter("telemetry.samples").inc()
        return record

    def maybe_sample(self, now: float | None = None, **extra: object) -> dict | None:
        """Sample only if at least ``interval`` has passed since the last tick.

        The rate limiter for callers that poll faster than they want to
        sample (the parallel engine's heartbeat monitor loop).
        """
        if not self.enabled:
            return None
        probe = self.now() if now is None and self.clock == "wall" else now
        with self._lock:
            last = self._last_t
        if last is not None and probe is not None \
                and probe - last < self.interval:
            return None
        return self.sample(now, **extra)

    def _fold_locked(self, now: float, snapshot: Mapping,
                     extra: Mapping) -> dict:
        """Fold one registry snapshot into a tick record and log it."""
        seq = self._seq
        self._seq += 1
        last_t = self._last_t
        dt = (now - last_t) if last_t is not None else 0.0
        rates: dict[str, float] = {}
        for key, value in snapshot["counters"].items():
            value = float(value)
            prev = self._prev_counters.get(key)
            rate = ((value - prev) / dt
                    if prev is not None and dt > 0 else 0.0)
            rates[key] = rate
            self._prev_counters[key] = value
        histograms: dict[str, dict] = {}
        for key, summary in snapshot["histograms"].items():
            fields = {field: summary[field] for field in _HISTOGRAM_FIELDS}
            histograms[key] = fields
        record: dict = {
            "t": now,
            "seq": seq,
            "counters": dict(sorted(snapshot["counters"].items())),
            "gauges": dict(sorted(snapshot["gauges"].items())),
            "histograms": dict(sorted(histograms.items())),
            "rates": dict(sorted(rates.items())),
        }
        for name, provider in self._providers:
            record[name] = provider(now)
        for key, value in extra.items():
            record[key] = value
        self._last_t = now
        self._ticks.append(record)
        if len(self._ticks) > self.capacity:
            del self._ticks[0]
        if self._stream is not None:
            self._stream.write(_tick_line(record) + "\n")
            self._stream.flush()
        return record

    def finish(self, now: float | None = None) -> dict:
        """Emit the run's final tick.

        The final tick carries ``"final": true`` — the end-of-stream
        marker for whoever follows the JSONL file.  In sim mode with no
        explicit *now*, the final tick lands one ordinal past the last
        sampled tick (deterministic, since the tick history is).
        """
        if now is None and self.clock == "sim":
            with self._lock:
                last = self._last_t
            now = last + 1.0 if last is not None else 0.0
        return self.sample(now, final=True)

    # -- export --------------------------------------------------------------

    def ticks(self) -> list[dict]:
        """The retained tick records, oldest first."""
        with self._lock:
            return list(self._ticks)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ticks)

    @property
    def samples(self) -> int:
        """Ticks taken so far — not capped at ``capacity`` like ``len()``."""
        with self._lock:
            return self._seq

    def to_jsonl(self) -> str:
        """Retained ticks as JSONL — deterministic bytes in sim mode.

        Keys are sorted and separators fixed, so the bytes are a pure
        function of the tick records; in sim mode the records themselves
        are a pure function of the workload.
        """
        return "".join(_tick_line(record) + "\n" for record in self.ticks())

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path


def _tick_line(record: Mapping) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def fold_telemetry(report: object, sampler: TelemetrySampler) -> dict:
    """Land the sampler's final state in *report*'s derived figures.

    ``report.derived["telemetry"]`` gets the number of samples taken
    plus the last tick flattened to ``{series name: value}``
    (``<counter>``, ``<counter>.rate``, ``<gauge>``, ``<histogram>.p50``
    / ``.p99``), so ``benchmarks/compare_reports.py`` diffs of two
    RunReports cover the sampled signals without shipping the tick
    window inside every report.  Returns the folded payload.
    """
    ticks = sampler.ticks()
    last = ticks[-1] if ticks else {}
    series: dict[str, float] = {}
    for key, value in last.get("counters", {}).items():
        series[key] = float(value)
        series[f"{key}.rate"] = last["rates"][key]
    for key, value in last.get("gauges", {}).items():
        series[key] = float(value)
    for key, summary in last.get("histograms", {}).items():
        series[f"{key}.p50"] = float(summary["p50"])
        series[f"{key}.p99"] = float(summary["p99"])
    payload = {
        "samples": sampler.samples,
        "series": dict(sorted(series.items())),
    }
    report.derive("telemetry", payload)  # type: ignore[attr-defined]
    return payload

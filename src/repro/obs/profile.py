"""Profile rendering and the opt-in wall-clock stack sampler.

Two profile producers share this module's output pipeline:

* the deterministic cost-attribution table
  (:class:`~repro.obs.attribution.Attribution`) — op-weighted
  ``(phase, kernel, source, degree-bucket)`` stacks, byte-identical in
  sim mode;
* the :class:`StackSampler` — an opt-in background thread that samples
  every live Python thread's call stack at a fixed interval
  (``sys._current_frames``), the classic wall profiler for answering
  "where does the *wall* time go" when the op table says the ops are
  cheap but the clock disagrees.

Both produce the same *collapsed-stack* shape — a mapping from a frame
tuple to an integer weight — which renders two ways:

* :func:`collapsed_text` — Brendan Gregg's collapsed format
  (``frame;frame;frame weight`` per line), the input every flame-graph
  tool accepts;
* :func:`to_speedscope` — a `speedscope <https://www.speedscope.app>`_
  "sampled" profile document, validated by :func:`validate_speedscope`
  exactly as Chrome traces are validated by
  :func:`repro.obs.trace.validate_chrome_trace`.

Overhead contract (pinned by
``benchmarks/bench_instrumentation_overhead.py``): an enabled sampler
at the default interval costs <10% wall on the Fig. 3b in-memory
workload, and ``enabled=False`` costs nothing beyond the ``is not
None`` guard — the same normalization idiom the tracer and
telemetry sampler use.

Like the rest of :mod:`repro.obs`, nothing here imports anything outside
the standard library.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Mapping

__all__ = [
    "StackSampler",
    "collapsed_text",
    "to_speedscope",
    "validate_speedscope",
    "write_speedscope",
]

SPEEDSCOPE_SCHEMA_URL = "https://www.speedscope.app/file-format-schema.json"

#: Default sampling period: 5 ms keeps overhead well under the 10% budget
#: while still resolving millisecond-scale phases.
DEFAULT_INTERVAL = 0.005


class StackSampler:
    """Samples every thread's Python stack on a background timer.

    Parameters
    ----------
    interval:
        Seconds between samples (wall clock).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; each
        sampling pass increments ``profile.samples`` and the cumulative
        seconds spent *inside* the sampler land on the
        ``profile.overhead`` gauge, so the profiler's own cost is
        visible in the same report it profiles.
    max_depth:
        Frames kept per stack, innermost-first truncation guard.
    enabled:
        ``False`` constructs an inert sampler (both :meth:`start` and
        :meth:`sample_once` become no-ops) — callers normalize to
        ``None`` exactly like a disabled tracer.
    """

    def __init__(self, *, interval: float = DEFAULT_INTERVAL,
                 registry=None, max_depth: int = 64,
                 enabled: bool = True):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self.registry = registry
        self.max_depth = max_depth
        self.enabled = enabled
        self._lock = threading.Lock()
        self._stacks: dict[tuple[str, ...], int] = {}
        self._samples = 0
        self._flushed_samples = 0
        self._overhead = 0.0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the sampling thread (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            if self._thread is not None:
                raise ValueError("sampler thread already running")
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="stack-sampler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the sampling thread and flush counters (idempotent)."""
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5)
        if self.registry is not None:
            with self._lock:
                fresh = self._samples - self._flushed_samples
                self._flushed_samples = self._samples
                overhead = self._overhead
            self.registry.counter("profile.samples").inc(fresh)
            self.registry.gauge("profile.overhead").set(overhead)

    def __enter__(self) -> "StackSampler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        skip = {threading.get_ident()}
        while not self._stop.wait(self.interval):
            self.sample_once(skip_threads=skip)

    # -- sampling ------------------------------------------------------------

    def sample_once(self, *, skip_threads: set[int] | None = None) -> int:
        """Take one sample of every live thread; returns stacks captured.

        Public so tests (and callers without a background thread) can
        sample deterministically at chosen moments.
        """
        if not self.enabled:
            return 0
        started = time.perf_counter()
        frames = sys._current_frames()
        captured = 0
        for ident, frame in frames.items():
            if skip_threads and ident in skip_threads:
                continue
            stack = self._walk(frame)
            if not stack:
                continue
            captured += 1
            with self._lock:
                self._stacks[stack] = self._stacks.get(stack, 0) + 1
        with self._lock:
            self._samples += 1
            self._overhead += time.perf_counter() - started
        return captured

    def _walk(self, frame) -> tuple[str, ...]:
        """Root-first frame labels: ``module:function`` per frame."""
        labels: list[str] = []
        while frame is not None and len(labels) < self.max_depth:
            code = frame.f_code
            module = Path(code.co_filename).stem
            labels.append(f"{module}:{code.co_name}")
            frame = frame.f_back
        labels.reverse()
        return tuple(labels)

    # -- export --------------------------------------------------------------

    @property
    def samples(self) -> int:
        """Sampling passes taken so far."""
        with self._lock:
            return self._samples

    @property
    def overhead_seconds(self) -> float:
        """Cumulative wall seconds spent inside the sampler itself."""
        with self._lock:
            return self._overhead

    def collapsed(self) -> dict[tuple[str, ...], int]:
        """Captured stacks as ``frame-tuple -> sample count``."""
        with self._lock:
            return dict(self._stacks)


# ---------------------------------------------------------------------------
# Collapsed-stack rendering (shared by sampler and attribution)
# ---------------------------------------------------------------------------


def collapsed_text(stacks: Mapping[tuple[str, ...], int]) -> str:
    """Collapsed-stack flame-graph input: ``a;b;c weight`` per line.

    Lines sort by frame tuple, so equal stack mappings produce equal
    bytes — the property the sim-mode determinism gate hashes.
    """
    lines = [f"{';'.join(stack)} {weight}"
             for stack, weight in sorted(stacks.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(stacks: Mapping[tuple[str, ...], int], *,
                  name: str = "profile", unit: str = "none") -> dict:
    """A speedscope "sampled" profile document from collapsed stacks.

    *unit* is ``"none"`` for op-weighted attribution profiles and
    ``"seconds"``-style units for wall samples.  Frames are interned in
    first-appearance order over the sorted stacks, so the document is a
    pure function of the stack mapping (byte-deterministic through
    ``json.dumps(sort_keys=True)``).
    """
    frame_index: dict[str, int] = {}
    frames: list[dict] = []
    samples: list[list[int]] = []
    weights: list[float] = []
    for stack, weight in sorted(stacks.items()):
        indexed = []
        for label in stack:
            index = frame_index.get(label)
            if index is None:
                index = len(frames)
                frame_index[label] = index
                frames.append({"name": label})
            indexed.append(index)
        samples.append(indexed)
        weights.append(weight)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA_URL,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": unit,
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
        "exporter": "repro.obs.profile",
    }


def write_speedscope(path: str | Path, document: Mapping) -> Path:
    """Serialize a speedscope document deterministically to *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def validate_speedscope(data: object) -> list[str]:
    """Schema errors in a speedscope document (empty list = valid).

    Mirrors :func:`repro.obs.trace.validate_chrome_trace`: structural
    checks strict enough that a document passing here loads in the
    speedscope UI — frame references in range, parallel
    samples/weights arrays, sane value bounds.
    """
    errors: list[str] = []
    if not isinstance(data, Mapping):
        return ["speedscope document must be a JSON object"]
    if data.get("$schema") != SPEEDSCOPE_SCHEMA_URL:
        errors.append(f"$schema must be {SPEEDSCOPE_SCHEMA_URL!r}")
    shared = data.get("shared")
    frames: list = []
    if not isinstance(shared, Mapping) or not isinstance(
            shared.get("frames"), list):
        errors.append("shared.frames must be a list")
    else:
        frames = shared["frames"]
        for index, frame in enumerate(frames):
            if not isinstance(frame, Mapping) or not isinstance(
                    frame.get("name"), str) or not frame.get("name"):
                errors.append(f"shared.frames[{index}].name must be a "
                              f"non-empty string")
    profiles = data.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        errors.append("profiles must be a non-empty list")
        profiles = []
    for pindex, profile in enumerate(profiles):
        where = f"profiles[{pindex}]"
        if not isinstance(profile, Mapping):
            errors.append(f"{where} must be an object")
            continue
        if profile.get("type") not in ("sampled", "evented"):
            errors.append(f"{where}.type must be 'sampled' or 'evented'")
        if not isinstance(profile.get("name"), str):
            errors.append(f"{where}.name must be a string")
        for field in ("startValue", "endValue"):
            if not isinstance(profile.get(field), (int, float)):
                errors.append(f"{where}.{field} must be numeric")
        if profile.get("type") != "sampled":
            continue
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            errors.append(f"{where}.samples and .weights must be lists")
            continue
        if len(samples) != len(weights):
            errors.append(f"{where}: {len(samples)} samples but "
                          f"{len(weights)} weights")
        for sindex, stack in enumerate(samples):
            if not isinstance(stack, list):
                errors.append(f"{where}.samples[{sindex}] must be a list")
                continue
            for ref in stack:
                if not isinstance(ref, int) or not 0 <= ref < len(frames):
                    errors.append(
                        f"{where}.samples[{sindex}]: frame reference {ref!r} "
                        f"out of range (have {len(frames)} frames)")
                    break
        for windex, weight in enumerate(weights):
            if not isinstance(weight, (int, float)) or weight < 0:
                errors.append(f"{where}.weights[{windex}] must be a "
                              f"non-negative number")
                break
    return errors

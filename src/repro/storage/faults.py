"""Fault injection for the storage layer.

Production storage code must fail loudly and recoverably.  This module
provides two generations of tooling for exercising exactly that:

* the original ad-hoc wrappers — :class:`FlakyPageFile` (reads fail per a
  predicate) and :class:`CorruptingPageFile` (reads silently return
  damaged bytes) — still used by targeted unit tests;
* a declarative, **seeded** fault subsystem built around
  :class:`FaultPlan`: a reproducible description of *which* page reads
  misbehave and *how* (latency spikes, transient read errors, torn
  pages, dropped completion callbacks, device stalls).  One plan drives
  both execution paths — :class:`FaultyPageFile` injects real faults
  (sleeps, raised errors, corrupted bytes) under the threaded engine,
  while :class:`RecoveringLoader` replays the *same* decisions in
  virtual time for the simulated engine, so differential tests can pit
  the two against each other under identical adversity.

Determinism is the design center: every decision is a pure function of
``(seed, kind, pid, attempt)``, never of shared RNG state, so thread
interleaving cannot change what faults fire, and the canonical event
trace (:meth:`FaultEventLog.trace`) is byte-identical across runs with
the same plan.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ConfigurationError, DeviceError, FaultExhaustedError, PageFormatError
from repro.storage.page import PageBlock
from repro.storage.pagefile import PageFile

__all__ = [
    "FAULT_KINDS",
    "CorruptingPageFile",
    "FaultAction",
    "FaultEventLog",
    "FaultPlan",
    "FaultSpec",
    "FaultyPageFile",
    "FlakyPageFile",
    "RecoveringLoader",
    "RetryPolicy",
    "corrupt_page_bytes",
]

#: Recognized fault kinds, in injection order when several fire at once.
#:
#: ``latency``          — the read succeeds after an extra delay;
#: ``transient``        — the read raises :class:`DeviceError`;
#: ``torn``             — the read returns corrupted page bytes (the
#:                        slotted-page decoder must detect them);
#: ``dropped_callback`` — an async read completes but its completion
#:                        callback is lost (ThreadedSSD path only);
#: ``stall``            — the device stops responding for ``delay``
#:                        seconds (long enough to trip a read timeout).
FAULT_KINDS = ("latency", "transient", "torn", "dropped_callback", "stall")

#: Metric names shared by every injector / recovery layer, so the same
#: counters appear in a RunReport regardless of which engine ran.
INJECTED_METRIC = "faults.injected"
RETRIES_METRIC = "recovery.retries"
TIMEOUTS_METRIC = "recovery.timeouts"
FALLBACKS_METRIC = "recovery.fallbacks"
GIVEUPS_METRIC = "recovery.giveups"


def corrupt_page_bytes(data: bytes, *, seed: int = 0) -> bytes:
    """Return *data* with its slot directory scrambled.

    Overwrites the tail (where the slot offsets live) with out-of-range
    values, which :meth:`PageBlock.from_bytes` must reject.
    """
    rng = random.Random(seed)
    corrupted = bytearray(data)
    for index in range(1, min(9, len(corrupted)), 2):
        corrupted[-index] = rng.randrange(200, 256)
    return bytes(corrupted)


# ---------------------------------------------------------------------------
# Declarative fault plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault rule inside a :class:`FaultPlan`.

    A rule targets either an explicit frozen set of *pages* or, when
    ``pages`` is ``None``, every page independently with probability
    *rate* (decided deterministically from the plan seed).  An affected
    page misbehaves on its first *times* read attempts and then heals —
    ``times`` larger than any retry budget models a permanent fault.
    *delay* is the injected latency in seconds for the ``latency`` and
    ``stall`` kinds.
    """

    kind: str
    rate: float = 0.0
    pages: frozenset[int] | None = None
    times: int = 1
    delay: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("fault rate must be in [0, 1]")
        if self.times < 1:
            raise ConfigurationError("fault times must be >= 1")
        if self.delay < 0:
            raise ConfigurationError("fault delay must be >= 0")
        if self.kind in ("latency", "stall") and self.delay == 0:
            raise ConfigurationError(f"{self.kind} faults need a positive delay")
        if self.pages is not None:
            object.__setattr__(self, "pages", frozenset(int(p) for p in self.pages))


@dataclass(frozen=True)
class FaultAction:
    """One concrete fault to apply to one read attempt."""

    kind: str
    delay: float = 0.0


class FaultEventLog:
    """Thread-safe record of injected faults and recovery actions.

    Events are appended from whichever thread observes them (the SSD
    reader pool, the callback thread, the main thread's fallback path),
    so arrival order is nondeterministic; :meth:`trace` therefore
    canonicalizes by sorting, making the exported trace a pure function
    of the fault plan — byte-identical across runs with the same seed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[tuple] = []

    def record(self, event: str, kind: str, pid: int, attempt: int) -> None:
        with self._lock:
            self._events.append((event, kind, int(pid), int(attempt)))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def trace(self) -> tuple[tuple, ...]:
        """The canonical (sorted) event trace."""
        with self._lock:
            return tuple(sorted(self._events))

    def counts(self) -> dict[str, int]:
        """``{"inject:transient": n, "retry": m, ...}`` aggregate counts."""
        out: dict[str, int] = {}
        for event, kind, _pid, _attempt in self.trace():
            key = f"{event}:{kind}" if event == "inject" else event
            out[key] = out.get(key, 0) + 1
        return out


class FaultPlan:
    """A seeded, declarative schedule of storage faults.

    The plan never mutates: :meth:`actions` is a pure function of
    ``(pid, attempt)``, so the sync loader, the threaded SSD's reader
    pool, and a timed-out read's fallback path all see one consistent
    adversary.  The plan's :attr:`log` accumulates every injection and
    recovery event for the determinism tests and the CLI summary.
    """

    def __init__(self, specs: Iterable[FaultSpec], *, seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)
        self.log = FaultEventLog()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(spec.kind for spec in self.specs)
        return f"FaultPlan(seed={self.seed}, specs=[{kinds}])"

    # -- deterministic decisions ---------------------------------------------

    def _fires_on_page(self, spec: FaultSpec, pid: int) -> bool:
        if spec.pages is not None:
            return pid in spec.pages
        if spec.rate <= 0.0:
            return False
        # Hash-style decision: independent of call order and thread
        # interleaving, reproducible from (seed, kind, pid) alone.
        return random.Random(f"{self.seed}:{spec.kind}:{pid}").random() < spec.rate

    def actions(self, pid: int, attempt: int) -> tuple[FaultAction, ...]:
        """The faults that fire on read *attempt* of page *pid*."""
        fired = [
            FaultAction(spec.kind, spec.delay)
            for spec in self.specs
            if attempt < spec.times and self._fires_on_page(spec, pid)
        ]
        fired.sort(key=lambda action: FAULT_KINDS.index(action.kind))
        return tuple(fired)

    def affected_pages(self, kind: str, num_pages: int) -> frozenset[int]:
        """Every page id below *num_pages* that *kind* faults will hit."""
        return frozenset(
            pid
            for pid in range(num_pages)
            for spec in self.specs
            if spec.kind == kind and self._fires_on_page(spec, pid)
        )

    def kinds(self) -> frozenset[str]:
        return frozenset(spec.kind for spec in self.specs)

    @property
    def needs_timeout(self) -> bool:
        """True when the plan loses completions (drop / stall faults)."""
        return bool(self.kinds() & {"dropped_callback", "stall"})


@dataclass(frozen=True)
class RetryPolicy:
    """Retry, backoff, and timeout knobs of the recovery layer.

    ``backoff(pid, attempt)`` is deterministic — the jitter fraction is
    hashed from ``(seed, pid, attempt)`` rather than drawn from shared
    RNG state — so recovery timing (and therefore every simulated-time
    figure) reproduces exactly under a fixed plan.
    """

    max_retries: int = 3
    backoff_base: float = 0.0005
    backoff_factor: float = 2.0
    jitter: float = 0.5
    timeout: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ConfigurationError("backoff must be non-negative and non-shrinking")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError("timeout must be positive")

    def backoff(self, pid: int, attempt: int) -> float:
        """Deterministic exponential backoff with jitter, in seconds."""
        base = self.backoff_base * (self.backoff_factor ** attempt)
        if self.jitter == 0.0:
            return base
        u = random.Random(f"{self.seed}:backoff:{pid}:{attempt}").random()
        return base * (1.0 + self.jitter * u)


# ---------------------------------------------------------------------------
# Real-path injector (on-disk page files, the threaded engine)
# ---------------------------------------------------------------------------


class FaultyPageFile:
    """A page file whose reads misbehave per a :class:`FaultPlan`.

    Handles the *synchronous* fault kinds: ``latency`` / ``stall`` sleep
    for real, ``transient`` raises :class:`DeviceError`, ``torn``
    returns corrupted bytes.  ``dropped_callback`` faults are the
    asynchronous device's concern (:class:`~repro.storage.ssd.ThreadedSSD`
    consults the same plan); this wrapper ignores them.

    Per-page attempt counts persist across readers, so a retry (from any
    thread) observes the next attempt number and a ``times``-bounded
    fault eventually heals.
    """

    def __init__(self, inner: PageFile, plan: FaultPlan, *,
                 sleep: Callable[[float], None] = time.sleep,
                 tracer=None):
        self._inner = inner
        self.plan = plan
        self._sleep = sleep
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._lock = threading.Lock()
        self._attempts: dict[int, int] = {}

    @property
    def page_size(self) -> int:
        return self._inner.page_size

    @property
    def num_pages(self) -> int:
        return self._inner.num_pages

    def attempts_of(self, pid: int) -> int:
        with self._lock:
            return self._attempts.get(pid, 0)

    def read_page(self, pid: int) -> bytes:
        with self._lock:
            attempt = self._attempts.get(pid, 0)
            self._attempts[pid] = attempt + 1
        torn = False
        for action in self.plan.actions(pid, attempt):
            if self._tracer is not None:
                self._tracer.instant("fault.inject", kind=action.kind,
                                     pid=pid, attempt=attempt)
            if action.kind in ("latency", "stall"):
                self.plan.log.record("inject", action.kind, pid, attempt)
                self._sleep(action.delay)
            elif action.kind == "transient":
                self.plan.log.record("inject", "transient", pid, attempt)
                raise DeviceError(
                    f"injected transient fault on page {pid} (attempt {attempt})"
                )
            elif action.kind == "torn":
                self.plan.log.record("inject", "torn", pid, attempt)
                torn = True
        data = self._inner.read_page(pid)
        if torn:
            return corrupt_page_bytes(data, seed=self.plan.seed + pid)
        return data


# ---------------------------------------------------------------------------
# Virtual-path injector + recovery (the simulated engine's page loader)
# ---------------------------------------------------------------------------


class RecoveringLoader:
    """Fault injection and recovery in *virtual* time, for the simulator.

    Wraps a page-decoding function (``decode(pid) -> records``, e.g.
    :meth:`GraphStore.decode_page`).  Each load replays the plan's
    decisions for consecutive attempts, retrying per *policy* without
    sleeping: injected latency and backoff pauses are *accumulated*
    instead, and the OPT driver charges them to the run trace so the
    discrete-event scheduler extends the simulated timeline exactly as a
    real device would have.  When a page stays faulty past the retry
    budget the loader raises :class:`FaultExhaustedError` — the typed
    terminal error, never a silent wrong answer.
    """

    def __init__(
        self,
        decode: Callable[[int], PageBlock],
        plan: FaultPlan,
        policy: RetryPolicy | None = None,
        *,
        registry=None,
        tracer=None,
    ):
        from repro.obs import MetricsRegistry

        self._decode = decode
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._retries = self.registry.counter(RETRIES_METRIC)
        self._giveups = self.registry.counter(GIVEUPS_METRIC)
        self._attempts: dict[int, int] = {}
        self._pending_delay = 0.0

    def take_delay(self) -> float:
        """Drain the virtual seconds accumulated since the last call."""
        delay, self._pending_delay = self._pending_delay, 0.0
        return delay

    def _attempt_once(self, pid: int, attempt: int) -> PageBlock:
        """One read attempt: apply the plan's actions, then decode."""
        torn = False
        for action in self.plan.actions(pid, attempt):
            if self._tracer is not None and action.kind != "dropped_callback":
                # Wall-clocked marker: a sim-mode tracer drops it (the
                # deterministic ``fault.delay`` events come from the
                # scheduler's replay of the charged virtual delay).
                self._tracer.instant("fault.inject", kind=action.kind,
                                     pid=pid, attempt=attempt)
            if action.kind in ("latency", "stall"):
                self.plan.log.record("inject", action.kind, pid, attempt)
                self._pending_delay += action.delay
            elif action.kind == "transient":
                self.plan.log.record("inject", "transient", pid, attempt)
                raise DeviceError(
                    f"injected transient fault on page {pid} (attempt {attempt})"
                )
            elif action.kind == "torn":
                self.plan.log.record("inject", "torn", pid, attempt)
                torn = True
            # dropped_callback has no synchronous-read meaning: skip.
        records = self._decode(pid)
        if torn:
            raise PageFormatError(
                f"injected torn page {pid} (attempt {attempt})"
            )
        return records

    def __call__(self, pid: int) -> PageBlock:
        """Load page *pid* with retry + backoff; BufferManager's loader."""
        failures = 0
        while True:
            attempt = self._attempts.get(pid, 0)
            self._attempts[pid] = attempt + 1
            try:
                return self._attempt_once(pid, attempt)
            except (DeviceError, PageFormatError) as exc:
                failures += 1
                if failures > self.policy.max_retries:
                    self._giveups.inc()
                    self.plan.log.record("giveup", "terminal", pid, attempt)
                    raise FaultExhaustedError(
                        f"page {pid} still failing after "
                        f"{self.policy.max_retries} retries: {exc}",
                        pid=pid, attempts=failures,
                    ) from exc
                self._retries.inc()
                self.plan.log.record("retry", "retry", pid, attempt)
                self._pending_delay += self.policy.backoff(pid, failures - 1)


# ---------------------------------------------------------------------------
# Legacy ad-hoc wrappers (kept for targeted unit tests)
# ---------------------------------------------------------------------------


class FlakyPageFile:
    """A page file whose reads fail according to *should_fail*.

    ``should_fail(pid, attempt)`` is consulted on every read; returning
    true raises :class:`DeviceError`.  ``attempts`` counts reads per page
    so tests can model transient faults ("fail the first two tries").
    """

    def __init__(self, inner: PageFile, should_fail: Callable[[int, int], bool]):
        self._inner = inner
        self._should_fail = should_fail
        self.attempts: dict[int, int] = {}

    @property
    def page_size(self) -> int:
        return self._inner.page_size

    @property
    def num_pages(self) -> int:
        return self._inner.num_pages

    def read_page(self, pid: int) -> bytes:
        attempt = self.attempts.get(pid, 0)
        self.attempts[pid] = attempt + 1
        if self._should_fail(pid, attempt):
            raise DeviceError(f"injected read fault on page {pid} "
                              f"(attempt {attempt})")
        return self._inner.read_page(pid)


class CorruptingPageFile:
    """A page file that silently corrupts the pages in *bad_pages*.

    Models bit rot / torn writes: the read *succeeds* but the payload is
    damaged, so detection is the decoder's job.
    """

    def __init__(self, inner: PageFile, bad_pages: set[int], *, seed: int = 0):
        self._inner = inner
        self._bad_pages = set(bad_pages)
        self._seed = seed

    @property
    def page_size(self) -> int:
        return self._inner.page_size

    @property
    def num_pages(self) -> int:
        return self._inner.num_pages

    def read_page(self, pid: int) -> bytes:
        data = self._inner.read_page(pid)
        if pid in self._bad_pages:
            return corrupt_page_bytes(data, seed=self._seed + pid)
        return data

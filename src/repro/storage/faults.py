"""Fault injection and recovery for the storage layer.

Production storage code must fail loudly and recoverably.  The fault
subsystem is built around :class:`FaultPlan`: a seeded, declarative
description of *which* page reads misbehave and *how* (latency spikes,
transient read errors, torn pages, dropped completion callbacks, device
stalls).  One plan drives both execution paths through one injector and
one recovery loop: :class:`FaultyPageFile` wraps the page source — the
on-disk page file under the threaded engine, the
:class:`~repro.storage.layout.GraphStore` itself under the simulated
one — and :func:`read_with_retry` reads, decodes and retries a page on
either.  The paths differ only in the injector's clock: the threaded
engine sleeps the injected and backoff seconds, the simulated engine
sums them and charges them to its run trace, so differential tests pit
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
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError, DeviceError, FaultExhaustedError, PageFormatError
from repro.storage.page import PageBlock

__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultEventLog",
    "FaultPlan",
    "FaultSpec",
    "FaultyPageFile",
    "RetryPolicy",
    "corrupt_page_bytes",
    "read_with_retry",
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
    ``(pid, attempt)``, so the simulated engine's loads, the threaded
    SSD's reader pool, and a timed-out read's fallback path all see one
    consistent adversary.  The plan's :attr:`log` accumulates every
    injection and recovery event for the determinism tests and the CLI
    summary.
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
# The injector and the recovery loop, shared by both engines
# ---------------------------------------------------------------------------


class FaultyPageFile:
    """A page source whose reads misbehave per a :class:`FaultPlan`.

    Wraps anything with ``read_page(pid) -> bytes`` — a
    :class:`~repro.storage.pagefile.PageFile` under the threaded engine,
    the :class:`~repro.storage.layout.GraphStore` under the simulated
    one — and applies the *synchronous* fault kinds: ``latency`` /
    ``stall`` pass their delay to *sleep*, ``transient`` raises
    :class:`DeviceError`, ``torn`` returns corrupted bytes for the
    decoder to reject.  *sleep* is the path's clock, and
    :func:`read_with_retry` pays its backoff on it too: real sleeps on
    the threaded engine, a running sum on the simulated one.
    ``dropped_callback`` faults are the asynchronous device's concern
    (:class:`~repro.storage.ssd.ThreadedSSD` consults the same plan);
    this wrapper ignores them.

    Per-page attempt counts persist across readers, so a retry (from any
    thread) observes the next attempt number and a ``times``-bounded
    fault eventually heals.
    """

    def __init__(self, inner, plan: FaultPlan, *,
                 sleep: Callable[[float], None] = time.sleep,
                 tracer=None):
        self._inner = inner
        self.plan = plan
        self.sleep = sleep
        # ``fault.inject`` is wall-clocked: a sim-clock tracer would drop
        # it (its ``fault.delay`` events come from the scheduler's replay
        # of the charged virtual delay).
        self._tracer = (tracer if tracer is not None and tracer.enabled
                        and tracer.clock == "wall" else None)
        self._lock = threading.Lock()
        self._attempts: dict[int, int] = {}
        self._latest = threading.local()

    @property
    def page_size(self) -> int:
        return self._inner.page_size

    @property
    def num_pages(self) -> int:
        return self._inner.num_pages

    def attempts_of(self, pid: int) -> int:
        with self._lock:
            return self._attempts.get(pid, 0)

    def latest_attempt(self) -> int:
        """The attempt number of the calling thread's latest read (two
        threads may read one page at once: a stalled read and its
        timeout's fallback)."""
        return self._latest.attempt

    def read_page(self, pid: int) -> bytes:
        with self._lock:
            attempt = self._attempts.get(pid, 0)
            self._attempts[pid] = attempt + 1
        self._latest.attempt = attempt
        torn = False
        for action in self.plan.actions(pid, attempt):
            if action.kind == "dropped_callback":
                continue
            if self._tracer is not None:
                self._tracer.instant("fault.inject", kind=action.kind,
                                     pid=pid, attempt=attempt)
            self.plan.log.record("inject", action.kind, pid, attempt)
            if action.kind == "transient":
                raise DeviceError(
                    f"injected transient fault on page {pid} (attempt {attempt})"
                )
            if action.kind == "torn":
                torn = True
            else:  # latency / stall
                self.sleep(action.delay)
        data = self._inner.read_page(pid)
        if torn:
            return corrupt_page_bytes(data, seed=self.plan.seed + pid)
        return data


def read_with_retry(
    pages,
    pid: int,
    decode: Callable[[Sequence[int], Sequence[bytes]], list[PageBlock]],
    policy: RetryPolicy | None,
    retries,
    giveups,
) -> PageBlock:
    """Read page *pid* from *pages* and decode it, retrying per *policy*.

    The one recovery loop: the threaded device's readers and its timeout
    fallback, and the simulated engine's faulted loads, all read a page
    through it.  *decode* is the store's checked decoder
    (:meth:`~repro.storage.layout.GraphStore.decode_images`), so an image
    of another page is as torn as one that does not decode.  Recoverable
    means :class:`DeviceError` (the device refused the read) or
    :class:`PageFormatError` (the bytes arrived torn); anything else
    propagates untouched.  With no policy this is a single attempt.  Each
    retry counts into *retries* and a give-up into *giveups*, then raises
    :class:`FaultExhaustedError`.  Over a :class:`FaultyPageFile` both
    are logged to its plan under the plan's attempt number, and the
    backoff is paid on its clock; over a bare page file, in real seconds.
    """
    faulty = pages if isinstance(pages, FaultyPageFile) else None
    sleep = faulty.sleep if faulty is not None else time.sleep
    failures = 0
    while True:
        try:
            return decode((pid,), (pages.read_page(pid),))[0]
        except (DeviceError, PageFormatError) as exc:
            if policy is None:
                raise
            if failures >= policy.max_retries:
                giveups.inc()
                if faulty is not None:
                    faulty.plan.log.record("giveup", "terminal", pid,
                                           faulty.latest_attempt())
                raise FaultExhaustedError(
                    f"page {pid} still failing after {policy.max_retries} "
                    f"retries: {exc}",
                    pid=pid, attempts=failures + 1,
                ) from exc
            retries.inc()
            if faulty is not None:
                faulty.plan.log.record("retry", "retry", pid,
                                       faulty.latest_attempt())
            sleep(policy.backoff(pid, failures))
            failures += 1

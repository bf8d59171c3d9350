"""FlashSSD access layer: the paper's ``AsyncRead(pid, Callback, Args)``.

:class:`ThreadedSSD` issues *real* asynchronous reads against an on-disk
:class:`~repro.storage.pagefile.PageFile`.  A pool of reader threads
issues ``os.pread`` calls (which release the GIL, so they genuinely
overlap with the main thread's CPU work) and a dedicated *callback
thread* runs completion callbacks in order — the same main-thread /
callback-thread split the paper describes.

Every read goes through the fault subsystem's one recovery loop,
:func:`~repro.storage.faults.read_with_retry`, with the store's checked
decoder: given a :class:`~repro.storage.faults.RetryPolicy` it retries
failed or torn reads with exponential backoff, and the device
additionally arms a **per-read deadline** — a request whose completion
never arrives (dropped callback, device stall) is reclaimed at the next
``wait_idle`` barrier and degraded to a *synchronous re-read* on the
waiting thread, with the callback still executed on the serialized
callback thread.  When a fault outlasts the retry budget the typed
terminal :class:`~repro.errors.FaultExhaustedError` surfaces — never a
silently wrong result.  Retries, timeouts, and fallbacks count into the
metrics registry (``recovery.*``), so an instrumented run's
:class:`~repro.obs.RunReport` shows exactly what the storage layer
survived.

The *timing* model of the Flash device (latency, channel parallelism) is
independent of this class and lives in :mod:`repro.sim.device`.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Sequence

from repro.errors import ConfigurationError, DeviceError
from repro.obs import EventTracer, MetricsRegistry, get_logger
from repro.storage.faults import (
    FALLBACKS_METRIC,
    GIVEUPS_METRIC,
    INJECTED_METRIC,
    RETRIES_METRIC,
    TIMEOUTS_METRIC,
    FaultPlan,
    RetryPolicy,
    read_with_retry,
)
from repro.storage.page import PageBlock
from repro.storage.pagefile import PageFile

__all__ = ["ThreadedSSD"]

#: Device reads count through this registry counter, so a run report
#: shows ``ssd.pages_read`` next to the buffer's misses.
PAGES_READ_METRIC = "ssd.pages_read"

logger = get_logger(__name__)


class ThreadedSSD:
    """Asynchronous page reads with completion callbacks.

    ``async_read(pid, callback, args)`` submits the read to a pool of
    *io_workers* reader threads, which decode each page with *decode*
    (:meth:`~repro.storage.layout.GraphStore.decode_images`, the store's
    checked decoder); on completion, ``callback(records, *args)``
    runs on the single callback thread.  ``wait_idle()`` blocks until every
    issued request has been read *and* its callback has returned — the
    "wait until ... executions are finished" barriers of Algorithm 3.

    Recovery: with a :class:`~repro.storage.faults.RetryPolicy`, reader
    threads retry recoverable faults with backoff, and ``policy.timeout``
    arms a per-read deadline.  A request that misses its deadline — its
    callback was dropped, or the device stalled — is reclaimed by the
    thread blocked in ``wait_idle`` and served by a synchronous re-read
    there (counted as ``recovery.timeouts`` + ``recovery.fallbacks``);
    its callback still runs on the callback thread, preserving callback
    serialization.  Because the engine's internal triangulation happens
    *before* the barrier, a timed-out external read degrades without
    ever stalling internal work.
    """

    _SHUTDOWN = object()

    def __init__(self, page_file: PageFile,
                 decode: Callable[[Sequence[int], Sequence[bytes]],
                                  list[PageBlock]],
                 *, io_workers: int = 4,
                 registry: MetricsRegistry | None = None,
                 retry_policy: RetryPolicy | None = None,
                 tracer: EventTracer | None = None):
        if io_workers < 1:
            raise DeviceError("io_workers must be >= 1")
        self._page_file = page_file
        self._decode = decode
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._pages_read = self.registry.counter(PAGES_READ_METRIC)
        self._async_reads = self.registry.counter("ssd.async_reads")
        self._queue_depth = self.registry.histogram("ssd.queue.depth")
        self._callback_latency = self.registry.histogram("ssd.callback.latency")
        self._retry_policy = retry_policy
        self._plan: FaultPlan | None = getattr(page_file, "plan", None)
        if (self._plan is not None and self._plan.needs_timeout
                and (retry_policy is None or retry_policy.timeout is None)):
            raise ConfigurationError(
                "the fault plan drops callbacks or stalls the device; "
                "recovery needs a RetryPolicy with a per-read timeout"
            )
        self._retries = self.registry.counter(RETRIES_METRIC)
        self._timeouts = self.registry.counter(TIMEOUTS_METRIC)
        self._fallbacks = self.registry.counter(FALLBACKS_METRIC)
        self._giveups = self.registry.counter(GIVEUPS_METRIC)
        self._dropped = self.registry.counter(INJECTED_METRIC,
                                              kind="dropped_callback")
        self._timeout = retry_policy.timeout if retry_policy else None
        self._read_queue: queue.Queue = queue.Queue()
        self._callback_queue: queue.Queue = queue.Queue()
        self._outstanding = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._failure: BaseException | None = None
        self._closed = False
        self._next_request = 0
        #: request id -> (pid, callback, args, deadline); tracked only
        #: when a per-read timeout is armed.
        self._inflight: dict[int, tuple[int, Callable, tuple, float]] = {}
        #: completed reads per page, the attempt basis for drop faults.
        self._completions: dict[int, int] = {}
        self._readers = [
            threading.Thread(target=self._reader_loop, name=f"ssd-reader-{i}",
                             daemon=True)
            for i in range(io_workers)
        ]
        self._callback_thread = threading.Thread(
            target=self._callback_loop, name="ssd-callback", daemon=True
        )
        for thread in self._readers:
            thread.start()
        self._callback_thread.start()

    @property
    def num_pages(self) -> int:
        return self._page_file.num_pages

    @property
    def pages_read(self) -> int:
        return self._pages_read.value

    @property
    def completions_waiting(self) -> int:
        """Completed reads queued behind the callback now running (an
        instantaneous reading; more may join right after)."""
        return self._callback_queue.qsize()

    # -- public API ---------------------------------------------------------

    def async_read(
        self,
        pid: int,
        callback: Callable[..., None],
        args: Sequence = (),
    ) -> None:
        """Issue an asynchronous read of page *pid*.

        On completion ``callback(records, *args)`` runs on the callback
        thread.  Reads may complete out of submission order (the Flash
        device serves its queue in parallel); callbacks are serialized.
        """
        if self._closed:
            raise DeviceError("device is closed")
        args = tuple(args)
        with self._lock:
            self._outstanding += 1
            depth = self._outstanding
            request = self._next_request
            self._next_request += 1
            if self._timeout is not None:
                self._inflight[request] = (
                    pid, callback, args, time.monotonic() + self._timeout
                )
                # A thread blocked in wait_idle may have found _inflight
                # empty and gone into an untimed sleep; wake it so it
                # picks up this request's deadline (callbacks issue new
                # reads while the barrier is waiting).
                self._idle.notify_all()
        self._async_reads.inc()
        self._queue_depth.observe(depth)
        if self._tracer is not None:
            self._tracer.instant("read.submit", pid=pid, req=request,
                                 depth=depth)
        self._read_queue.put((request, pid, callback, args))

    def wait_idle(self) -> None:
        """Block until all issued reads and their callbacks are finished.

        This barrier doubles as the recovery point: requests whose
        deadline has passed are reclaimed here and served by synchronous
        re-reads on the calling thread.
        """
        while True:
            expired: list[tuple[int, Callable, tuple]] = []
            with self._idle:
                if self._failure is not None:
                    failure, self._failure = self._failure, None
                    if isinstance(failure, DeviceError):
                        raise failure
                    raise DeviceError("asynchronous read failed") from failure
                if self._outstanding <= 0:
                    return
                if self._timeout is not None and self._inflight:
                    now = time.monotonic()
                    for request, entry in list(self._inflight.items()):
                        pid, callback, args, deadline = entry
                        if now >= deadline:
                            del self._inflight[request]
                            expired.append((pid, callback, args))
                    if not expired:
                        next_deadline = min(
                            deadline
                            for _, _, _, deadline in self._inflight.values()
                        )
                        self._idle.wait(max(1e-4, next_deadline - now))
                        continue
                else:
                    self._idle.wait()
                    continue
            for pid, callback, args in expired:
                self._recover_timeout(pid, callback, args)

    def close(self) -> None:
        """Stop worker threads (idempotent); pending work is drained first."""
        if self._closed:
            return
        self.wait_idle()
        self._closed = True
        for _ in self._readers:
            self._read_queue.put(self._SHUTDOWN)
        self._callback_queue.put(self._SHUTDOWN)
        for thread in self._readers:
            thread.join(timeout=5)
        self._callback_thread.join(timeout=5)

    def __enter__(self) -> "ThreadedSSD":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recovery ----------------------------------------------------------

    def _claim(self, request: int) -> bool:
        """Take ownership of *request*'s completion (False = already taken)."""
        if self._timeout is None:
            return True
        with self._lock:
            return self._inflight.pop(request, None) is not None

    def _recover_timeout(self, pid: int, callback: Callable, args: tuple) -> None:
        """Serve a timed-out request with a synchronous re-read.

        Runs on the thread blocked in ``wait_idle`` (the engine's main
        thread, which by this point has finished its internal
        triangulation — the morph-aware degradation).  The callback is
        still posted to the callback thread, keeping callbacks serial.
        """
        self._timeouts.inc()
        attempt = 0
        if hasattr(self._page_file, "attempts_of"):
            attempt = self._page_file.attempts_of(pid)
        if self._plan is not None:
            self._plan.log.record("timeout", "timeout", pid, attempt)
        if self._tracer is not None:
            self._tracer.instant("recovery.timeout", pid=pid)
        logger.debug("read of page %d timed out; synchronous fallback", pid)
        start = self._tracer.now() if self._tracer is not None else 0.0
        try:
            records = read_with_retry(
                self._page_file, pid, self._decode, self._retry_policy,
                self._retries, self._giveups,
            )
        # Recovery must capture anything the re-read raises so wait_idle
        # can surface it instead of deadlocking.  # lint: ignore[error-types]
        except BaseException as exc:
            self._fail(exc)
            return
        self._pages_read.inc()
        self._fallbacks.inc()
        if self._plan is not None:
            self._plan.log.record("fallback", "sync_reread", pid, attempt)
        if self._tracer is not None:
            self._tracer.complete("read.service", start,
                                  self._tracer.now() - start, pid=pid)
            self._tracer.instant("recovery.fallback", pid=pid)
        self._callback_queue.put((callback, records, args,
                                  time.perf_counter(), pid))

    def _should_drop(self, pid: int) -> bool:
        """Consult the fault plan: lose this read's completion?"""
        if self._plan is None:
            return False
        with self._lock:
            completion = self._completions.get(pid, 0)
            self._completions[pid] = completion + 1
        for action in self._plan.actions(pid, completion):
            if action.kind == "dropped_callback":
                self._plan.log.record("inject", "dropped_callback", pid,
                                      completion)
                if self._tracer is not None:
                    self._tracer.instant("fault.inject",
                                         kind="dropped_callback", pid=pid,
                                         attempt=completion)
                self._dropped.inc()
                return True
        return False

    # -- worker loops ------------------------------------------------------------

    def _reader_loop(self) -> None:
        while True:
            item = self._read_queue.get()
            if item is self._SHUTDOWN:
                return
            request, pid, callback, args = item
            start = self._tracer.now() if self._tracer is not None else 0.0
            try:
                records = read_with_retry(
                    self._page_file, pid, self._decode, self._retry_policy,
                    self._retries, self._giveups,
                )
            # Worker loops may not die: every failure is parked for
            # wait_idle to re-raise.  # lint: ignore[error-types]
            except BaseException as exc:
                if self._claim(request):
                    self._fail(exc)
                continue
            self._pages_read.inc()
            if self._tracer is not None:
                self._tracer.complete("read.service", start,
                                      self._tracer.now() - start,
                                      pid=pid, req=request)
            if self._should_drop(pid):
                # The read happened but its completion is lost; the
                # request stays in flight until the deadline reclaims it.
                continue
            if self._claim(request):
                self._callback_queue.put((callback, records, args,
                                          time.perf_counter(), pid))

    def _callback_loop(self) -> None:
        while True:
            item = self._callback_queue.get()
            if item is self._SHUTDOWN:
                return
            callback, records, args, completed_at, pid = item
            start = self._tracer.now() if self._tracer is not None else 0.0
            try:
                callback(records, *args)
            # A raising callback must not kill the callback thread; the
            # failure surfaces at wait_idle.  # lint: ignore[error-types]
            except BaseException as exc:
                self._fail(exc)
                continue
            if self._tracer is not None:
                self._tracer.complete("read.callback", start,
                                      self._tracer.now() - start, pid=pid)
            # Queue wait + callback execution: the latency between a read
            # completing and its triangulation work being done.
            self._callback_latency.observe(time.perf_counter() - completed_at)
            self._finish_one()

    def _finish_one(self) -> None:
        with self._idle:
            self._outstanding -= 1
            if self._outstanding <= 0:
                self._idle.notify_all()

    def _fail(self, exc: BaseException) -> None:
        logger.debug("asynchronous read failed: %r", exc)
        with self._idle:
            self._failure = exc
            self._outstanding -= 1
            self._idle.notify_all()

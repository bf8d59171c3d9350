"""Worker heartbeats: silence detection.

The process-parallel engine's workers are invisible between fork and
join — a stalled worker would leave the parent waiting on its pipe for
a report that never comes.  This module is the parent-side fix:

* forked workers write a tiny :class:`Heartbeat` record to their pipe
  (the one that later carries their report) at start, after every
  chunk, and when the plan is spent; the parent, which is worker 0 of
  its own pool, hands its own beats to the monitor directly;
* between its chunks, and after them until every report is in, the
  parent reads those beats into a :class:`HeartbeatMonitor`, which
  keeps each worker's latest beat and runs one check per poll: a
  worker that has not reported and has not beaten for longer than the
  policy deadline is presumed hung, and the monitor raises
  :class:`~repro.errors.ParallelError` so the run fails *now*, with a
  message naming the worker, instead of hanging at join.

The deadline lives in :class:`StragglerPolicy`, which also carries the
fault-injection hooks the tests use to make a worker slow or silent on
demand.  Heartbeats are wall-clock by nature and the whole channel is
opt-in (a policy passed as ``straggler=``): sim-clock runs and the
determinism gates never see it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, ParallelError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import EventTracer

__all__ = ["Heartbeat", "HeartbeatMonitor", "StragglerPolicy"]


@dataclass(frozen=True)
class Heartbeat:
    """One worker progress report.  Plain data — crosses a process
    boundary by pickle, so keep it tiny and stable."""

    worker_id: int
    chunks_done: int = 0
    #: Seconds since the run anchor (the parent's ``perf_counter`` epoch).
    ts: float = 0.0
    #: True on the final beat, after the worker found the plan spent.
    done: bool = False


@dataclass(frozen=True)
class StragglerPolicy:
    """The silence deadline and the fault-injection hooks.

    ``deadline`` (seconds of heartbeat silence) arms the hang check;
    ``None`` leaves it off, so the monitor only counts beats and can
    never kill a run.  ``poll_interval`` is the longest the caller
    waits between two checks once its own chunks are done, and between
    two tries at the chunk cursor's lock; a beat, a report or a death
    wakes it sooner.

    ``inject_worker`` / ``inject_chunk_delay`` are test hooks: the
    engine makes worker ``inject_worker`` sleep ``inject_chunk_delay``
    seconds per chunk.  A sleeping worker stops beating, so a delay
    modest next to the deadline yields a slow but finishing worker,
    while a delay past the deadline yields the hang path — the fault
    matrix gets both deterministically without patching the worker
    code.  The hook names a *forked* worker, ``1`` or above: worker
    ``0`` is the caller, which also runs the check, so stalling it
    would stall the only thing that could notice.  The engine raises
    :class:`~repro.errors.ConfigurationError` for ``inject_worker=0``
    whenever it forks.

    A value that would break a healthy run raises
    :class:`~repro.errors.ConfigurationError` naming the field, before
    anything is forked: a ``deadline`` of zero or less fails every
    worker at the first check, the caller included, and a
    ``poll_interval`` of zero or less makes every wait return at once,
    so the caller spins.
    """

    poll_interval: float = 0.05
    deadline: float | None = None
    inject_worker: int | None = None
    inject_chunk_delay: float = 0.0

    def __post_init__(self) -> None:
        # Each test is true for a valid value, so NaN fails all of them.
        for name, valid, rule in (
            ("deadline", self.deadline is None or self.deadline > 0,
             "None or > 0 seconds"),
            ("poll_interval", self.poll_interval > 0, "> 0 seconds"),
            ("inject_chunk_delay", self.inject_chunk_delay >= 0,
             ">= 0 seconds"),
        ):
            if not valid:
                raise ConfigurationError(
                    f"StragglerPolicy.{name}={getattr(self, name)!r} is out "
                    f"of range: it must be {rule}")


class HeartbeatMonitor:
    """Parent-side fold of worker heartbeats into the silence check.

    Single-threaded: the caller's looks at its pool own :meth:`observe`,
    :meth:`mark_done` and :meth:`check`, and nothing else reads the
    state between them.
    """

    def __init__(
        self,
        policy: StragglerPolicy,
        *,
        workers: int,
        registry: MetricsRegistry | None = None,
        tracer: EventTracer | None = None,
    ):
        self.policy = policy
        self.registry = registry
        self.tracer = tracer
        #: ``worker_id -> ts`` of its latest beat; silence before the
        #: first one counts from the run anchor.
        self._last_beat = dict.fromkeys(range(workers), 0.0)
        self._done: set[int] = set()

    def observe(self, beat: Heartbeat) -> None:
        """Fold one heartbeat into the per-worker state."""
        self._last_beat[beat.worker_id] = beat.ts
        if beat.done:
            self._done.add(beat.worker_id)
        if self.registry is not None:
            self.registry.counter("parallel.heartbeats").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "parallel.heartbeat", ts=beat.ts,
                track=f"parallel/w{beat.worker_id}",
                worker=beat.worker_id, chunks=beat.chunks_done,
                done=beat.done,
            )

    def check(self, now: float) -> None:
        """Raise :class:`ParallelError` naming the first worker, in
        worker order, that is not done and has been silent past the
        policy deadline at time *now*."""
        deadline = self.policy.deadline
        if deadline is None:
            return
        for worker_id, last in sorted(self._last_beat.items()):
            if worker_id not in self._done and now - last > deadline:
                raise ParallelError(
                    f"worker w{worker_id} has sent no heartbeat for "
                    f"{now - last:.2f}s (deadline {deadline:.2f}s); "
                    f"presumed hung"
                )

    def mark_done(self, worker_id: int) -> None:
        """Record that *worker_id*'s final report arrived (join-safe): a
        beat observed after it never makes the worker live again."""
        self._done.add(worker_id)

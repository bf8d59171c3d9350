"""Worker heartbeats: straggler and silence detection.

The process-parallel engine's workers are invisible between fork and
join — a stalled worker would leave the parent waiting on its pipe for
a report that never comes.  This module is the parent-side fix:

* forked workers write a tiny :class:`Heartbeat` record to their pipe
  (the one that later carries their report) at start, after every
  chunk, and when the plan is spent; the parent, which is worker 0 of
  its own pool, hands its own beats to the monitor directly;
* between its chunks, and after them until every report is in, the
  parent reads those beats into a :class:`HeartbeatMonitor`, which
  keeps each worker's latest progress and runs two detections per poll:

  1. **straggler** — a live worker whose chunk progress has fallen below
     a configurable fraction of the median worker's progress is flagged
     once: ``parallel.straggler`` counter + ``parallel.straggler`` trace
     instant.  The run still completes; the flag is for the operator and
     the imbalance analytics.
  2. **silence** — a worker that has not heartbeat for longer than the
     policy deadline is presumed hung; the monitor raises
     :class:`~repro.errors.ParallelError` so the run fails *now*, with a
     message naming the worker, instead of hanging at join.

Detection thresholds live in :class:`StragglerPolicy`, which also
carries the fault-injection hooks the tests use to make a worker slow or
silent on demand.  Heartbeats are wall-clock by nature and the whole
channel is opt-in (a policy passed as ``straggler=``): sim-clock runs
and the determinism gates never see it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import median

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
    """Detection thresholds and fault-injection hooks.

    ``fraction`` and ``min_chunks`` tune the imbalance detector: a
    worker is a straggler when the median worker has finished at least
    ``min_chunks`` chunks and this worker has finished fewer than
    ``fraction * median`` — the median over workers that ran a chunk or
    are still running (one that found the plan already spent is left
    out).
    ``grace`` suppresses that detector for the
    first seconds of a run — at startup the fastest worker can lap the
    others before they even fetch a task, which is scheduling noise, not
    imbalance.  ``deadline`` (seconds of heartbeat silence) arms the
    hang detector; ``None`` leaves it off, so a monitor that only flags
    stragglers can never kill a run.  The grace period does *not*
    gate the deadline detector: a hang is a hang from second zero.
    ``poll_interval`` is the longest the caller waits between two runs
    of the detectors once its own chunks are done, and between two tries
    at the chunk cursor's lock; a beat, a report or a death wakes it
    sooner.

    ``inject_worker`` / ``inject_chunk_delay`` are test hooks: the
    engine makes worker ``inject_worker`` sleep ``inject_chunk_delay``
    seconds per chunk.  A sleeping worker stops beating, so a delay
    modest next to the deadline yields a flagged-but-finishing
    straggler, while a delay past the deadline yields the hang path —
    the fault matrix gets both deterministically without patching the
    worker code.  The hook names a *forked* worker, ``1`` or above:
    worker ``0`` is the caller, which also runs the detections, so
    stalling it would stall the only thing that could notice.  The
    engine raises :class:`~repro.errors.ConfigurationError` for
    ``inject_worker=0`` whenever it forks.

    A value that would break a healthy run raises
    :class:`~repro.errors.ConfigurationError` naming the field, before
    anything is forked: a ``deadline`` of zero or less fails every
    worker at the first check, the caller included, and a
    ``poll_interval`` of zero or less makes every wait return at once,
    so the caller spins.
    """

    poll_interval: float = 0.05
    fraction: float = 0.5
    grace: float = 1.0
    deadline: float | None = None
    min_chunks: int = 2
    inject_worker: int | None = None
    inject_chunk_delay: float = 0.0

    def __post_init__(self) -> None:
        # Each test is true for a valid value, so NaN fails all of them.
        for name, valid, rule in (
            ("deadline", self.deadline is None or self.deadline > 0,
             "None or > 0 seconds"),
            ("poll_interval", self.poll_interval > 0, "> 0 seconds"),
            ("grace", self.grace >= 0, ">= 0 seconds"),
            ("fraction", 0 <= self.fraction <= 1, "within [0, 1]"),
            ("min_chunks", self.min_chunks >= 0, ">= 0"),
            ("inject_chunk_delay", self.inject_chunk_delay >= 0,
             ">= 0 seconds"),
        ):
            if not valid:
                raise ConfigurationError(
                    f"StragglerPolicy.{name}={getattr(self, name)!r} is out "
                    f"of range: it must be {rule}")


class HeartbeatMonitor:
    """Parent-side fold of worker heartbeats into the two detections.

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
        self.workers = workers
        self.registry = registry
        self.tracer = tracer
        self._latest: dict[int, Heartbeat] = {
            worker_id: Heartbeat(worker_id=worker_id)
            for worker_id in range(workers)
        }
        self._seen: dict[int, bool] = {w: False for w in range(workers)}
        self._flagged: set[int] = set()

    # -- ingest ---------------------------------------------------------------

    def observe(self, beat: Heartbeat) -> None:
        """Fold one heartbeat into the per-worker state."""
        known = self._latest.get(beat.worker_id)
        # A late-arriving beat never rolls progress backwards.
        if known is not None and known.chunks_done > beat.chunks_done:
            beat = replace(beat, chunks_done=known.chunks_done,
                           done=known.done or beat.done)
        if known is not None and known.done:
            beat = replace(beat, done=True)
        self._latest[beat.worker_id] = beat
        self._seen[beat.worker_id] = True
        if self.registry is not None:
            self.registry.counter("parallel.heartbeats").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "parallel.heartbeat", ts=beat.ts,
                track=f"parallel/w{beat.worker_id}",
                worker=beat.worker_id, chunks=beat.chunks_done,
                done=beat.done,
            )

    # -- detection ------------------------------------------------------------

    def check(self, now: float) -> list[int]:
        """Run both detections at time *now*; returns newly flagged workers.

        Raises :class:`ParallelError` when a worker has been silent past
        the policy deadline — after flagging it, so the straggler counter
        and trace event land even on the failing path.
        """
        beats, seen = self._latest, self._seen
        # A worker that found the plan already spent (done, zero chunks)
        # says nothing about pace: counting it lets one fast worker that
        # drained every chunk pull the median to 0 and hide a stalled peer.
        progress = [beat.chunks_done for beat in beats.values()
                    if beat.chunks_done or not beat.done]
        typical = median(progress) if progress else 0
        newly: list[int] = []
        hung: tuple[int, float] | None = None
        for worker_id, beat in sorted(beats.items()):
            if beat.done:
                continue
            silence = now - beat.ts if seen[worker_id] else now
            # The deadline detection runs even for already-flagged
            # workers: a straggler that then goes fully silent must
            # still fail the run.
            if (self.policy.deadline is not None
                    and silence > self.policy.deadline):
                if worker_id not in self._flagged:
                    self._flag(worker_id, beat, now, reason="silent",
                               silence=silence)
                    newly.append(worker_id)
                if hung is None:
                    hung = (worker_id, silence)
                continue
            if worker_id in self._flagged:
                continue
            if (now >= self.policy.grace
                    and typical >= self.policy.min_chunks
                    and beat.chunks_done < self.policy.fraction * typical):
                self._flag(worker_id, beat, now, reason="behind",
                           median=typical)
                newly.append(worker_id)
        if hung is not None:
            worker_id, silence = hung
            raise ParallelError(
                f"worker w{worker_id} has sent no heartbeat for "
                f"{silence:.2f}s (deadline {self.policy.deadline:.2f}s); "
                f"presumed hung"
            )
        return newly

    def _flag(self, worker_id: int, beat: Heartbeat, now: float, *,
              reason: str, **detail) -> None:
        self._flagged.add(worker_id)
        if self.registry is not None:
            self.registry.counter("parallel.straggler").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "parallel.straggler", ts=now,
                track=f"parallel/w{worker_id}",
                worker=worker_id, reason=reason,
                chunks=beat.chunks_done, **detail,
            )

    def mark_done(self, worker_id: int, chunks_done: int | None = None) -> None:
        """Record that *worker_id*'s final report arrived (join-safe).

        *chunks_done* is the report's chunk count: the report, not the
        beats, is authoritative, and a beat observed after it never rolls
        the count back (:meth:`observe`).
        """
        beat = replace(self._latest[worker_id], done=True)
        if chunks_done is not None:
            beat = replace(beat, chunks_done=chunks_done)
        self._latest[worker_id] = beat
        self._seen[worker_id] = True

    # -- exposition -----------------------------------------------------------

    @property
    def flagged(self) -> frozenset[int]:
        return frozenset(self._flagged)

    def chunks_done(self) -> int:
        return sum(beat.chunks_done for beat in self._latest.values())

    def all_done(self) -> bool:
        return all(beat.done for beat in self._latest.values())

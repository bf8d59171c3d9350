"""Discrete-event replay of a run trace on simulated cores + FlashSSD.

Given a :class:`~repro.sim.trace.RunTrace` (the measured workload of a
real algorithm execution) and a :class:`~repro.sim.costmodel.CostModel`,
the scheduler reproduces the paper's execution structure:

* **iteration barriers** — Algorithm 3 waits for the internal fill
  (line 8) and for the external triangulation (line 11), so iterations
  are simulated independently and summed;
* **micro overlap** — external page reads are served by the Flash device
  (with ``channels`` internal parallelism) while workers process already
  arrived pages; at most ``m_ex`` requests are outstanding, and finishing
  one page's callback work issues the next request (Algorithm 9);
* **macro overlap** — with ``cores >= 2`` the internal page tasks and the
  external callbacks proceed concurrently on different workers;
* **thread morphing** — when enabled, a worker whose own queue is empty
  steals from the other queue; when disabled, roles are fixed (``cores-1``
  internal workers, one callback worker), reproducing Figure 4's idle
  phases;
* **serial mode** (``OPT_serial``) — one worker, macro overlap disabled
  (all internal work first), micro overlap retained.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.obs.context import NO_CONTEXT, RunContext
from repro.obs.trace import EventTracer
from repro.sim.costmodel import CostModel
from repro.sim.trace import ExternalRead, IterationTrace, RunTrace

__all__ = ["IterationTiming", "SimResult", "simulate"]


@dataclass
class IterationTiming:
    """Timing of one simulated iteration."""

    fill_time: float
    elapsed: float
    internal_time: float  # span spent on internal work after the fill
    external_time: float  # span spent on external work after the fill
    internal_busy: float  # summed worker-seconds of internal CPU
    external_busy: float  # summed worker-seconds of external CPU
    device_reads: int


@dataclass
class SimResult:
    """Outcome of replaying a trace under one configuration."""

    elapsed: float
    cores: int
    morphing: bool
    serial: bool
    iterations: list[IterationTiming] = field(default_factory=list)
    cpu_time: float = 0.0  # parallelizable intersection CPU (worker-seconds)
    read_io_time: float = 0.0  # device-seconds spent reading

    @property
    def parallel_fraction(self) -> float:
        """Amdahl parallel fraction: intersection CPU over total elapsed.

        Meaningful when computed on a 1-core result (the paper's ``p``).
        """
        if self.elapsed <= 0:
            return 0.0
        return min(1.0, self.cpu_time / self.elapsed)


_ARRIVE = 0
_FREE = 1


def _stream_time(pages: int, cost: CostModel) -> float:
    """Pipelined bulk-read time: ceil(n / channels) read latencies.

    A single page still costs one full latency — the device's channel
    parallelism cannot split one request.
    """
    if pages <= 0:
        return 0.0
    return -(-pages // cost.channels) * cost.page_read_time


def _simulate_sync_iteration(
    iteration: IterationTrace, cost: CostModel, cores: int,
    tracer: EventTracer | None = None, t0: float = 0.0, index: int = 0,
) -> IterationTiming:
    """Synchronous external I/O: streamed reads, then CPU, no overlap."""
    fill_io = _stream_time(iteration.fill_reads, cost) + iteration.fill_delay
    candidate_cpu = cost.cpu(iteration.candidate_ops) * cost.candidate_op_factor
    t_fill = fill_io + candidate_cpu
    internal_cpu = cost.cpu(iteration.internal_ops)
    # Injected fault latency (and retry backoff) serializes on the
    # blocking read path: each affected read simply takes longer.
    external_io = _stream_time(iteration.external_device_reads, cost) + sum(
        read.delay for read in iteration.external_reads
    )
    external_cpu = cost.cpu(iteration.external_ops)
    elapsed = t_fill + internal_cpu + external_io + external_cpu
    if tracer is not None:
        if t_fill > 0:
            tracer.complete("fill", t0, t_fill, track="sim/core0")
        if internal_cpu > 0:
            tracer.complete("internal", t0 + t_fill, internal_cpu,
                            track="sim/core0")
        if external_io > 0:
            tracer.complete("read.service", t0 + t_fill + internal_cpu,
                            external_io, track="sim/flash0",
                            pages=iteration.external_device_reads)
        if external_cpu > 0:
            tracer.complete("external", t0 + t_fill + internal_cpu + external_io,
                            external_cpu, track="sim/core0")
        tracer.complete("iteration", t0, elapsed, track="sim/run", index=index)
    return IterationTiming(
        fill_time=t_fill,
        elapsed=elapsed,
        internal_time=internal_cpu,
        external_time=external_io + external_cpu,
        internal_busy=internal_cpu,
        external_busy=external_cpu,
        device_reads=iteration.fill_reads + iteration.external_device_reads,
    )


def _simulate_iteration(
    iteration: IterationTrace,
    m_ex: int,
    cost: CostModel,
    cores: int,
    morphing: bool,
    serial: bool,
    stats: dict | None = None,
    tracer: EventTracer | None = None,
    t0: float = 0.0,
    index: int = 0,
) -> IterationTiming:
    latency = cost.page_read_time
    fill_io = iteration.fill_reads * latency / cost.channels + iteration.fill_delay
    candidate_cpu = cost.cpu(iteration.candidate_ops) * cost.candidate_op_factor
    t_fill = max(fill_io, candidate_cpu)
    if tracer is not None and t_fill > 0:
        tracer.complete("fill", t0, t_fill, track="sim/core0",
                        reads=iteration.fill_reads,
                        buffered=iteration.fill_buffered)
        if iteration.fill_delay > 0:
            tracer.instant("fault.delay", ts=t0, track="sim/flash0",
                           phase="fill", delay=iteration.fill_delay)

    internal = deque(cost.cpu(ops) for ops in iteration.internal_page_ops)
    pending = deque(iteration.external_reads)
    ready: deque[ExternalRead] = deque()
    heap: list[tuple[float, int, int, object]] = []
    seq = 0
    channel_free = [t_fill] * cost.channels
    device_reads = iteration.fill_reads

    in_flight = 0

    def issue_next(now: float) -> None:
        nonlocal seq, device_reads, in_flight
        if not pending:
            return
        read = pending.popleft()
        in_flight += 1
        if read.buffered:
            if tracer is not None:
                tracer.instant("buffer.hit", ts=t0 + now, track="sim/buffer",
                               pid=read.pid)
            heapq.heappush(heap, (now, seq, _ARRIVE, read))
        else:
            device_reads += 1
            channel = min(range(cost.channels), key=channel_free.__getitem__)
            # read.delay extends the service time: injected fault latency
            # and retry backoff occupy the channel like a slow read would.
            start = max(channel_free[channel], now)
            done = start + latency + read.delay
            channel_free[channel] = done
            if tracer is not None:
                track = f"sim/flash{channel}"
                req = f"{index}:{seq}"
                tracer.instant("read.submit", ts=t0 + now, track=track,
                               pid=read.pid, req=req)
                tracer.complete("read.service", t0 + start, done - start,
                                track=track, pid=read.pid, req=req)
                if read.delay > 0:
                    tracer.instant("fault.delay", ts=t0 + start, track=track,
                                   pid=read.pid, delay=read.delay)
            heapq.heappush(heap, (done, seq, _ARRIVE, read))
        seq += 1

    for _ in range(min(m_ex, len(pending))):
        issue_next(t_fill)

    # Worker roles: serial = one worker draining internal before external;
    # parallel = one callback worker, cores-1 internal workers.
    if serial or cores == 1:
        roles = ["serial"]
    else:
        roles = ["int"] * (cores - 1) + ["ext"]
    idle: list[int] = list(range(len(roles)))
    internal_busy = external_busy = 0.0
    internal_finish = external_finish = t_fill
    now = t_fill

    def morph(worker: int, to: str) -> None:
        if stats is not None:
            stats["morph_events"] = stats.get("morph_events", 0) + 1
        if tracer is not None:
            tracer.instant("morph", ts=t0 + now, track=f"sim/core{worker}",
                           to=to)

    def pick(worker: int) -> tuple[str, float, ExternalRead | None] | None:
        role = roles[worker]
        if role == "serial":
            if internal:
                return "int", internal.popleft(), None
            if ready:
                read = ready.popleft()
                return "ext", cost.cpu(read.cpu_ops), read
            return None
        if role == "int":
            if internal:
                return "int", internal.popleft(), None
            if morphing and ready:
                morph(worker, "ext")
                read = ready.popleft()
                return "ext", cost.cpu(read.cpu_ops), read
            return None
        if ready:
            read = ready.popleft()
            return "ext", cost.cpu(read.cpu_ops), read
        # The callback thread morphs into a main thread only when the
        # external stream has *terminated* (paper Section 3.4) — stealing
        # internal work while reads are in flight would stall the
        # issue-on-completion pipeline of Algorithm 9.
        if morphing and internal and not pending and in_flight == 0:
            morph(worker, "int")
            return "int", internal.popleft(), None
        return None

    guard = 0
    limit = 10 * (len(internal) + len(pending) + 4) + 1000
    while True:
        guard += 1
        if guard > limit and not heap:
            raise SimulationError("scheduler failed to converge")
        # Assign every idle worker a task available *now*.
        assigned = True
        while assigned and idle:
            assigned = False
            for worker in list(idle):
                task = pick(worker)
                if task is None:
                    continue
                kind, duration, read = task
                done = now + duration
                if kind == "int":
                    internal_busy += duration
                else:
                    external_busy += duration
                if tracer is not None and duration > 0:
                    if kind == "int":
                        tracer.complete("internal", t0 + now, duration,
                                        track=f"sim/core{worker}")
                    else:
                        tracer.complete("external", t0 + now, duration,
                                        track=f"sim/core{worker}",
                                        pid=read.pid)
                heapq.heappush(heap, (done, seq, _FREE, (worker, kind)))
                seq += 1
                idle.remove(worker)
                assigned = True
        if not heap:
            if internal or ready or pending:
                raise SimulationError(
                    "work remains but no event can make progress"
                )
            break
        now, _, event, payload = heapq.heappop(heap)
        if event == _ARRIVE:
            in_flight -= 1
            ready.append(payload)  # type: ignore[arg-type]
        else:
            worker, kind = payload  # type: ignore[misc]
            idle.append(worker)
            if kind == "int":
                internal_finish = max(internal_finish, now)
            else:
                external_finish = max(external_finish, now)
                issue_next(now)

    elapsed = max(internal_finish, external_finish, t_fill)
    # Asynchronous output writes overlap compute; they only extend the
    # iteration when the write device cannot keep up.
    if iteration.output_pages:
        write_time = t_fill + iteration.output_pages * cost.page_write_time
        elapsed = max(elapsed, write_time)
    if tracer is not None:
        tracer.complete("iteration", t0, elapsed, track="sim/run", index=index)
    return IterationTiming(
        fill_time=t_fill,
        elapsed=elapsed,
        internal_time=max(0.0, internal_finish - t_fill),
        external_time=max(0.0, external_finish - t_fill),
        internal_busy=internal_busy,
        external_busy=external_busy,
        device_reads=device_reads,
    )


def simulate(
    run_trace: RunTrace,
    cost: CostModel,
    *,
    cores: int = 1,
    morphing: bool = True,
    serial: bool = False,
    ctx: RunContext = NO_CONTEXT,
) -> SimResult:
    """Replay *run_trace* under the given configuration.

    ``serial=True`` forces one core and disables macro overlap, yielding
    the paper's ``OPT_serial``.  Returns elapsed simulated seconds plus
    per-iteration timings (Figure 4's raw data).

    *ctx* is the run's :class:`~repro.obs.RunContext`; the replay
    consumes its report and tracer.  The simulated timeline is mapped
    into the report's span tree (one ``simulate`` span with
    per-iteration ``fill`` / ``internal`` / ``external`` children, all in
    simulated seconds) and the scheduler's counters — device reads and
    thread-morphing events — land in its registry.  On the tracer (use
    ``clock="sim"``) every scheduling decision is an event: per-worker
    ``internal`` / ``external`` slices on ``sim/coreN`` tracks, device
    service on ``sim/flashN`` tracks, ``read.submit`` / ``buffer.hit`` /
    ``morph`` / ``fault.delay`` instants, and one ``iteration`` slice per
    barrier on ``sim/run``.  The event stream is a pure function of the
    trace and configuration — byte-identical across runs per seed.
    """
    ctx.accept("simulate", "report", "trace")
    if cores < 1:
        raise SimulationError("cores must be >= 1")
    if serial:
        cores = 1
    tracer = ctx.trace
    stats: dict = {}
    timings = []
    offset = 0.0
    for index, iteration in enumerate(run_trace.iterations):
        if run_trace.sync_external:
            timing = _simulate_sync_iteration(iteration, cost, cores,
                                              tracer, offset, index)
        else:
            timing = _simulate_iteration(iteration, run_trace.m_ex, cost,
                                         cores, morphing, serial, stats,
                                         tracer, offset, index)
        timings.append(timing)
        offset += timing.elapsed
    result = SimResult(
        elapsed=sum(t.elapsed for t in timings),
        cores=cores,
        morphing=morphing,
        serial=serial,
        iterations=timings,
        cpu_time=cost.cpu(run_trace.total_ops),
        read_io_time=cost.read_io(run_trace.total_device_reads),
    )
    if ctx.report is not None:
        _record(result, timings, stats, ctx.report)
        ctx.report.gauge("sim.fault_delay").set(run_trace.total_fault_delay)
    return result


def _record(result: SimResult, timings: list[IterationTiming], stats: dict,
            report) -> None:
    """Map one replay into *report*: simulated span tree plus counters."""
    parent = report.spans.add(
        "simulate", sim_elapsed=result.elapsed, cores=result.cores,
        morphing=result.morphing, serial=result.serial,
    )
    for index, timing in enumerate(timings):
        iteration = report.spans.add("iteration", parent=parent,
                                     sim_elapsed=timing.elapsed, index=index)
        report.spans.add("fill", parent=iteration,
                         sim_elapsed=timing.fill_time)
        report.spans.add("internal-triangulation", parent=iteration,
                         sim_elapsed=timing.internal_time)
        report.spans.add("external-triangulation", parent=iteration,
                         sim_elapsed=timing.external_time)
    report.counter("sim.device_reads").inc(
        sum(t.device_reads for t in timings)
    )
    report.counter("sim.morph.events").inc(stats.get("morph_events", 0))
    report.gauge("sim.elapsed").set(result.elapsed)
    report.gauge("sim.cpu_time").set(result.cpu_time)
    report.gauge("sim.read_io_time").set(result.read_io_time)

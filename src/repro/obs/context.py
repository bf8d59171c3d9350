"""One carrier for a run's instrumentation: :class:`RunContext`.

Every instrumented entry point — ``triangulate_disk``, ``run_opt``,
``triangulate_threaded``, ``triangulate_parallel``, ``Engine.run``,
``simulate`` — takes a single ``ctx=`` and hands the same object to every
hop below it, so an instrument cannot be dropped between two frames.
What the engines used to copy lives here once: a disabled tracer
becomes ``None`` at construction, :attr:`RunContext.registry` /
:meth:`RunContext.span` / :meth:`RunContext.slice` replace the
``if report is not None`` / ``if tracer is not None`` twins, and
each entry point opens with one :meth:`RunContext.accept` declaration
that turns a field it does not consume — or a clock it cannot honour —
into a :class:`~repro.errors.ConfigurationError` before any work starts.

Hot-path rule: read the fields into locals once per run (or per OPT
iteration); never touch the context per record or per pair.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.result_store import RunCheckpoint
    from repro.obs.attribution import Attribution
    from repro.obs.report import RunReport
    from repro.obs.trace import EventTracer
    from repro.storage.faults import FaultPlan, RetryPolicy

__all__ = ["NO_CONTEXT", "RunContext"]


@dataclass(frozen=True)
class RunContext:
    """The instruments of one run; every field defaults to "off".

    Parameters
    ----------
    report:
        A :class:`~repro.obs.RunReport`.  The engine records phase spans
        (``pack`` → ``run-opt`` → ``replay``; one ``iteration`` span per
        OPT iteration), its counters and gauges (``opt.*`` / ``sim.*`` /
        ``buffer.*`` / ``parallel.*`` / ``exec.*``, per-phase
        ``triangles``) and derived figures (``overhead_vs_ideal``,
        ``cost_conformance``) into it, and returns it as
        ``result.extra["report"]``.
    trace:
        An :class:`~repro.obs.EventTracer` receiving the run's event
        timeline.  The disk engine's replay emits every fill / internal
        / external / read / morph event on simulated time
        (``EventTracer.sim()``: byte-stable per seed); the threaded and
        process-parallel engines record real time and refuse a
        sim-clock tracer.  With a *report* too, the trace's overlap
        analytics are folded into ``report.derived``.
    attribution:
        An :class:`~repro.obs.Attribution`.  Every Eq. 3 op charge lands
        in a ``(phase, kernel, source, degree-bucket)`` cell — phases
        ``candidate`` / ``external`` / ``internal`` on disk, ``exec`` in
        the composed engines, ``parallel`` in the process engine — with
        per-bucket sums conserving the run's op count exactly, whatever
        the worker count.
    fault_plan / retry_policy:
        A :class:`~repro.storage.faults.FaultPlan` whose seeded faults
        fire on page loads (in virtual time on disk, for real in the
        threaded engine) and the :class:`~repro.storage.faults.RetryPolicy`
        that recovers them; a fault outlasting the policy raises
        :class:`~repro.errors.FaultExhaustedError`, never a wrong listing.
    checkpoint:
        A :class:`~repro.core.result_store.RunCheckpoint`: each completed
        iteration commits its emitted groups, and a resumed run replays
        committed iterations instead of re-listing them.
    """

    report: RunReport | None = None
    trace: EventTracer | None = None
    attribution: Attribution | None = None
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    checkpoint: RunCheckpoint | None = None

    def __post_init__(self) -> None:
        # The one place a disabled tracer is normalised away: engines
        # keep their plain ``is not None`` guards.
        if self.trace is not None and not self.trace.enabled:
            object.__setattr__(self, "trace", None)

    @property
    def registry(self) -> MetricsRegistry | None:
        """The report's metrics registry, or ``None`` without a report."""
        return self.report.registry if self.report is not None else None

    def span(self, name: str,
             **attrs: object) -> AbstractContextManager[object]:
        """A report span around a ``with`` body; a no-op without a report."""
        if self.report is None:
            return nullcontext()
        return self.report.span(name, **attrs)

    def slice(self, name: str,
              **args: object) -> AbstractContextManager[object]:
        """A wall-clock trace slice around a ``with`` body.

        A no-op without a tracer, and on a sim-clock one.
        """
        if self.trace is None:
            return nullcontext()
        return self.trace.slice(name, **args)

    def accept(self, engine: str, *consumed: str,
               wall_clock: bool = False) -> None:
        """Declare what *engine* consumes; refuse everything else.

        *consumed* names the fields the engine reads; any other field
        that is set raises :class:`ConfigurationError` — one bundle must
        never turn an unsupported instrument into silent loss.  With
        *wall_clock* the engine runs on real time and refuses a
        sim-clock tracer.
        """
        refused = tuple(
            name for name in _FIELDS
            if name not in consumed and getattr(self, name) is not None)
        if refused:
            raise ConfigurationError(
                f"{engine} does not consume ctx."
                f"{', ctx.'.join(refused)} (it consumes: "
                f"{', '.join(consumed) or 'nothing'})",
                refused=refused,
            )
        if wall_clock and self.trace is not None and self.trace.clock != "wall":
            raise ConfigurationError(
                f"{engine} runs on real time; pass a clock='wall' tracer")

    def only(self, *names: str) -> RunContext:
        """This context narrowed to *names*, for a hop that consumes less."""
        if all(getattr(self, name) is None
               for name in _FIELDS if name not in names):
            return self
        return RunContext(**{name: getattr(self, name) for name in names})


_FIELDS = tuple(spec.name for spec in fields(RunContext))

#: The shared all-off default of every ``ctx=`` parameter.
NO_CONTEXT = RunContext()

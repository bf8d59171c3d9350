"""Determinism gate: same fault-plan seed ⇒ byte-identical behavior.

Fault decisions are pure functions of ``(seed, kind, pid, attempt)`` —
never of shared RNG state or thread timing — so two runs under fresh
plans with the same seed must produce the identical canonical event
trace, identical recovery counters, and the identical triangle listing.
FaultPlans are single-run objects (their event log accumulates), hence
every run below constructs a fresh plan with the same seed.
"""

from __future__ import annotations

from repro.core import make_store, triangulate_disk
from repro.core.threaded import triangulate_threaded
from repro.memory.base import CollectSink, canonical_triangles
from repro.obs import RunContext, RunReport
from repro.storage.faults import FaultPlan, FaultSpec, RetryPolicy

SPECS = [
    FaultSpec("transient", rate=0.5, times=2),
    FaultSpec("latency", rate=0.4, times=1, delay=0.001),
    FaultSpec("torn", rate=0.3, times=1),
]
POLICY = RetryPolicy(max_retries=3, backoff_base=0.0001)


def _recovery_counters(report: RunReport) -> dict[str, int]:
    return {
        key: value
        for key, value in report.metrics_snapshot()["counters"].items()
        if key.startswith(("faults.", "recovery."))
    }


def _run_sim(graph):
    plan = FaultPlan(SPECS, seed=99)
    report = RunReport("determinism")
    sink = CollectSink()
    store = make_store(graph, 512)
    result = triangulate_disk(store, buffer_pages=6, sink=sink,
                              ctx=RunContext(fault_plan=plan,
                                             retry_policy=POLICY,
                                             report=report))
    return {
        "triangles": canonical_triangles(sink),
        "trace": plan.log.trace(),
        "counters": _recovery_counters(report),
        "fault_delay": result.extra["trace"].total_fault_delay,
        "elapsed": result.elapsed,
    }


class TestSimulatedDeterminism:
    def test_two_runs_identical(self, small_rmat_ordered):
        first = _run_sim(small_rmat_ordered)
        second = _run_sim(small_rmat_ordered)
        assert first["trace"] == second["trace"]
        assert first["counters"] == second["counters"]
        assert first["triangles"] == second["triangles"]
        assert first["fault_delay"] == second["fault_delay"]
        assert first["elapsed"] == second["elapsed"]
        assert first["trace"], "plan injected nothing — seed too weak"

    def test_different_seed_different_trace(self, small_rmat_ordered):
        store = make_store(small_rmat_ordered, 512)
        traces = []
        for seed in (1, 2):
            plan = FaultPlan(SPECS, seed=seed)
            triangulate_disk(store, buffer_pages=6,
                             ctx=RunContext(fault_plan=plan,
                                            retry_policy=POLICY))
            traces.append(plan.log.trace())
        assert traces[0] != traces[1]

    def test_trace_is_canonically_sorted(self, small_rmat_ordered):
        plan = FaultPlan(SPECS, seed=99)
        store = make_store(small_rmat_ordered, 512)
        triangulate_disk(store, buffer_pages=6,
                         ctx=RunContext(fault_plan=plan, retry_policy=POLICY))
        trace = plan.log.trace()
        assert list(trace) == sorted(trace)


class TestThreadedDeterminism:
    """Real threads: arrival order varies, the canonical trace must not.

    Dropped-callback faults are used (not stalls): their injection and
    recovery counts all settle at the ``wait_idle`` barrier, so the
    event trace is a pure function of the plan even under real thread
    scheduling.
    """

    DROP_SPECS = [FaultSpec("dropped_callback", rate=0.4, times=1)]
    DROP_POLICY = RetryPolicy(max_retries=3, timeout=0.15)

    def _run(self, graph, directory):
        plan = FaultPlan(self.DROP_SPECS, seed=5)
        report = RunReport("threaded-determinism")
        sink = CollectSink()
        triangulate_threaded(graph, directory, buffer_pages=6, page_size=512,
                             sink=sink,
                             ctx=RunContext(fault_plan=plan,
                                            retry_policy=self.DROP_POLICY,
                                            report=report))
        return {
            "triangles": canonical_triangles(sink),
            "trace": plan.log.trace(),
            "counters": _recovery_counters(report),
        }

    def test_two_runs_identical(self, small_rmat_ordered, tmp_path):
        first = self._run(small_rmat_ordered, tmp_path / "a")
        second = self._run(small_rmat_ordered, tmp_path / "b")
        assert first["trace"] == second["trace"]
        assert first["counters"] == second["counters"]
        assert first["triangles"] == second["triangles"]
        assert any(event == "inject" for event, *_ in first["trace"]), \
            "plan injected nothing — seed too weak"


class TestPlanDecisionPurity:
    """The decision functions themselves, independent of any engine."""

    def test_actions_are_pure(self):
        plans = [FaultPlan(SPECS, seed=3) for _ in range(2)]
        for pid in range(20):
            for attempt in range(4):
                assert (plans[0].actions(pid, attempt)
                        == plans[1].actions(pid, attempt))

    def test_backoff_is_pure(self):
        policy = RetryPolicy(seed=4)
        assert [policy.backoff(3, a) for a in range(5)] \
            == [policy.backoff(3, a) for a in range(5)]

    def test_affected_pages_match_actions(self):
        plan = FaultPlan(SPECS, seed=99)
        for kind in ("transient", "latency", "torn"):
            affected = plan.affected_pages(kind, 40)
            fired = {
                pid for pid in range(40)
                if any(a.kind == kind for a in plan.actions(pid, 0))
            }
            assert affected == fired

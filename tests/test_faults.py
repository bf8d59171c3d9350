"""Failure-injection tests: the storage stack must fail loudly."""

from __future__ import annotations

import pytest

from repro.core.framework import OPTConfig, _BufferedFeed
from repro.errors import (
    ConfigurationError,
    DeviceError,
    FaultExhaustedError,
    PageFormatError,
)
from repro.obs import MetricsRegistry, RunContext, RunReport
from repro.storage import (
    FaultPlan,
    FaultSpec,
    FaultyPageFile,
    GraphStore,
    RetryPolicy,
    SlottedPage,
    ThreadedSSD,
    corrupt_page_bytes,
)
from repro.storage.faults import read_with_retry


pytestmark = pytest.mark.fast

#: A fault that outlasts every retry budget below.
FOREVER = 100


@pytest.fixture()
def page_file(tmp_path, small_rmat):
    store = GraphStore.from_graph(small_rmat, 256)
    with store.open_page_file(tmp_path) as handle:
        yield handle, store


def _faulty(handle, kind, pages, times):
    plan = FaultPlan([FaultSpec(kind, pages=frozenset(pages), times=times)])
    return FaultyPageFile(handle, plan)


def _read(pages, store, pid, policy, registry=None):
    """One synchronous read through the engines' shared retry loop."""
    registry = registry if registry is not None else MetricsRegistry()
    return read_with_retry(pages, pid, store.decode_images, policy,
                           registry.counter("recovery.retries"),
                           registry.counter("recovery.giveups"))


class TestCorruption:
    def test_decoder_detects_corruption(self, page_file):
        handle, _store = page_file
        corrupted = corrupt_page_bytes(handle.read_page(0))
        with pytest.raises(PageFormatError):
            SlottedPage.from_bytes(corrupted)

    def test_corrupting_wrapper_targets_only_bad_pages(self, page_file):
        handle, _store = page_file
        wrapper = _faulty(handle, "torn", {1}, FOREVER)
        # Page 0 decodes fine...
        SlottedPage.from_bytes(wrapper.read_page(0))
        # ...page 1 must be detected as damaged.
        with pytest.raises(PageFormatError):
            SlottedPage.from_bytes(wrapper.read_page(1))

    def test_sync_device_surfaces_corruption(self, page_file):
        """A synchronous read without a policy hands the decoder's
        verdict on a torn page straight to its caller."""
        handle, store = page_file
        with pytest.raises(PageFormatError):
            _read(_faulty(handle, "torn", {0}, 1), store, 0, None)


class TestTransientFaults:
    def test_fail_first_attempt_then_recover(self, page_file):
        """The next read after a failed one, retried or not, is the
        plan's next attempt."""
        handle, store = page_file
        flaky = _faulty(handle, "transient", {0}, 1)
        with pytest.raises(DeviceError):
            _read(flaky, store, 0, None)
        assert _read(flaky, store, 0, None).vertices.tolist() \
            == store.decode_page(0).vertices.tolist()
        assert flaky.attempts_of(0) == 2

    def test_permanent_fault(self, page_file):
        handle, _store = page_file
        flaky = _faulty(handle, "transient", {2}, FOREVER)
        flaky.read_page(0)
        for _ in range(3):
            with pytest.raises(DeviceError):
                flaky.read_page(2)

    def test_threaded_ssd_surfaces_injected_fault(self, page_file):
        handle, store = page_file
        flaky = _faulty(handle, "transient", {1}, FOREVER)
        ssd = ThreadedSSD(flaky, store.decode_images, io_workers=2)
        ssd.async_read(0, lambda records: None)
        ssd.async_read(1, lambda records: None)
        with pytest.raises(DeviceError):
            ssd.wait_idle()
        ssd.close()

    def test_threaded_ssd_usable_after_clean_pages(self, page_file):
        handle, store = page_file
        flaky = FaultyPageFile(handle, FaultPlan([]))
        seen = []
        with ThreadedSSD(flaky, store.decode_images, io_workers=2) as ssd:
            for pid in range(min(4, store.num_pages)):
                ssd.async_read(pid, lambda records, p=None: seen.append(1))
            ssd.wait_idle()
        assert len(seen) == min(4, store.num_pages)


# ---------------------------------------------------------------------------
# The declarative fault subsystem (FaultPlan / FaultyPageFile /
# read_with_retry / RetryPolicy) — unit level; the engine-level matrix
# lives in test_fault_matrix.py.
# ---------------------------------------------------------------------------


class TestFaultSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("cosmic-ray")

    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("transient", rate=1.5)

    def test_latency_needs_delay(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("latency", rate=0.5)
        FaultSpec("latency", rate=0.5, delay=0.001)  # fine

    def test_times_positive(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("transient", rate=0.5, times=0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_grows_and_is_jitter_bounded(self):
        policy = RetryPolicy(backoff_base=0.001, backoff_factor=2.0,
                             jitter=0.5)
        values = [policy.backoff(0, attempt) for attempt in range(4)]
        for attempt, value in enumerate(values):
            base = 0.001 * 2.0 ** attempt
            assert base <= value <= base * 1.5

    def test_no_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.001, jitter=0.0)
        assert policy.backoff(5, 2) == 0.001 * 4


class TestFaultPlan:
    def test_explicit_pages_override_rate(self):
        plan = FaultPlan([FaultSpec("transient", pages=frozenset({3}))])
        assert plan.actions(3, 0)
        assert not plan.actions(4, 0)

    def test_times_bounds_attempts(self):
        plan = FaultPlan([FaultSpec("transient", pages=frozenset({0}),
                                    times=2)])
        assert plan.actions(0, 0) and plan.actions(0, 1)
        assert not plan.actions(0, 2)

    def test_actions_ordered_by_kind(self):
        plan = FaultPlan([
            FaultSpec("torn", pages=frozenset({0})),
            FaultSpec("latency", pages=frozenset({0}), delay=0.001),
        ])
        kinds = [action.kind for action in plan.actions(0, 0)]
        assert kinds == ["latency", "torn"]

    def test_needs_timeout(self):
        assert FaultPlan([FaultSpec("stall", rate=0.1,
                                    delay=0.5)]).needs_timeout
        assert not FaultPlan([FaultSpec("transient", rate=0.1)]).needs_timeout


class TestFaultyPageFile:
    def test_transient_heals_after_times(self, page_file):
        handle, _store = page_file
        plan = FaultPlan([FaultSpec("transient", pages=frozenset({0}),
                                    times=1)])
        faulty = FaultyPageFile(handle, plan)
        with pytest.raises(DeviceError):
            faulty.read_page(0)
        assert faulty.read_page(0) == handle.read_page(0)
        assert faulty.attempts_of(0) == 2

    def test_torn_page_is_detected_by_decoder(self, page_file):
        handle, _store = page_file
        plan = FaultPlan([FaultSpec("torn", pages=frozenset({1}), times=1)])
        faulty = FaultyPageFile(handle, plan)
        with pytest.raises(PageFormatError):
            SlottedPage.from_bytes(faulty.read_page(1))
        SlottedPage.from_bytes(faulty.read_page(1))  # healed

    def test_latency_sleeps_injected_delay(self, page_file):
        handle, _store = page_file
        slept = []
        plan = FaultPlan([FaultSpec("latency", pages=frozenset({0}),
                                    delay=0.25)])
        faulty = FaultyPageFile(handle, plan, sleep=slept.append)
        faulty.read_page(0)
        assert slept == [0.25]


class TestSyncDeviceRecovery:
    """A synchronous read through :func:`read_with_retry`, the loop the
    threaded device's readers and the simulated feed both call."""

    def test_retries_through_fault_plan(self, page_file):
        handle, store = page_file
        registry = MetricsRegistry()
        records = _read(_faulty(handle, "transient", {0}, 2), store, 0,
                        RetryPolicy(max_retries=3, backoff_base=0.0),
                        registry)
        assert records.vertices.tolist() \
            == store.decode_page(0).vertices.tolist()
        assert registry.value("recovery.retries") == 2

    def test_exhaustion_is_typed(self, page_file):
        handle, store = page_file
        with pytest.raises(FaultExhaustedError) as excinfo:
            _read(_faulty(handle, "transient", {0}, FOREVER), store, 0,
                  RetryPolicy(max_retries=2, backoff_base=0.0))
        assert excinfo.value.pid == 0
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value, DeviceError)

    def test_no_policy_fails_fast(self, page_file):
        handle, store = page_file
        registry = MetricsRegistry()
        with pytest.raises(DeviceError):
            _read(_faulty(handle, "transient", {0}, 1), store, 0, None,
                  registry)
        assert registry.value("recovery.retries") == 0


class TestRecoveringLoader:
    """The simulated engine's faulted loads: the same injector over the
    store, whose seconds the feed charges to the page instead of
    sleeping them."""

    def _fill(self, store, plan, report, policy=None):
        """Load page 0 twice (a miss, then a buffer hit) through the
        buffered feed; returns each delivery's charged seconds."""
        feed = _BufferedFeed(store, OPTConfig(m_in=1, m_ex=1), 1,
                             RunContext(report=report, fault_plan=plan,
                                        retry_policy=policy))
        charged = []
        for _ in range(2):
            feed.fill([0], lambda block, cuts, pids, buffered, delays:
                      charged.extend(delays))
            feed.finish([0])
        return charged

    def test_accumulates_virtual_delay(self, small_rmat):
        store = GraphStore.from_graph(small_rmat, 256)
        plan = FaultPlan([FaultSpec("latency", pages=frozenset({0}),
                                    delay=0.5)])
        charged = self._fill(store, plan, RunReport("loader"))
        assert charged == [0.5, 0.0]  # the hit is charged nothing

    def test_retry_charges_backoff_not_sleep(self, small_rmat):
        store = GraphStore.from_graph(small_rmat, 256)
        plan = FaultPlan([FaultSpec("transient", pages=frozenset({0}),
                                    times=2)])
        policy = RetryPolicy(max_retries=3, backoff_base=0.001, jitter=0.0)
        report = RunReport("loader")
        charged = self._fill(store, plan, report, policy)
        # Two retries: backoff(0) + backoff(1) = 0.001 + 0.002.
        assert charged[0] == pytest.approx(0.003, abs=1e-12)
        assert report.registry.value("recovery.retries") == 2

    def test_terminal_after_budget(self, small_rmat):
        store = GraphStore.from_graph(small_rmat, 256)
        plan = FaultPlan([FaultSpec("torn", pages=frozenset({0}),
                                    times=FOREVER)])
        report = RunReport("loader")
        with pytest.raises(FaultExhaustedError) as excinfo:
            self._fill(store, plan, report, RetryPolicy(max_retries=2))
        # The corrupted bytes reach the decoder, which rejects them.
        assert isinstance(excinfo.value.__cause__, PageFormatError)
        assert report.registry.value("recovery.giveups") == 1
        assert plan.log.counts() == {"inject:torn": 3, "retry": 2,
                                     "giveup": 1}

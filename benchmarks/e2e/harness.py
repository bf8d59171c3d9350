"""One workload run: generate, oracle, setup passes, verified timed passes.

Every timed quantity is the median over identical, verified passes of
the pass's wall time divided by the box's slowdown while it ran (a
``speed.SpeedReference`` reading on both sides of the pass).  On this
shared box neither the best nor the median of raw wall times repeats;
the speed-normalised median does (numbers in README.md).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.graph.io import write_edge_list

import workloads
from spans import Recorder
from speed import SpeedReference

MIN_PASSES = 7
MAX_PASSES = 64
#: A setup pass follows every third timed pass, so that the setup passes
#: span the whole run.
SETUP_EVERY = 3
#: Traced run: untraced/traced pairs of the workload's own call.
TRACE_PAIRS = 8
#: A layer probe repeats (at most 3 times) until this much time is spent.
PROBE_BUDGET_S = 1.0


class Run:
    """State of one workload process: recorder, oracle, failure counts."""

    def __init__(self, workload: workloads.Workload, seed: int, scale: float,
                 tmp: Path, traced: bool):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.rec = Recorder(workload.name, enabled=traced)
        self.speed = SpeedReference()
        self.attempted = 0
        self.failed = 0
        self.info: dict[str, float] = {}
        self.prepared: workloads.Prepared | None = None
        self.setups: list[float] = []
        #: span name -> raw wall seconds of its passes, traced or not
        self.raw: dict[str, list[float]] = {}
        self.expected: tuple[int, int, int] = (0, 0, 0)
        self._shm_before = _shm_entries()

    # -- passes ----------------------------------------------------------------

    def timed(self, name: str, fn: Callable[[], object]) -> tuple[float, object]:
        """One pass of *fn* under span *name*: (normalised seconds, result)."""
        gc.collect()
        self.rec.pass_id += 1
        before = self.speed.slowdown()
        start = time.perf_counter()
        with self.rec.span(name):
            out = fn()
        elapsed = time.perf_counter() - start
        self.raw.setdefault(name, []).append(elapsed)
        slowdown = (before + self.speed.slowdown()) / 2
        self.rec.slowdown[self.rec.pass_id] = slowdown
        return elapsed / slowdown, out

    def verify(self, label: str, count: int,
               listing: workloads.Listing | None) -> None:
        """Fail closed: count always, listing fingerprint when there is one."""
        self.attempted += 1
        if count == self.expected[0] and (
                listing is None
                or workloads.fingerprint(listing()) == self.expected):
            return
        self.failed += 1
        print(f"FAILED {label}: {count} triangles or their listing differ "
              f"from the oracle's {self.expected[0]}", flush=True)

    def timed_pass(self, name: str,
                   fn: Callable[[], tuple[int, workloads.Listing | None]]
                   ) -> float:
        """One triangulation pass under span *name*, verified after timing."""
        seconds, (count, listing) = self.timed(name, fn)
        self.verify(name, count, listing)
        return seconds

    def probe(self, name: str, fn: Callable[[], object],
              verified: bool = False) -> object:
        """Up to 3 passes under span *name* within the probe budget.

        A *verified* pass returns ``(count, listing)`` for the oracle check;
        the others have no triangles to check.
        """
        spent = 0.0
        for _ in range(3):
            seconds, out = self.timed(name, fn)
            if verified:
                self.verify(name, *out)
            spent += seconds
            if spent >= PROBE_BUDGET_S:
                break
        return out

    def seconds(self, name: str) -> float:
        """Median normalised duration of the spans called *name*."""
        return statistics.median(self.rec.durations(name))

    def call(self):
        return self.workload.call(self.prepared)

    # -- phases ----------------------------------------------------------------

    def prepare(self) -> None:
        """Generate the input, run the oracle, make the first setup pass."""
        start = time.perf_counter()
        graph = self.workload.generate(self.seed, self.scale)
        self.edge_list = self.tmp / "graph.txt"
        write_edge_list(graph, self.edge_list)
        self.info["harness.gen_s"] = time.perf_counter() - start

        start = time.perf_counter()
        triples = workloads.oracle_triples(graph)
        self.info["harness.oracle_s"] = time.perf_counter() - start
        self.info.update(vertices=graph.num_vertices, edges=graph.num_edges,
                         triangles=len(triples))

        self.prepared = self.setup_pass()
        mapping = self.prepared.mapping
        if not np.array_equal(np.sort(mapping), np.arange(len(mapping))):
            raise AssertionError("ordering mapping is not a permutation")
        self.expected = workloads.fingerprint(mapping[triples])

    def setup_pass(self) -> workloads.Prepared:
        """One timed pass of the program's preprocessing."""
        seconds, prepared = self.timed("e2e.setup", lambda: workloads.setup(
            self.workload, self.edge_list, self.tmp, self.rec))
        self.setups.append(seconds)
        return prepared

    def measure(self, seconds: float) -> dict[str, float]:
        """Untraced run: the end-to-end metrics."""
        self.prepare()
        self.timed_pass("e2e.call", self.call)  # warm-up
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(walls) < MAX_PASSES and (
                len(walls) < MIN_PASSES or time.perf_counter() < deadline):
            walls.append(self.timed_pass("e2e.call", self.call))
            if len(walls) % SETUP_EVERY == 0:
                self.setup_pass()
        self.check_hygiene()
        self.info.update(wall_passes=len(walls), setup_passes=len(self.setups),
                         **self.raw_stats())
        usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return {"wall_s": statistics.median(walls),
                "setup_s": statistics.median(self.setups),
                "peak_rss_mb": usage / 1024.0}

    def measure_traced(self) -> tuple[list[float], list[float]]:
        """Traced run's own call: untraced and traced walls, interleaved."""
        self.prepare()
        self.timed_pass("e2e.call", self.call)  # warm-up
        plain: list[float] = []
        traced: list[float] = []
        for _ in range(TRACE_PAIRS):
            for enabled, into in ((False, plain), (True, traced)):
                self.rec.enabled = enabled
                into.append(self.timed_pass("e2e.call", self.call))
            self.setup_pass()
        return plain, traced

    def raw_stats(self) -> dict[str, float]:
        """Un-normalised wall times of the run's own passes, and its slowdown."""
        walls = self.raw["e2e.call"][1:]  # without the warm-up
        return {"e2e.wall_best_s": min(walls),
                "e2e.wall_med_s": statistics.median(walls),
                "e2e.wall_worst_s": max(walls),
                "e2e.setup_med_s": statistics.median(self.raw["e2e.setup"]),
                "e2e.slowdown": statistics.median(self.rec.slowdown.values())}

    def check_hygiene(self) -> None:
        """No shared-memory segment and no child process may outlive a pass."""
        self.attempted += 1
        leaked = _shm_entries() - self._shm_before
        children = multiprocessing.active_children()
        if leaked or children:
            self.failed += 1
            print(f"FAILED hygiene: /dev/shm {sorted(leaked)}, "
                  f"children {children}", flush=True)


def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()

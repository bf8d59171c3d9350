"""Tests for the cost equations and Amdahl analysis."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    SpeedupRow,
    amdahl_bound,
    fit_parallel_fraction,
    ideal_cost,
    io_lower_bound,
    mgt_io_bound,
    opt_serial_cost,
    relative_elapsed_time,
)
from repro.core import make_store, triangulate_disk
from repro.memory import edge_iterator
from repro.obs import RunContext, RunReport
from repro.sim import CostModel

COST = CostModel()


class TestAmdahl:
    def test_bound_limits(self):
        assert amdahl_bound(0.0, 6) == pytest.approx(1.0)
        assert amdahl_bound(1.0, 6) == pytest.approx(6.0)

    def test_paper_table5_values(self):
        """Reproduce the paper's reported upper bounds from its p values."""
        assert amdahl_bound(0.961, 6) == pytest.approx(5.03, abs=0.05)
        assert amdahl_bound(0.989, 6) == pytest.approx(5.70, abs=0.05)
        assert amdahl_bound(0.271, 6) == pytest.approx(1.30, abs=0.05)
        assert amdahl_bound(0.747, 6) == pytest.approx(2.68, abs=0.05)

    def test_fit_inverts_bound(self):
        for p in (0.3, 0.7, 0.95):
            speedup = amdahl_bound(p, 6)
            assert fit_parallel_fraction(speedup, 6) == pytest.approx(p, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            amdahl_bound(1.5, 4)
        with pytest.raises(ValueError):
            amdahl_bound(0.5, 0)
        with pytest.raises(ValueError):
            fit_parallel_fraction(2.0, 1)

    def test_speedup_row(self):
        row = SpeedupRow("OPT", "UK", 0.975, 6, 4.08)
        assert row.upper_bound == pytest.approx(amdahl_bound(0.975, 6))
        assert row.as_tuple()[0] == "OPT"


class TestCostEquations:
    def test_ideal_cost_formula(self):
        breakdown = ideal_cost(100, 50000, COST)
        assert breakdown.io_ops == pytest.approx(COST.c_effective * 100)
        assert breakdown.cpu_ops == 50000
        assert breakdown.total == pytest.approx(COST.c_effective * 100 + 50000)

    def test_opt_serial_cost_from_real_trace(self):
        from repro.graph import generators
        from repro.graph.ordering import apply_ordering

        graph, _ = apply_ordering(
            generators.holme_kim(1200, 12, 0.4, seed=11), "degree"
        )
        store = make_store(graph, 1024)
        result = triangulate_disk(store, buffer_ratio=0.15, cost=COST)
        trace = result.extra["trace"]
        breakdown = opt_serial_cost(trace, COST)
        ideal = ideal_cost(store.num_pages, edge_iterator(graph).cpu_ops, COST)
        # Section 3.3: the serial cost is the ideal plus c(Δex - Δin),
        # which must stay a small correction, not a multiple.
        assert breakdown.total < 1.5 * ideal.total
        assert breakdown.delta_in_ops >= 0

    def test_relative_elapsed(self):
        assert relative_elapsed_time(1.07, 1.0) == pytest.approx(1.07)
        with pytest.raises(ValueError):
            relative_elapsed_time(1.0, 0.0)

    def test_mgt_bound_formula(self):
        bound = mgt_io_bound(100, 10, COST)
        assert bound == pytest.approx((1 + math.ceil(100 / 10)) * COST.c * 100)
        with pytest.raises(ValueError):
            mgt_io_bound(100, 0, COST)

    def test_io_lower_bound_formula_and_report(self, small_rmat_ordered):
        assert io_lower_bound(169, 25) == pytest.approx(169 ** 1.5 / 5)
        assert io_lower_bound(0, 4) == 0
        with pytest.raises(ValueError):
            io_lower_bound(100, 0)
        store = make_store(small_rmat_ordered, 256)
        report = RunReport()
        result = triangulate_disk(store, buffer_pages=8,
                                  ctx=RunContext(report=report))
        assert report.derived["io_vs_lower_bound"] == pytest.approx(
            result.pages_read / io_lower_bound(store.num_pages, 8))

    def test_mgt_io_within_paper_bound(self, small_rmat_ordered):
        """Measured MGT read volume must respect Eq. 7's upper bound.

        The bound is evaluated at the run's *actual* iteration count
        (vertex-aligned chunking can add iterations over ceil(P/m)).
        """
        store = make_store(small_rmat_ordered, 256)
        result = triangulate_disk(store, plugin="mgt", buffer_pages=8, cost=COST)
        measured_io_ops = COST.c * result.pages_read
        bound = (1 + result.iterations) * COST.c * store.num_pages
        assert measured_io_ops <= bound

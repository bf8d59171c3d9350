"""Analytic companions to the simulated runs: cost equations, Amdahl fits."""

from repro.analysis.amdahl import SpeedupRow, amdahl_bound, fit_parallel_fraction
from repro.analysis.costs import (
    CostBreakdown,
    cost_conformance,
    ideal_cost,
    io_lower_bound,
    mgt_io_bound,
    opt_serial_cost,
    relative_elapsed_time,
)
from repro.analysis.ascii_chart import bar_chart, series_chart
from repro.analysis.report import EXPERIMENT_ORDER, build_report

__all__ = [
    "CostBreakdown",
    "EXPERIMENT_ORDER",
    "SpeedupRow",
    "amdahl_bound",
    "bar_chart",
    "series_chart",
    "build_report",
    "cost_conformance",
    "fit_parallel_fraction",
    "ideal_cost",
    "io_lower_bound",
    "mgt_io_bound",
    "opt_serial_cost",
    "relative_elapsed_time",
]

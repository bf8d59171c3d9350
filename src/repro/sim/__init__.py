"""Discrete-event simulation of multi-core CPU + FlashSSD execution."""

from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.schedule import IterationTiming, SimResult, simulate
from repro.sim.trace import ExternalRead, IterationTrace, RunTrace

__all__ = [
    "DEFAULT_COST_MODEL",
    "CostModel",
    "ExternalRead",
    "IterationTiming",
    "IterationTrace",
    "RunTrace",
    "SimResult",
    "simulate",
]

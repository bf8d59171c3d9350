"""The paper's Section 3.3 cost equations, evaluated on measured traces.

Provides the analytic counterparts to the simulated runs:

* ``ideal_cost``            — Eq. 6: ``c * P(G) + Cost_CPU``;
* ``opt_serial_cost``       — ``Cost_ideal + c * (Δex − Δin)``;
* ``relative_elapsed_time`` — the Figure 3a measure (method / ideal);
* ``mgt_io_bound``          — Eq. 7's ``(1 + ceil(P/m)) * c * P(G)``;
* ``io_lower_bound``        — Pagh–Silvestri's ``P^{3/2} / sqrt(m)`` pages.

All quantities are expressed in CPU-operation units, with ``c`` taken
from a :class:`~repro.sim.costmodel.CostModel` so analytic and simulated
numbers are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.trace import RunTrace

__all__ = [
    "CostBreakdown",
    "cost_conformance",
    "ideal_cost",
    "io_lower_bound",
    "mgt_io_bound",
    "opt_serial_cost",
    "relative_elapsed_time",
]


@dataclass(frozen=True)
class CostBreakdown:
    """One run's cost decomposition in CPU-operation units."""

    io_ops: float
    cpu_ops: float
    delta_in_ops: float = 0.0
    delta_ex_ops: float = 0.0

    @property
    def total(self) -> float:
        return self.io_ops + self.cpu_ops - self.delta_in_ops + self.delta_ex_ops


def ideal_cost(
    num_pages: int,
    cpu_ops: int,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> CostBreakdown:
    """Eq. 6: the ideal method reads the graph once and pays pure CPU."""
    return CostBreakdown(io_ops=cost.c_effective * num_pages, cpu_ops=float(cpu_ops))


def opt_serial_cost(
    trace: RunTrace,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> CostBreakdown:
    """Section 3.3: ``c(P(G) − Δin) + Cost_CPU + c·Δex`` from a real trace.

    ``Δin`` is the measured buffered-fill saving.  ``Δex`` — the external
    I/O that could not hide behind external CPU — is computed per
    iteration as ``max(0, c·|L_i| − cpu_ex_i)``, the non-overlapped
    remainder of the micro-level pipeline.
    """
    delta_ex = 0.0
    for iteration in trace.iterations:
        io = cost.c_effective * iteration.external_device_reads
        delta_ex += max(0.0, io - iteration.external_ops)
    return CostBreakdown(
        io_ops=cost.c_effective * trace.num_pages,
        cpu_ops=float(trace.total_ops),
        delta_in_ops=cost.c_effective * trace.total_fill_buffered,
        delta_ex_ops=delta_ex,
    )


def relative_elapsed_time(method_elapsed: float, ideal_elapsed: float) -> float:
    """Figure 3a's measure: elapsed(method) / elapsed(ideal)."""
    if ideal_elapsed <= 0:
        raise ValueError("ideal elapsed time must be positive")
    return method_elapsed / ideal_elapsed


def cost_conformance(
    trace: RunTrace,
    measured_elapsed: float,
    cost: CostModel = DEFAULT_COST_MODEL,
    *,
    tolerance: float = 0.15,
    basis: str = "simulated",
) -> dict:
    """Check a measured run against the ``Cost_OPTserial`` prediction.

    Evaluates the Section 3.3 closed form on the run's own trace —
    ``c(P(G) − Δin) + Cost_CPU + c·Δex`` — converts it to seconds via
    the model's ``op_time``, and compares *measured_elapsed* against it.
    On the simulated engine in serial mode the two describe the same
    schedule, so drift beyond *tolerance* means the scheduler and the
    analytic model have diverged (the check the paper's ~7%-of-ideal
    claim rests on).  On the threaded engine *measured_elapsed* is wall
    seconds on real hardware, so the verdict reports how far the machine
    is from the calibrated model rather than a correctness property —
    callers pass ``basis="wall"`` to say so.

    Returns a JSON-ready dict: ``predicted_elapsed``,
    ``measured_elapsed``, ``ratio``, ``tolerance``, ``basis``,
    ``verdict`` (``"conforms"`` / ``"drift"``), plus the measured
    ``delta_in_ops`` / ``delta_ex_ops`` / ``delta_ex_minus_in_ops``
    behind the prediction.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    breakdown = opt_serial_cost(trace, cost)
    predicted = breakdown.total * cost.op_time
    ratio = measured_elapsed / predicted if predicted > 0 else float("inf")
    return {
        "predicted_elapsed": predicted,
        "measured_elapsed": measured_elapsed,
        "ratio": ratio,
        "tolerance": tolerance,
        "basis": basis,
        "verdict": "conforms" if abs(ratio - 1.0) <= tolerance else "drift",
        "delta_in_ops": breakdown.delta_in_ops,
        "delta_ex_ops": breakdown.delta_ex_ops,
        "delta_ex_minus_in_ops": breakdown.delta_ex_ops - breakdown.delta_in_ops,
    }


def mgt_io_bound(
    num_pages: int,
    buffer_pages: int,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Eq. 7's MGT I/O bound ``(1 + ceil(P/m)) * c * P(G)`` in op units."""
    if buffer_pages < 1:
        raise ValueError("buffer must hold at least one page")
    iterations = math.ceil(num_pages / buffer_pages)
    return (1 + iterations) * cost.c * num_pages


def io_lower_bound(num_pages: int, buffer_pages: int) -> float:
    """Pages any triangle enumeration must read: ``P^{3/2} / sqrt(m)``.

    Pagh and Silvestri's ``E^{3/2} / (sqrt(M) * B)`` I/Os (PAPERS.md) in
    page units — ``E = P * B`` edges, ``M = m * B`` of memory — up to
    constants, so a run's ``pages_read`` over this says how far from
    I/O-optimal it is, not whether it beat a hard floor.
    """
    if buffer_pages < 1:
        raise ValueError("buffer must hold at least one page")
    return num_pages ** 1.5 / math.sqrt(buffer_pages)

"""Intersection kernels: the Kernel axis of the composition layer.

Five strategies, all operating on sorted duplicate-free id arrays and
all charging their own op count for every edge ``(u, v)``:

* ``hash`` — the canonical Eq. 3 kernel: the analytic hash-probe charge
  ``min(|a|, |b|)``, which is what
  :func:`repro.memory.edge_iterator.edge_iterator` runs.  It has no
  per-pair form: :func:`repro.exec.engine.run_range` hands its ranges to
  :func:`repro.exec.block.block_range`, which resolves whole blocks of
  edges with that charge.
* ``merge`` — two-pointer merge; charges measured element comparisons.
* ``gallop`` — exponential search; efficient under degree skew, the
  AOT-style alternative for ``|a| ≪ |b|``.
* ``bitmap`` — dense boolean mask over the vertex space, the
  matrix/bitmap strategy: mark the longer list, probe the shorter.
  Charges the same analytic ``min(|a|, |b|)`` as ``hash`` (one probe
  per shorter-side member), so bitmap cells cross-check the Eq. 3
  conservation property through a completely different data path.
* ``adaptive`` — AOT-style per-pair selection: range-prune both lists,
  charge the Eq. 3 min over the *pruned* lists (≤ every fixed kernel's
  charge, strictly below on partial range overlap), then route the pair
  to the merge / gallop / bitmap data path by pruned skew ratio.  See
  ``docs/kernels.md`` for the selection rule and thresholds.

Each class satisfies :class:`repro.exec.protocols.Kernel`.  Kernels are
stateless (forked pool workers inherit the instance and bind it once
each); a kernel with per-graph scratch (``hash``, ``bitmap``,
``adaptive``) keeps it in the binding ``bind()`` returns, and the two
without (``merge``, ``gallop``) are their own binding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exec.block import mask_cells
from repro.util.intersect import (
    adaptive_intersect_detail,
    gallop_intersect,
    merge_intersect,
)

__all__ = ["AdaptiveKernel", "BitmapKernel", "GallopKernel", "HashKernel",
           "MergeKernel"]


class HashKernel:
    """Block-batched intersection charged with the analytic Eq. 3 count."""

    name = "hash"

    def bind(self, num_vertices: int) -> "_HashBinding":
        return _HashBinding(num_vertices)


class _HashBinding:
    """The ``hash`` binding: owns the :func:`repro.exec.block.block_range`
    mask, so one binding's ranges share one allocation.

    The mask is allocated on first use: a process that binds after a fork
    page-faults its own mask once, not one per range and never a
    copy-on-write page of its parent's.
    """

    name = "hash"

    def __init__(self, num_vertices: int):
        self._num_vertices = num_vertices
        self._mask: np.ndarray | None = None

    def mask(self) -> np.ndarray:
        """The all-False scratch mask of ``mask_cells(n)`` cells."""
        if self._mask is None:
            self._mask = np.zeros(mask_cells(self._num_vertices), dtype=bool)
        return self._mask

    def stats(self) -> dict[str, list[int]]:
        return {}


class MergeKernel:
    """Two-pointer merge over python lists; measured comparison count.
    Stateless, so it is its own binding."""

    name = "merge"

    def bind(self, num_vertices: int) -> "MergeKernel":
        return self

    def prep(self, row: np.ndarray) -> list[int]:
        return row.tolist()

    def intersect(self, a: list[int], b: np.ndarray) -> tuple[Sequence[int], int]:
        return merge_intersect(a, b.tolist())

    def stats(self) -> dict[str, list[int]]:
        return {}


class GallopKernel:
    """Galloping/exponential search; measured comparison count.
    Stateless, so it is its own binding."""

    name = "gallop"

    def bind(self, num_vertices: int) -> "GallopKernel":
        return self

    def prep(self, row: np.ndarray) -> list[int]:
        return row.tolist()

    def intersect(self, a: list[int], b: np.ndarray) -> tuple[Sequence[int], int]:
        return gallop_intersect(a, b.tolist())

    def stats(self) -> dict[str, list[int]]:
        return {}


class BitmapKernel:
    """Dense bitmap probe with the analytic Eq. 3 charge.

    The binding owns one boolean scratch array sized to the graph; each
    pair marks the longer list, probes the shorter against the mask,
    and unmarks — O(|a| + |b|) work but only ``min(|a|, |b|)`` charged
    probes, mirroring how the paper charges its O(1)-membership model
    regardless of the structure backing it.
    """

    name = "bitmap"

    def bind(self, num_vertices: int) -> "_BitmapBinding":
        return _BitmapBinding(num_vertices)


class _BitmapBinding:
    name = "bitmap"

    def __init__(self, num_vertices: int):
        self._mask = np.zeros(num_vertices, dtype=bool)

    def prep(self, row: np.ndarray) -> np.ndarray:
        return row

    def intersect(self, a: np.ndarray, b: np.ndarray) -> tuple[Sequence[int], int]:
        if len(a) == 0 or len(b) == 0:
            return (), min(len(a), len(b))
        shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
        mask = self._mask
        mask[longer] = True
        common = shorter[mask[shorter]]
        mask[longer] = False
        return common, len(shorter)

    def stats(self) -> dict[str, list[int]]:
        return {}


class AdaptiveKernel:
    """Range-pruned per-pair strategy selection (AOT-style).

    Every pair is first range-pruned (each list restricted to the
    other's ``[min, max]`` span) and charged the Eq. 3 min over the
    *pruned* lists — ≤ the hash kernel's ``min(|a|, |b|)`` always,
    strictly below it whenever successor ranges only partially overlap.
    The pruned skew ratio then routes the pair to merge / gallop /
    bitmap data paths (see
    :func:`repro.util.intersect.adaptive_intersect_detail`); the binding
    owns the graph-sized bitmap scratch mask and tallies pairs and ops
    per branch, which the engine surfaces as the labelled
    ``exec.branch.*`` counters.
    """

    name = "adaptive"

    def bind(self, num_vertices: int) -> "_AdaptiveBinding":
        return _AdaptiveBinding(num_vertices)


class _AdaptiveBinding:
    name = "adaptive"

    def __init__(self, num_vertices: int):
        self._mask = np.zeros(num_vertices, dtype=bool)
        self._branches: dict[str, list[int]] = {}

    def prep(self, row: np.ndarray) -> np.ndarray:
        return row

    def intersect(self, a: np.ndarray, b: np.ndarray) -> tuple[Sequence[int], int]:
        common, ops, branch = adaptive_intersect_detail(a, b, self._mask)
        cell = self._branches.get(branch)
        if cell is None:
            cell = self._branches[branch] = [0, 0]
        cell[0] += 1
        cell[1] += ops
        return common, ops

    def stats(self) -> dict[str, list[int]]:
        return {branch: list(cell) for branch, cell in self._branches.items()}

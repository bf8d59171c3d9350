"""Intersection kernels: the Kernel axis of the composition layer.

Five strategies, all operating on sorted duplicate-free id arrays and
all returning ``(common, ops)``:

* ``hash`` — the canonical Eq. 3 kernel: the fast numpy intersection
  with the analytic hash-probe charge ``min(|a|, |b|)``.  This is
  byte-for-byte the accounting of the historical
  :func:`repro.memory.edge_iterator.edge_iterator` numpy path, which is
  now a façade over this kernel.  Over a CSR-backed handle the engine
  does not call it pair by pair: :mod:`repro.exec.block` resolves whole
  blocks of edges with the same charge; the per-pair form serves the
  paged-disk source.
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

Kernels are stateless (forked pool workers inherit the instance and
bind it once each); per-graph scratch state lives in the binding
returned by ``bind()``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exec.block import mask_cells
from repro.util.intersect import (
    adaptive_intersect_detail,
    gallop_intersect,
    intersect_count_ops,
    intersect_sorted,
    merge_intersect,
)

__all__ = ["AdaptiveKernel", "BitmapKernel", "GallopKernel", "HashKernel",
           "Kernel", "MergeKernel"]


class Kernel:
    """Base: a named intersection strategy.

    Subclasses override :meth:`bind` (stateful kernels) or
    :meth:`_intersect` (stateless ones).
    """

    name = "abstract"

    def bind(self, num_vertices: int) -> "KernelBinding":
        return KernelBinding(self)

    def _intersect(self, a, b: np.ndarray) -> tuple[Sequence[int], int]:
        raise NotImplementedError

    def _prep(self, row: np.ndarray):
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name}>"


class KernelBinding:
    """Default binding: delegate straight to the kernel's methods.

    Bindings carry their kernel's ``name`` so attribution scopes can be
    labelled from whichever object a caller holds.
    """

    def __init__(self, kernel: Kernel):
        self._kernel = kernel
        self.name = kernel.name

    def prep(self, row: np.ndarray):
        return self._kernel._prep(row)

    def intersect(self, prepped, row: np.ndarray) -> tuple[Sequence[int], int]:
        return self._kernel._intersect(prepped, row)

    def stats(self) -> dict[str, list[int]]:
        """Per-branch ``{branch: [pairs, ops]}`` — empty for fixed-path
        kernels; the adaptive binding reports its selector's decisions."""
        return {}


class HashKernel(Kernel):
    """Numpy intersection charged with the analytic Eq. 3 probe count."""

    name = "hash"

    def bind(self, num_vertices: int) -> "_HashBinding":
        return _HashBinding(self, num_vertices)

    def _intersect(self, a: np.ndarray, b: np.ndarray) -> tuple[Sequence[int], int]:
        common = intersect_sorted(a, b)
        return common, intersect_count_ops(len(a), len(b))


class _HashBinding(KernelBinding):
    """The ``hash`` binding: owns the :func:`repro.exec.block.block_range`
    mask, so one binding's ranges share one allocation.

    The mask is allocated on first use: a process that binds after a fork
    page-faults its own mask once, not one per range and never a
    copy-on-write page of its parent's.
    """

    def __init__(self, kernel: Kernel, num_vertices: int):
        super().__init__(kernel)
        self._num_vertices = num_vertices
        self._mask: np.ndarray | None = None

    def mask(self) -> np.ndarray:
        """The all-False scratch mask of ``mask_cells(n)`` cells."""
        if self._mask is None:
            self._mask = np.zeros(mask_cells(self._num_vertices), dtype=bool)
        return self._mask


class MergeKernel(Kernel):
    """Two-pointer merge over python lists; measured comparison count."""

    name = "merge"

    def _prep(self, row: np.ndarray) -> list[int]:
        return row.tolist()

    def _intersect(self, a: list[int], b: np.ndarray) -> tuple[Sequence[int], int]:
        return merge_intersect(a, b.tolist())


class GallopKernel(Kernel):
    """Galloping/exponential search; measured comparison count."""

    name = "gallop"

    def _prep(self, row: np.ndarray) -> list[int]:
        return row.tolist()

    def _intersect(self, a: list[int], b: np.ndarray) -> tuple[Sequence[int], int]:
        return gallop_intersect(a, b.tolist())


class BitmapKernel(Kernel):
    """Dense bitmap probe with the analytic Eq. 3 charge.

    The binding owns one boolean scratch array sized to the graph; each
    pair marks the longer list, probes the shorter against the mask,
    and unmarks — O(|a| + |b|) work but only ``min(|a|, |b|)`` charged
    probes, mirroring how the paper charges its O(1)-membership model
    regardless of the structure backing it.
    """

    name = "bitmap"

    def bind(self, num_vertices: int) -> "KernelBinding":
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


class AdaptiveKernel(Kernel):
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

    def bind(self, num_vertices: int) -> "KernelBinding":
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

"""Sorted-list intersection kernels with operation accounting.

Triangulation cost in the paper is measured in adjacency-list intersection
operations: intersecting ``n_succ(u)`` with ``n_succ(v)`` using an O(1) hash
costs ``min(|n_succ(u)|, |n_succ(v)|)`` probes (Eq. 3 of the paper).  The
engines charge that bill in closed form over whole arrays
(:mod:`repro.exec.block`); :func:`intersect_sorted`, which delegates to
``numpy.intersect1d``, is the uncharged one-pair form.

Two reference kernels (merge, gallop) back the ``merge`` and ``gallop``
kernels of :mod:`repro.exec.kernels`; they return their own measured
operation counts.  :func:`adaptive_intersect_detail` is the ``adaptive``
kernel's per-pair body.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "ADAPTIVE_BITMAP_SKEW",
    "ADAPTIVE_GALLOP_SKEW",
    "adaptive_intersect_detail",
    "gallop_intersect",
    "intersect_sorted",
    "merge_intersect",
]


#: Relative cost of one random hash membership probe versus one step of a
#: cache-friendly sorted intersection.  The vertex-iterator's edge checks
#: are random probes; charging them double reproduces the paper's
#: observation that VertexIterator≻ runs ~20% slower than EdgeIterator≻
#: despite equal asymptotic complexity (Section 5.3).
HASH_PROBE_COST = 2


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted, duplicate-free integer arrays.

    Returns a sorted array of the common elements.  This is the hot path;
    it assumes (and does not validate) sortedness.
    """
    if len(a) == 0 or len(b) == 0:
        return np.empty(0, dtype=a.dtype if len(a) else b.dtype)
    return np.intersect1d(a, b, assume_unique=True)


def merge_intersect(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """Textbook two-pointer merge intersection.

    Returns ``(result, ops)`` where ``ops`` counts element comparisons.
    """
    result: list[int] = []
    i = j = ops = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        ops += 1
        if a[i] == b[j]:
            result.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return result, ops


def gallop_intersect(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], int]:
    """Galloping (exponential search) intersection.

    Efficient when ``len(a) << len(b)``; used by the kernel ablation.
    Returns ``(result, ops)`` where ``ops`` counts comparisons.
    """
    if len(a) > len(b):
        a, b = b, a
    result: list[int] = []
    ops = 0
    lo = 0
    len_b = len(b)
    for x in a:
        # Gallop forward to bracket x, then binary search the bracket.
        step = 1
        hi = lo
        while hi < len_b and b[hi] < x:
            ops += 1
            lo = hi
            hi += step
            step *= 2
        hi = min(hi, len_b)
        while lo < hi:
            ops += 1
            mid = (lo + hi) // 2
            if b[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        if lo < len_b and b[lo] == x:
            result.append(x)
            lo += 1
        ops += 1
    return result, ops


#: Pruned ``|longer| / |shorter|`` skew at or above which per-element
#: binary probing (galloping) beats a linear pass over the longer list.
ADAPTIVE_GALLOP_SKEW = 16

#: Lower edge of the mid-skew band the dense-mask path handles; below
#: it the lists are comparable and the merge path wins.
ADAPTIVE_BITMAP_SKEW = 4

_EMPTY = np.empty(0, dtype=np.int64)


def adaptive_intersect_detail(
    a: np.ndarray,
    b: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, int, str]:
    """AOT-style adaptive intersection: ``(common, ops, branch)``.

    Both lists are first *range-pruned* — each restricted to the other's
    ``[min, max]`` span with two binary searches — and the pair is
    charged the Eq. 3 min over the **pruned** lists: ``min(|a'|, |b'|)``,
    or ``0`` when the spans are disjoint.  Pruning is why the adaptive
    kernel's bill is ≤ the hash kernel's ``min(|a|, |b|)`` on every pair
    and strictly below it whenever successor ranges only partially
    overlap (the common case under locality-aware orderings).

    The data path is then picked from the pruned skew ratio: ``gallop``
    (vectorized ``searchsorted``) at or above
    :data:`ADAPTIVE_GALLOP_SKEW`, the dense-mask ``bitmap`` path in the
    :data:`ADAPTIVE_BITMAP_SKEW` band, ``merge`` (``np.intersect1d``)
    for comparable lists; degenerate pairs short-circuit as ``empty`` /
    ``disjoint``.  The branch never affects the charge — only ops/sec —
    so op totals stay data-path independent.

    *mask* is an optional reusable boolean scratch array covering every
    vertex id (the engine binding owns one per graph); without it the
    bitmap band allocates a throwaway mask sized to the pruned span.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) == 0 or len(b) == 0:
        return _EMPTY, 0, "empty"
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    # Range-prune each side to the other's [min, max] span.
    lo = int(np.searchsorted(longer, shorter[0], side="left"))
    hi = int(np.searchsorted(longer, shorter[-1], side="right"))
    longer = longer[lo:hi]
    if len(longer) == 0:
        return _EMPTY, 0, "disjoint"
    lo = int(np.searchsorted(shorter, longer[0], side="left"))
    hi = int(np.searchsorted(shorter, longer[-1], side="right"))
    shorter = shorter[lo:hi]
    if len(shorter) == 0:
        return _EMPTY, 0, "disjoint"
    if len(shorter) > len(longer):
        shorter, longer = longer, shorter
    ops = len(shorter)  # Eq. 3 min-charge over the pruned pair
    ratio = len(longer) // len(shorter)
    if ratio >= ADAPTIVE_GALLOP_SKEW:
        positions = np.searchsorted(longer, shorter)
        positions = np.minimum(positions, len(longer) - 1)
        common = shorter[longer[positions] == shorter]
        return common, ops, "gallop"
    if ratio >= ADAPTIVE_BITMAP_SKEW:
        scratch = mask
        if scratch is None:
            scratch = np.zeros(int(longer[-1]) + 1, dtype=bool)
        scratch[longer] = True
        common = shorter[scratch[shorter]]
        scratch[longer] = False
        return common, ops, "bitmap"
    return np.intersect1d(shorter, longer, assume_unique=True), ops, "merge"


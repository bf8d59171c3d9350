"""Block-batched EdgeIterator≻ for the ``hash`` kernel over a CSR.

The per-pair loop pays one Python iteration and several numpy calls for
every edge; on the graphs this repository runs, that fixed cost — not
the Eq. 3 probe count — is the wall time.  :func:`block_range` resolves
the edges of a range with a constant number of numpy calls per band of
rows and per block of gathered entries instead: mark a band's whole
rows in a dense ``rows × n`` mask, gather the shorter of ``n_succ(v)``
and the rest of ``u``'s row for every edge probing that band as one
concatenated batch, and probe the mask once per block.  What it
returns — triangles, the analytic ``min(|n_succ(u)|, |n_succ(v)|)``
charge, the group sequence and the attribution cells — is what the
per-pair loop returns for the same range (``docs/kernels.md``,
"Block-batched hash path").

:func:`probe_pairs` is the same batching for a caller that holds only
part of the graph resident — the OPT driver's chunk
(:class:`repro.core.context.ChunkContext`): the resident rows are marked
once in the same dense mask when they fit it, and folded into one sorted
key array when they do not, and each pair brings its own slice to probe.

Both hand their groups back as one :class:`GroupBlock` — four arrays,
never a Python object per group — which is also what crosses a forked
worker's pipe and what a sink's ``emit_block`` receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.util import ragged

__all__ = ["Group", "GroupBlock", "NO_GROUPS", "bit_lengths", "block_range",
           "charge_by_length", "mask_cells", "probe_pairs"]

#: One emitted triangle group ``(u, v, (w, ...))``.
Group = tuple[int, int, tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class GroupBlock:
    """A sequence of triangle groups ``<u, v, {w…}>`` in columnar form.

    Group *i* is ``(us[i], vs[i], ws[k:k + counts[i]])`` with ``k =
    counts[:i].sum()``; every count is positive, all four arrays are
    int64.  ``len()`` is the number of groups, iteration yields them as
    ``(u, v, (w, ...))`` tuples of Python ints, and two blocks are equal
    when they hold the same groups in the same order.  Treated as
    immutable: blocks share arrays freely.
    """

    us: np.ndarray
    vs: np.ndarray
    counts: np.ndarray
    ws: np.ndarray

    @classmethod
    def from_groups(cls, groups: Iterable[tuple[int, int, Sequence[int]]]
                    ) -> "GroupBlock":
        """The block of *groups*, an iterable of ``(u, v, ws)``; a group
        without completions denotes no triangle and is dropped."""
        groups = [group for group in groups if len(group[2])]
        if not groups:
            return NO_GROUPS
        us, vs, completions = zip(*groups)
        offsets, ws = ragged.from_lists(completions)
        return cls(np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                   offsets[1:] - offsets[:-1], ws)

    @property
    def triangles(self) -> int:
        """Triangles denoted: one per completion."""
        return len(self.ws)

    def __len__(self) -> int:
        return len(self.us)

    def __iter__(self) -> Iterator[Group]:
        ws = self.ws.tolist()
        begin = 0
        for u, v, end in zip(self.us.tolist(), self.vs.tolist(),
                             self.counts.cumsum().tolist()):
            yield u, v, tuple(ws[begin:end])
            begin = end

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupBlock):
            return NotImplemented
        return all(np.array_equal(mine, theirs) for mine, theirs in (
            (self.us, other.us), (self.vs, other.vs),
            (self.counts, other.counts), (self.ws, other.ws)))


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.setflags(write=False)
#: The empty block: what a kernel returns when it was not asked to
#: collect, or found nothing.
NO_GROUPS = GroupBlock(_NO_IDS, _NO_IDS, _NO_IDS, _NO_IDS)

#: Cap on the successor entries gathered per block: every per-entry
#: temporary (ids, mask offsets, hit flags) is at most this long.
BLOCK_ENTRIES = 1 << 17
#: Cap on the dense mask, one byte per cell: a :func:`block_range` band
#: spans ``MASK_BYTES // n`` (and at least one) whole rows, and an OPT
#: chunk with more rows than that probes its sorted keys instead.
MASK_BYTES = 1 << 22


def mask_cells(num_vertices: int) -> int:
    """Cells of a :func:`block_range` mask kept across ranges (and of the
    OPT driver's, kept across chunks): as many whole rows as
    :data:`MASK_BYTES` holds (at least one), and no more rows than the
    graph has — no range can use more.  Each is one band of rows for
    :func:`block_range`; for ``n ≤ 2 048`` one band covers the graph."""
    rows = max(1, MASK_BYTES // max(num_vertices, 1))
    return min(rows, num_vertices) * num_vertices


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every element of a non-negative int array.

    The binary exponent ``frexp`` reports: exact for values below
    ``2**53``, which float64 holds exactly — the values here are
    successor-list lengths, below the vertex count.
    """
    return np.frexp(values)[1]


def block_range(
    indptr: np.ndarray,
    indices: np.ndarray,
    succ_start: np.ndarray,
    lo: int,
    hi: int,
    collect: bool,
    scope=None,
    mask: np.ndarray | None = None,
) -> tuple[int, int, GroupBlock]:
    """EdgeIterator≻ over ``[lo, hi)`` of a CSR, a band of rows at a time.

    *succ_start* is :attr:`repro.graph.graph.Graph.succ_start`.  Returns
    ``(triangles, ops, groups)`` and charges *scope* exactly as the
    per-pair loop of :func:`repro.exec.engine.run_range` does with the
    ``hash`` binding: one pair per edge ``(u, v)`` with ``u`` in range,
    ``min(|n_succ(u)|, |n_succ(v)|)`` ops each, bucketed by that
    minimum's bit length; groups in ``(u, v)`` order with ascending
    completions.

    *mask* is an all-False scratch of whole rows of ``n`` cells, at
    least one — the ``hash`` binding's :func:`mask_cells` — that the
    caller keeps across calls; it is all-False again on every exit, exceptions
    included.  Without one, each call allocates ``min(hi − lo,
    MASK_BYTES // n)`` rows (at least one).  A shorter mask raises
    :class:`~repro.errors.ConfigurationError` before anything is marked.

    Each edge ``(u, v)`` gathers the shorter of two slices: ``n_succ(v)``,
    probing ``u``'s row, or — only when ``v < hi`` — the rest of ``u``'s
    row after ``v``, probing ``v``'s row.  Both are ascending and hold
    the same completions (the members of ``n_succ(u) ∩ n_succ(v)``, all
    above ``v``), so the hits, their order and the charge do not depend
    on the choice.  Every probed row is then in ``[lo, hi)``: the mask
    takes ``len(mask) // n`` of them at a time, a band, whose whole
    ``n_succ`` rows are marked once while the edges probing them run, and
    unmarked in a ``finally``.
    """
    num_vertices = len(indptr) - 1
    if mask is not None and len(mask) < num_vertices:
        raise ConfigurationError(
            f"block_range: a mask of {len(mask)} cells is shorter than one "
            f"row of the graph's {num_vertices} vertices")
    succ_len = indptr[1:] - succ_start
    row_edges = succ_len[lo:hi]
    num_edges = int(row_edges.sum())
    if num_edges == 0:
        return 0, 0, NO_GROUPS
    if mask is None:
        mask = np.zeros(max(1, min(hi - lo, MASK_BYTES // num_vertices))
                        * num_vertices, dtype=bool)
    band_rows = len(mask) // num_vertices
    # Edge e of the range is (us[e], vs[e]), in the per-pair loop's order;
    # v sits at indices[pos[e]], inside u's row.
    us = np.repeat(np.arange(lo, hi, dtype=np.int64), row_edges)
    pos = ragged.expand(succ_start[lo:hi], row_edges)
    vs = indices[pos]
    gather_len = succ_len[vs]
    charge = np.minimum(succ_len[us], gather_len)
    # The shorter slice, ties keeping n_succ(v); u's rest only when v < hi,
    # so that v's row is one the range marks anyway.
    rest = indptr[us + 1] - pos - 1
    flip = (rest < gather_len) & (vs < hi)
    starts = np.where(flip, pos + 1, succ_start[vs])
    gather_len = np.where(flip, rest, gather_len)
    bases = (np.where(flip, vs, us) - lo) * num_vertices
    # Edge (u, v) is also the cell (u − lo)·n + v of u's row, so the rows
    # of a band (counted from lo) mark one slice of these.
    cells = (us - lo) * num_vertices + vs
    row_cuts = ragged.from_lengths(row_edges)
    labels = (us, vs) if collect else None
    del us, vs, pos, rest, flip  # free before the bands' temporaries
    num_bands = -(-(hi - lo) // band_rows)
    order, cuts = None, [0, num_edges]
    if num_bands > 1:
        # The edges grouped by the band of their probed row, in edge order
        # within a band: a radix sort of the band numbers.
        bands = bases // (band_rows * num_vertices)
        order = np.argsort(bands.astype(np.min_scalar_type(num_bands - 1)),
                           kind="stable")
        cuts = ragged.from_lengths(
            np.bincount(bands, minlength=num_bands)).tolist()
        bases -= bands * (band_rows * num_vertices)  # the row in its band
        del bands
        starts, gather_len, bases = (starts[order], gather_len[order],
                                     bases[order])
    gathered = np.cumsum(gather_len)
    found = np.zeros(num_edges, dtype=np.int64)
    completions: list[np.ndarray] = []
    triangles = 0
    for band in range(num_bands):
        start, end = cuts[band], cuts[band + 1]
        if start == end:
            continue
        first, last = band * band_rows, min((band + 1) * band_rows, hi - lo)
        marked = cells[row_cuts[first]:row_cuts[last]] - first * num_vertices
        try:
            mask[marked] = True
            while start < end:
                taken = int(gathered[start] - gather_len[start])
                stop = min(end, max(start + 1, int(np.searchsorted(
                    gathered, taken + BLOCK_ENTRIES, side="right"))))
                block = slice(start, stop)
                ws = ragged.take_rows(indices, starts[block],
                                      gather_len[block])
                hits = mask[np.repeat(bases[block], gather_len[block]) + ws]
                block_triangles = int(np.count_nonzero(hits))
                if block_triangles and (collect or scope is not None):
                    # Per-pair hit counts.  reduceat sums
                    # hits[cut[i]:cut[i+1]] but yields hits[cut[i]] for an
                    # empty slice, so only the edges that gathered
                    # anything take part.
                    gathering = np.flatnonzero(gather_len[block]) + start
                    ends = gathered[gathering] - taken
                    found[gathering] = np.add.reduceat(
                        hits, ends - gather_len[gathering], dtype=np.int64)
                    if collect:
                        completions.append(ws[hits])
                triangles += block_triangles
                start = stop
        finally:
            mask[marked] = False

    if order is not None and (collect or scope is not None):
        # Back to edge order: the counts by one scatter, then each edge's
        # completions (still ascending) by one linear scatter.
        banded, found = found, np.empty_like(found)
        found[order] = banded
        if completions:
            ws = np.concatenate(completions)
            completions = [np.empty_like(ws)]
            completions[0][ragged.expand(ragged.from_lengths(found)[order],
                                         banded)] = ws
    if scope is not None:
        charge_by_length(scope, charge, charge, found)
    return (triangles, int(charge.sum()),
            _closed_groups(labels, found, completions))


def charge_by_length(scope, sizes: np.ndarray, ops: np.ndarray,
                     found: np.ndarray | None = None) -> None:
    """Charge *scope* one pair per element, bucketed by its size.

    Element ``i`` lands in the bucket of ``sizes[i]`` with ``ops[i]``
    operations and ``found[i]`` triangles (none when *found* is omitted).
    """
    # Float bincount weights are exact below 2**53, far above any op or
    # triangle total an int64 CSR can produce per range.
    lengths = bit_lengths(sizes)
    pairs = np.bincount(lengths)
    ops_by = np.bincount(lengths, weights=ops)
    found_by = (np.zeros(len(pairs)) if found is None
                else np.bincount(lengths, weights=found))
    scope.charge_lengths({
        int(length): [int(pairs[length]), int(ops_by[length]),
                      int(found_by[length])]
        for length in np.flatnonzero(pairs)})


def probe_pairs(
    members: np.ndarray,
    bases: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    labels: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, GroupBlock]:
    """Batched membership of one slice of *values* per pair in one index.

    Pair ``i`` probes ``bases[i] + w`` for every ``w`` of
    ``values[starts[i]:starts[i] + lengths[i]]``: the caller folds the
    side it holds resident into the keys ``row * n + w`` over a CSR's
    rows and names the pair's row by its base.  *members* holds those
    keys either sorted, as int64 — each probe is a binary search — or
    as the set cells of a bool mask longer than every probe, which one
    gather answers.  Returns the hits per pair and, given ``labels =
    (us, vs)``, the groups ``(us[i], vs[i], hits of pair i in slice
    order)`` of the pairs that hit, in pair order.  At most
    :data:`BLOCK_ENTRIES` values (or one pair's slice) are gathered at a
    time.
    """
    dense = members.dtype == bool
    found = np.zeros(len(bases), dtype=np.int64)
    completions: list[np.ndarray] = []
    gathered = lengths.cumsum()
    start = 0
    while start < len(bases) and len(members):
        taken = int(gathered[start] - lengths[start])
        stop = max(start + 1, int(gathered.searchsorted(
            taken + BLOCK_ENTRIES, side="right")))
        block = slice(start, stop)
        # The pair (counted from *start*) owning each gathered value.
        owner = np.arange(stop - start).repeat(lengths[block])
        ws = ragged.take_rows(values, starts[block], lengths[block])
        probes = bases[block][owner] + ws
        if dense:
            hits = members[probes]
        else:
            hits = members.take(members.searchsorted(probes),
                                mode="clip") == probes
        if np.count_nonzero(hits):
            found[block] = np.bincount(owner[hits], minlength=stop - start)
            if labels is not None:
                completions.append(ws[hits])
        start = stop
    return found, _closed_groups(labels, found, completions)


def _closed_groups(labels: tuple[np.ndarray, np.ndarray] | None,
                   found: np.ndarray,
                   completions: list[np.ndarray]) -> GroupBlock:
    """The pairs that closed a triangle, with their hits, as one block.

    *completions* holds the hits of consecutive runs of the ``labels =
    (us, vs)`` pairs, in pair order, so their concatenation is already
    cut by ``found``; nothing was collected (or hit) when it is empty.
    """
    if not completions:
        return NO_GROUPS
    us, vs = labels
    closed = np.flatnonzero(found)
    return GroupBlock(us[closed].astype(np.int64, copy=False),
                      vs[closed].astype(np.int64, copy=False), found[closed],
                      np.concatenate(completions).astype(np.int64, copy=False))

"""Block-batched EdgeIterator≻ for the ``hash`` kernel over a CSR.

The per-pair loop pays one Python iteration and several numpy calls for
every edge; on the graphs this repository runs, that fixed cost — not
the Eq. 3 probe count — is the wall time.  :func:`block_range` resolves
a whole block of edges with a constant number of numpy calls instead:
mark ``n_succ(u)`` of the block's rows in a dense ``rows × n`` mask,
gather ``n_succ(v)`` of every edge ``(u, v)`` of the block as one
concatenated batch, and probe the mask once.  What it returns —
triangles, the analytic ``min(|n_succ(u)|, |n_succ(v)|)`` charge, the
group sequence and the attribution cells — is what the per-pair loop
returns for the same range (``docs/kernels.md``, "Block-batched hash
path").

:func:`probe_pairs` is the same batching for a caller that holds only
part of the graph resident — the OPT driver's chunk
(:class:`repro.core.context.ChunkContext`): the resident rows are folded
into one sorted key array instead of a dense mask, and each pair brings
its own slice to probe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Group", "bit_lengths", "block_range", "charge_by_length",
           "probe_pairs", "slices"]

#: One emitted triangle group ``(u, v, (w, ...))``.
Group = tuple[int, int, tuple[int, ...]]

#: Cap on the successor entries gathered per block: every per-entry
#: temporary (ids, mask offsets, hit flags) is at most this long.
BLOCK_ENTRIES = 1 << 17
#: Cap on the dense mask, one byte per cell; a block spans at most
#: ``MASK_BYTES // n`` (and at least one) distinct ``u`` rows.
MASK_BYTES = 1 << 22


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every element of a non-negative int array.

    The binary exponent ``frexp`` reports: exact for values below
    ``2**53``, which float64 holds exactly — the values here are
    successor-list lengths, below the vertex count.
    """
    return np.frexp(values)[1]


def slices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` of every pair."""
    ends = lengths.cumsum()
    return (starts - (ends - lengths)).repeat(lengths) + np.arange(ends[-1])


def block_range(
    indptr: np.ndarray,
    indices: np.ndarray,
    succ_start: np.ndarray,
    lo: int,
    hi: int,
    collect: bool,
    scope=None,
) -> tuple[int, int, list[Group]]:
    """EdgeIterator≻ over ``[lo, hi)`` of a CSR, a block of edges at a time.

    *succ_start* is :attr:`repro.graph.graph.Graph.succ_start`.  Returns
    ``(triangles, ops, groups)`` and charges *scope* exactly as the
    per-pair loop of :func:`repro.exec.engine.run_range` does with the
    ``hash`` binding: one pair per edge ``(u, v)`` with ``u`` in range,
    ``min(|n_succ(u)|, |n_succ(v)|)`` ops each, bucketed by that
    minimum's bit length; groups in ``(u, v)`` order with ascending
    completions.
    """
    num_vertices = len(indptr) - 1
    succ_len = indptr[1:] - succ_start
    row_edges = succ_len[lo:hi]
    num_edges = int(row_edges.sum())
    if num_edges == 0:
        return 0, 0, []
    # Edge e of the range is (us[e], vs[e]), in the per-pair loop's order.
    us = np.repeat(np.arange(lo, hi, dtype=np.int64), row_edges)
    vs = indices[slices(succ_start[lo:hi], row_edges)]
    gather_len = succ_len[vs]
    charge = np.minimum(succ_len[us], gather_len)
    found = np.zeros(num_edges, dtype=np.int64)

    rows = max(1, min(hi - lo, MASK_BYTES // num_vertices))
    mask = np.zeros(rows * num_vertices, dtype=bool)
    gathered = np.cumsum(gather_len)
    groups: list[Group] = []
    triangles = 0
    start = 0
    while start < num_edges:
        first_row = int(us[start])
        taken = int(gathered[start] - gather_len[start])
        stop = max(start + 1, min(
            int(np.searchsorted(gathered, taken + BLOCK_ENTRIES, side="right")),
            int(np.searchsorted(us, first_row + rows, side="left"))))
        block = slice(start, stop)
        # Mark all of n_succ(u) for every row the block touches — also
        # for a row the block enters or leaves part-way: the completions
        # of a later (u, v) may sit anywhere in n_succ(u) above v.
        last_row = int(us[stop - 1]) + 1
        marked_len = succ_len[first_row:last_row]
        marked = (np.repeat(np.arange(last_row - first_row) * num_vertices,
                            marked_len)
                  + indices[slices(succ_start[first_row:last_row],
                                   marked_len)])
        mask[marked] = True
        ws = indices[slices(succ_start[vs[block]], gather_len[block])]
        hits = mask[np.repeat((us[block] - first_row) * num_vertices,
                              gather_len[block]) + ws]
        mask[marked] = False
        block_triangles = int(np.count_nonzero(hits))
        if block_triangles and (collect or scope is not None):
            # Per-pair hit counts.  reduceat sums hits[cut[i]:cut[i+1]]
            # but yields hits[cut[i]] for an empty slice, so only the
            # edges that gathered anything take part.
            gathering = np.flatnonzero(gather_len[block]) + start
            ends = gathered[gathering] - taken
            found[gathering] = np.add.reduceat(
                hits, ends - gather_len[gathering], dtype=np.int64)
            if collect:
                _append_groups(groups, us[block], vs[block], found[block],
                               ws[hits].tolist())
        triangles += block_triangles
        start = stop

    if scope is not None:
        charge_by_length(scope, charge, charge, found)
    return triangles, int(charge.sum()), groups


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
    keys: np.ndarray,
    bases: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    labels: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[Group]]:
    """Batched membership of one slice of *values* per pair in sorted *keys*.

    Pair ``i`` probes ``bases[i] + w`` for every ``w`` of
    ``values[starts[i]:starts[i] + lengths[i]]``: the caller folds the
    side it holds resident into *keys* (``row * n + w`` over a CSR's
    rows) and names the pair's row by its base.  Returns the hits per
    pair and, given ``labels = (us, vs)``, the groups ``(us[i], vs[i],
    hits of pair i in slice order)`` of the pairs that hit, in pair
    order.  At most :data:`BLOCK_ENTRIES` values (or one pair's slice)
    are gathered at a time.
    """
    found = np.zeros(len(bases), dtype=np.int64)
    groups: list[Group] = []
    gathered = lengths.cumsum()
    start = 0
    while start < len(bases) and len(keys):
        taken = int(gathered[start] - lengths[start])
        stop = max(start + 1, int(gathered.searchsorted(
            taken + BLOCK_ENTRIES, side="right")))
        block = slice(start, stop)
        # The pair (counted from *start*) owning each gathered value.
        owner = np.arange(stop - start).repeat(lengths[block])
        ws = values[slices(starts[block], lengths[block])]
        probes = bases[block][owner] + ws
        hits = keys.take(keys.searchsorted(probes), mode="clip") == probes
        if np.count_nonzero(hits):
            found[block] = np.bincount(owner[hits], minlength=stop - start)
            if labels is not None:
                _append_groups(groups, labels[0][block], labels[1][block],
                               found[block], ws[hits].tolist())
        start = stop
    return found, groups


def _append_groups(groups: list[Group], us: np.ndarray, vs: np.ndarray,
                   found: np.ndarray, completions: list[int]) -> None:
    """Cut the block's flat completion list into per-edge groups."""
    closed = np.flatnonzero(found)
    ends = np.cumsum(found[closed])
    groups.extend(
        (u, v, tuple(completions[begin:end]))
        for u, v, begin, end in zip(us[closed].tolist(), vs[closed].tolist(),
                                    (ends - found[closed]).tolist(),
                                    ends.tolist()))

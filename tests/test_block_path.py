"""The block-batched hash path against the per-pair loop and an oracle.

``block_range`` must return what the per-pair loop returns — triangles,
Eq. 3 ops, the exact group sequence, the attribution cells — wherever
its band and block boundaries fall, and whichever side of each edge it
gathers.  At the shipped budgets every zoo graph's mask holds all its
rows, one band; shrinking ``MASK_BYTES`` to one to three rows cuts
every range into bands that small, so edges probe bands out of edge
order and their completions are put back, and shrinking
``BLOCK_ENTRIES`` splits blocks inside one vertex's successor list and
across rows.  The
per-pair reference is the ``bitmap`` binding (same analytic charge,
separate data path); the listing oracle is ``forward``, which shares no
code with either.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.exec import block, compose
from repro.exec.engine import run_range
from repro.exec.kernels import BitmapKernel, HashKernel
from repro.memory import CollectSink, forward
from repro.obs.attribution import Attribution
from repro.parallel import (default_chunk_count, plan_chunks,
                            triangulate_parallel)
from repro.util import ragged

from tests import zoo
from tests.test_parallel_engine import EMITTED_DIGESTS, emitted_digests

MEMBERS = [(name, 0) for name in zoo.zoo_names()] + [
    (name, seed) for name in zoo.SEEDED for seed in (1, 2)
]


@lru_cache(maxsize=None)
def _graph(member: str, seed: int):
    return zoo.build(member, seed)


@lru_cache(maxsize=None)
def _forward_triangles(member: str, seed: int) -> tuple:
    sink = CollectSink()
    forward(_graph(member, seed), sink)
    return tuple(sorted(sink.triangles))


def _cells(table: Attribution) -> list[tuple]:
    """Attribution cells without the kernel label (hash vs bitmap)."""
    return [(c["phase"], c["source"], c["bucket"], c["pairs"], c["ops"],
             c["triangles"]) for c in table.cells()]


@lru_cache(maxsize=None)
def _per_pair(member: str, seed: int, lo: int, hi: int):
    graph = _graph(member, seed)
    table = Attribution()
    scope = table.scope(phase="exec", kernel="bitmap", source="memory")
    result = run_range(graph, BitmapKernel().bind(graph.num_vertices),
                       lo, hi, True, scope=scope)
    return result, _cells(table)


@lru_cache(maxsize=None)
def _per_pair_tuples(member: str, seed: int, lo: int, hi: int) -> list:
    """The per-pair loop's groups as the tuples its kernel calls return,
    built here and not by ``GroupBlock``."""
    graph = _graph(member, seed)
    binding = BitmapKernel().bind(graph.num_vertices)
    groups = []
    for u in range(lo, hi):
        for v in graph.n_succ(u).tolist():
            common, _ = binding.intersect(graph.n_succ(u), graph.n_succ(v))
            if len(common):
                groups.append((u, v, tuple(common.tolist())))
    return groups


def _blocked(member: str, seed: int, lo: int, hi: int, entries: int,
             rows: int | None):
    """``block_range`` with budgets of *entries* entries and *rows* rows
    (``None``: the shipped ``MASK_BYTES``)."""
    graph = _graph(member, seed)
    table = Attribution()
    scope = table.scope(phase="exec", kernel="hash", source="memory")
    mask_bytes = (block.MASK_BYTES if rows is None
                  else rows * graph.num_vertices)
    with mock.patch.object(block, "BLOCK_ENTRIES", entries), \
            mock.patch.object(block, "MASK_BYTES", mask_bytes):
        result = block.block_range(graph.indptr, graph.indices,
                                   graph.succ_start, lo, hi, True, scope)
    return result, _cells(table)


def _assert_same_as_references(member, seed, lo, hi, entries, rows):
    (triangles, ops, groups), cells = _blocked(member, seed, lo, hi,
                                               entries, rows)
    (ref_triangles, ref_ops, ref_groups), ref_cells = _per_pair(
        member, seed, lo, hi)
    label = f"{member}/s{seed} [{lo}, {hi}) entries={entries} rows={rows}"
    assert (triangles, ops) == (ref_triangles, ref_ops), label
    assert groups == ref_groups, label
    assert list(groups) == _per_pair_tuples(member, seed, lo, hi), label
    assert cells == ref_cells, label
    listed = sorted((u, v, w) for u, v, ws in groups for w in ws)
    expected = [t for t in _forward_triangles(member, seed)
                if lo <= t[0] < hi]
    assert listed == expected, label


@pytest.mark.parametrize("member,seed", MEMBERS,
                         ids=[f"{m}-s{s}" for m, s in MEMBERS])
@pytest.mark.parametrize("entries,rows", [
    (1, 1), (3, 2), (8, 1), (8, 2),
    (1, None), (8, None), (block.BLOCK_ENTRIES, None)])
def test_tiny_blocks_match_per_pair_loop_and_oracle(member, seed, entries,
                                                    rows):
    """Whole graph; one entry per block splits every successor list and
    every flipped suffix, one or two rows per band every range."""
    num_vertices = _graph(member, seed).num_vertices
    if rows is None:
        assert num_vertices ** 2 <= block.MASK_BYTES
    _assert_same_as_references(member, seed, 0, num_vertices, entries, rows)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_sub_ranges_under_random_budgets(data):
    """Any ``[lo, hi)`` — empty ranges and isolated vertices included."""
    member, seed = data.draw(st.sampled_from(MEMBERS))
    num_vertices = _graph(member, seed).num_vertices
    lo = data.draw(st.integers(0, num_vertices))
    hi = data.draw(st.integers(lo, num_vertices))
    entries = data.draw(st.integers(1, 8))
    rows = data.draw(st.sampled_from([1, 2, 3, None]))
    _assert_same_as_references(member, seed, lo, hi, entries, rows)


def test_shipped_budgets_split_a_larger_graph():
    """At the shipped budgets a graph big enough to need several blocks
    agrees with the per-pair loop end to end."""
    from repro.graph import generators

    graph = generators.holme_kim(600, 30, 0.8, seed=4)
    gathered = int((graph.indptr[1:] - graph.succ_start)[
        graph.edge_array()[:, 1]].sum())
    assert gathered > 2 * block.BLOCK_ENTRIES
    sinks = {kernel: CollectSink() for kernel in ("hash", "bitmap")}
    results = {kernel: compose("memory", kernel, "serial", graph=graph)
               .run(sink) for kernel, sink in sinks.items()}
    assert results["hash"].triangles == results["bitmap"].triangles
    assert results["hash"].cpu_ops == results["bitmap"].cpu_ops
    assert sinks["hash"].triangles == sinks["bitmap"].triangles


class _CountingMask:
    """A ``block_range`` mask that counts the cells it is probed at."""

    def __init__(self, cells: int):
        self.cells = np.zeros(cells, dtype=bool)
        self.probed = 0

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, probes):
        self.probed += len(probes)
        return self.cells[probes]

    def __setitem__(self, marked, value):
        self.cells[marked] = value


def _gather_bill(graph, lo: int, hi: int, shorter: bool) -> int:
    """Entries gathered over ``[lo, hi)``: ``|n_succ(v)|`` per edge
    ``(u, v)`` or, *shorter*, the least of that and the number of ``u``'s
    successors after ``v`` when ``v < hi``."""
    total = 0
    for u in range(lo, hi):
        succ_u = graph.n_succ(u)
        for i, v in enumerate(succ_u.tolist()):
            side = len(graph.n_succ(v))
            total += (min(side, len(succ_u) - i - 1) if shorter and v < hi
                      else side)
    return total


@pytest.mark.parametrize("member,seed", MEMBERS,
                         ids=[f"{m}-s{s}" for m, s in MEMBERS])
def test_a_mask_of_every_reachable_row_gathers_the_shorter_side(member,
                                                                 seed):
    """The shorter-side bill at every mask size: ``(n − lo) · n`` cells,
    one band; one cell less, a second band of one row; one row, every
    row its own band.  A range ending below ``n`` flips only the edges
    with ``v < hi``.  Each answers like the per-pair loop and leaves the
    mask all-False."""
    graph = _graph(member, seed)
    num_vertices = graph.num_vertices
    for lo in sorted({0, num_vertices // 2, num_vertices - 2}):
        if not 0 <= lo <= num_vertices - 2:
            continue
        reach = (num_vertices - lo) * num_vertices
        for hi in sorted({num_vertices, (lo + num_vertices + 1) // 2}):
            for cells in (reach, reach - 1, num_vertices):
                mask = _CountingMask(cells)
                table = Attribution()
                result = block.block_range(
                    graph.indptr, graph.indices, graph.succ_start, lo, hi,
                    True,
                    table.scope(phase="exec", kernel="hash", source="memory"),
                    mask=mask)
                label = (member, seed, lo, hi, cells)
                assert mask.probed == _gather_bill(graph, lo, hi,
                                                   True), label
                assert not mask.cells.any(), label
                assert ((result, _cells(table))
                        == _per_pair(member, seed, lo, hi)), label


def test_the_shorter_side_gathers_less_on_a_clustered_graph():
    """The bill the path above is held to is a saving, not a tie."""
    graph = _graph("star-of-cliques", 0)
    n = graph.num_vertices
    assert (_gather_bill(graph, 0, n, True)
            < _gather_bill(graph, 0, n, False))


def _inverted_bands(graph, lo: int, hi: int, rows: int) -> bool:
    """Whether some edge of ``[lo, hi)`` probes a later band of *rows*
    rows than an edge after it — so its completions must be put back."""
    bands = []
    for u in range(lo, hi):
        succ_u = graph.n_succ(u).tolist()
        for i, v in enumerate(succ_u):
            flips = v < hi and len(succ_u) - i - 1 < len(graph.n_succ(v))
            bands.append(((v if flips else u) - lo) // rows)
    return any(a > b for a, b in zip(bands, bands[1:]))


@pytest.mark.parametrize("rows", (1, 2, 3))
def test_bands_out_of_edge_order_collect_in_edge_order(rows):
    """Bands of one to three rows over every zoo graph, whole and two
    sub-ranges: the same as the per-pair loop, and on some of them edges
    do probe bands out of edge order."""
    inverted = []
    for member, seed in MEMBERS:
        graph = _graph(member, seed)
        n = graph.num_vertices
        for lo, hi in ((0, n), (n // 3, n - n // 4), (1, n // 2)):
            _assert_same_as_references(member, seed, lo, hi,
                                       block.BLOCK_ENTRIES, rows)
            if _inverted_bands(graph, lo, hi, rows):
                inverted.append((member, seed, lo, hi))
    assert len(inverted) >= 5, inverted


def test_a_mask_shorter_than_a_row_is_refused(seeded_graph):
    """Refused by name before anything is marked, not an ``IndexError``
    from inside the probe."""
    graph = seeded_graph("holme_kim", 200, 4, 0.5, seed=1)
    mask = np.zeros(150, dtype=bool)
    with pytest.raises(ConfigurationError, match=r"\b150\b.*\b200\b"):
        block.block_range(graph.indptr, graph.indices, graph.succ_start, 0,
                          graph.num_vertices, True, mask=mask)
    assert not mask.any()


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_parallel_chunks_on_both_paths(seeded_graph, workers):
    """A mask of fewer rows than any chunk of any plan has: every chunk
    spans at least two bands.  The listing is ``forward``'s and every sink
    still receives the pinned stream."""
    graph = seeded_graph("holme_kim", 300, 6, 0.5, seed=6,
                         ordering="natural")
    n = graph.num_vertices
    rows = min(hi - lo for count in (1, 2, 3)
               for lo, hi in plan_chunks(graph, default_chunk_count(graph,
                                                                    count)))
    rows = max(1, rows // 2)
    chunks = plan_chunks(graph, default_chunk_count(graph, workers))
    assert all(hi - lo > rows for lo, hi in chunks)
    with mock.patch.object(block, "MASK_BYTES", rows * n):
        sink = CollectSink()
        triangulate_parallel(graph, workers=workers, sink=sink)
        expected = CollectSink()
        forward(graph, expected)
        assert sorted(sink.triangles) == sorted(expected.triangles)
        assert emitted_digests(graph, workers) == EMITTED_DIGESTS


def test_bit_lengths_match_int_bit_length_around_powers_of_two():
    values = [0] + [(1 << k) + d for k in range(53) for d in (-1, 0, 1)]
    got = block.bit_lengths(np.asarray(values, dtype=np.int64))
    assert got.tolist() == [v.bit_length() for v in values]


# ---------------------------------------------------------------------------
# the hash binding owns the mask
# ---------------------------------------------------------------------------


def _bound_run(graph, binding, lo, hi):
    table = Attribution()
    result = run_range(graph, binding, lo, hi, True,
                       scope=table.scope(phase="exec", kernel="hash",
                                         source="memory"))
    return result, _cells(table)


def _fresh_run(graph, lo, hi):
    table = Attribution()
    result = block.block_range(graph.indptr, graph.indices, graph.succ_start,
                               lo, hi, True,
                               table.scope(phase="exec", kernel="hash",
                                           source="memory"))
    return result, _cells(table)


def test_binding_keeps_one_all_false_mask():
    """One mask per binding, allocated on first use, sized to whole rows
    of the graph, and all-False between calls."""
    graph = _graph("star-of-cliques", 0)
    binding = HashKernel().bind(graph.num_vertices)
    mask = binding.mask()
    assert mask is binding.mask()
    assert len(mask) == block.mask_cells(graph.num_vertices)
    assert len(mask) % graph.num_vertices == 0
    for lo, hi in ((0, graph.num_vertices), (3, 40), (0, 1)):
        run_range(graph, binding, lo, hi, True)
        assert binding.mask() is mask and not mask.any()
    assert HashKernel().bind(0).mask().size == 0
    # As many rows as MASK_BYTES holds, never more than the graph has.
    assert block.mask_cells(5000) == (block.MASK_BYTES // 5000) * 5000
    assert block.mask_cells(6) == 6 * 6


def _fail_mid_block(mask_bytes: int, fail: int) -> None:
    """Run a binding over a range whose *fail*-th probe gather raises; the
    failure must land between mark and unmark and leave the mask
    all-False, and the binding usable."""
    graph = _graph("star-of-cliques", 0)
    real_take_rows = ragged.take_rows
    calls = []

    def take_rows_then_fail(values, starts, lengths):
        calls.append(binding.mask().any())
        # One call per block, each gathering its probes after its band's
        # mark; every band here is one block.
        if len(calls) == fail:
            raise MemoryError("injected mid-block")
        return real_take_rows(values, starts, lengths)

    with mock.patch.object(block, "MASK_BYTES", mask_bytes):
        binding = HashKernel().bind(graph.num_vertices)
        with mock.patch.object(ragged, "take_rows", take_rows_then_fail):
            with pytest.raises(MemoryError, match="mid-block"):
                run_range(graph, binding, 0, graph.num_vertices, True)
        assert calls[-1], "the failure did not land between mark and unmark"
        assert not binding.mask().any()
        # The binding stays usable, and right.
        assert (_bound_run(graph, binding, 0, graph.num_vertices)
                == _fresh_run(graph, 0, graph.num_vertices))


def test_mask_is_cleared_when_a_block_raises():
    """An exception between mark and unmark leaves the mask all-False
    (the shipped budget: one band)."""
    _fail_mid_block(block.MASK_BYTES, 1)


def test_mask_is_cleared_when_a_later_band_raises():
    """The same in the second band, under a mask of two rows."""
    _fail_mid_block(2 * _graph("star-of-cliques", 0).num_vertices, 2)


@pytest.mark.parametrize("budget", ["entries", "mask"])
@given(st.data())
@settings(max_examples=40, deadline=None)
def test_one_binding_over_random_ranges_equals_fresh_masks(budget, data):
    """Ranges run one after another through one binding give what a
    fresh-mask ``block_range`` gives for each: triangles, ops, the group
    sequence and the attribution cells."""
    member, seed = data.draw(st.sampled_from(MEMBERS))
    graph = _graph(member, seed)
    num_vertices = graph.num_vertices
    ranges = []
    for _ in range(data.draw(st.integers(1, 5))):
        lo = data.draw(st.integers(0, num_vertices))
        ranges.append((lo, data.draw(st.integers(lo, num_vertices))))
    patch = (mock.patch.object(block, "BLOCK_ENTRIES", 1)
             if budget == "entries" else
             mock.patch.object(block, "MASK_BYTES",
                               data.draw(st.integers(1, 3)) * num_vertices))
    with patch:
        binding = HashKernel().bind(num_vertices)
        for lo, hi in ranges:
            assert (_bound_run(graph, binding, lo, hi)
                    == _fresh_run(graph, lo, hi)), (member, seed, lo, hi)
            assert not binding.mask().any()

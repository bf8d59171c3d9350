"""The block-batched hash path against the per-pair loop and an oracle.

``block_range`` must return what the per-pair loop returns — triangles,
Eq. 3 ops, the exact group sequence, the attribution cells — wherever
its block boundaries fall.  The zoo graphs all fit in one block at
the shipped budgets, so these tests shrink the budgets until blocks
split inside one vertex's successor list and across rows.  The per-pair
reference is the ``bitmap`` binding (same analytic charge, separate data
path); the listing oracle is ``forward``, which shares no code with
either.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import block, compose
from repro.exec.engine import run_range
from repro.exec.kernels import BitmapKernel
from repro.memory import CollectSink, forward
from repro.obs.attribution import Attribution

from tests import zoo

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
             rows: int):
    """``block_range`` with budgets of *entries* entries and *rows* rows."""
    graph = _graph(member, seed)
    table = Attribution()
    scope = table.scope(phase="exec", kernel="hash", source="memory")
    with mock.patch.object(block, "BLOCK_ENTRIES", entries), \
            mock.patch.object(block, "MASK_BYTES",
                              rows * graph.num_vertices):
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
@pytest.mark.parametrize("entries,rows", [(1, 1), (3, 2), (8, 1), (8, 2)])
def test_tiny_blocks_match_per_pair_loop_and_oracle(member, seed, entries,
                                                    rows):
    """Whole graph; one entry per block splits every successor list."""
    num_vertices = _graph(member, seed).num_vertices
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
    rows = data.draw(st.integers(1, 2))
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


def test_bit_lengths_match_int_bit_length_around_powers_of_two():
    values = [0] + [(1 << k) + d for k in range(53) for d in (-1, 0, 1)]
    got = block.bit_lengths(np.asarray(values, dtype=np.int64))
    assert got.tolist() == [v.bit_length() for v in values]

"""The block-batched OPT iteration against a per-record reference.

``core/framework.py::_iterate`` works a window of up to ``m_ex`` arrived
pages at a time on arrays: the window's rows of the buffer pool arrive
decoded into one columnar ``PageBlock`` (one decode per window), the chunk
is a local CSR, and the edge-iterator plugin resolves a window with one
batched probe.  What it must reproduce is what the per-record form
computes — the same ``RunTrace``, the same emitted group sequence, the
same attribution cells.  The per-record form lives *here*, as the
reference model (:func:`reference_run`): a record loop over one page at
a time with one ``np.intersect1d`` per pair, a dict-of-lists ``V_req``
and a set-built request list.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_store, triangulate_disk, triangulate_threaded
from repro.core.framework import OPTConfig, run_opt
from repro.core.plugins import EdgeIteratorPlugin, MGTPlugin, VertexIteratorPlugin
from repro.errors import PageFormatError
from repro.exec import block
from repro.graph import from_edges, generators
from repro.graph.ordering import apply_ordering
from repro.memory import CountSink
from repro.obs import RunContext
from repro.obs.attribution import Attribution
from repro.sim.trace import ExternalRead, IterationTrace, RunTrace
from repro.storage import BufferManager, PageBlock, SlottedPage, corrupt_page_bytes
from repro.util.intersect import HASH_PROBE_COST
from tests import zoo
from tests.test_storage_layout import reference_pack

PAGE_SIZES = [64, 128, 256, 1024]
BUDGETS = [2, 3, 4, 7, 16]


class GroupSink:
    """Keeps the emitted groups in order; deliberately has no ``count``."""

    def __init__(self):
        self.groups = []

    def emit(self, u, v, ws):
        self.groups.append((int(u), int(v), tuple(int(w) for w in ws)))


# ---------------------------------------------------------------------------
# PageBlock is the packer's records
# ---------------------------------------------------------------------------


@given(
    st.integers(2, 24).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=120))),
    st.sampled_from([64, 128, 256]),
    st.integers(0, 3),
)
@settings(max_examples=30, deadline=None)
def test_page_block_is_the_packers_records(spec, page_size, seed):
    num_vertices, edges = spec
    graph = from_edges([(u, v) for u, v in edges if u != v],
                       num_vertices=num_vertices)
    store = make_store(graph, page_size)
    _, packed = reference_pack(graph, page_size)
    assert len(packed) == store.num_pages
    for pid, records in enumerate(packed):
        block = PageBlock.from_bytes(store.read_page(pid))
        assert block.vertices.tolist() == [r.vertex for r in records]
        assert block.last.tolist() == [r.is_last for r in records]
        assert block.lengths.tolist() == [len(r) for r in records]
        assert block.neighbors.tolist() == [
            int(w) for r in records for w in r.neighbors]
        for viewed, record in zip(block, records):
            assert viewed.vertex == record.vertex
            assert viewed.is_last == record.is_last
            assert viewed.neighbors.tolist() == record.neighbors.tolist()
        with pytest.raises(PageFormatError):
            PageBlock.from_bytes(corrupt_page_bytes(store.read_page(pid),
                                                    seed=seed + pid))


class TestDecoderRejects:
    """Images ``to_bytes`` cannot have written, one defect each."""

    @pytest.fixture()
    def image(self):
        page = SlottedPage(64)
        page.add_record(3, np.array([4, 9]), is_last=True)
        page.add_record(4, np.array([3]), is_last=False)
        return bytearray(page.to_bytes())

    def test_accepts_the_untouched_image(self, image):
        block = PageBlock.from_bytes(bytes(image))
        assert block.vertices.tolist() == [3, 4]

    @pytest.mark.parametrize("slot, value, problem", [
        (0, 60, "past page end"),
        (1, 19, "misaligned"),
        (1, 22, "predecessor"),
    ])
    def test_bad_slot(self, image, slot, value, problem):
        image[64 - 2 * (slot + 1):64 - 2 * slot] = value.to_bytes(2, "little")
        with pytest.raises(PageFormatError, match=problem):
            PageBlock.from_bytes(bytes(image))

    def test_truncated_record(self, image):
        image[18 + 6:18 + 8] = (200).to_bytes(2, "little")  # record 1's count
        with pytest.raises(PageFormatError, match="truncated"):
            PageBlock.from_bytes(bytes(image))

    def test_more_slots_than_the_page_holds(self, image):
        image[0:2] = (40).to_bytes(2, "little")
        with pytest.raises(PageFormatError):
            PageBlock.from_bytes(bytes(image))


# ---------------------------------------------------------------------------
# The per-record reference model (Algorithms 3-10, edge iterator)
# ---------------------------------------------------------------------------


def reference_run(store, config, sink, attribution, plugin="edge-iterator"):
    """OPT, one record and pair at a time: the edge-iterator instance by
    default, ``"vertex-iterator"`` or ``"mgt"`` (Section 3.5) on request."""
    mgt = plugin == "mgt"
    scope = {phase: attribution.scope(phase=phase, kernel=plugin,
                                      source="disk")
             for phase in ("candidate", "external", "internal")}
    trace = RunTrace(num_pages=store.num_pages, m_in=config.m_in,
                     m_ex=1 if mgt else config.m_ex, sync_external=mgt)
    chunks = []
    pid = 0
    while pid < store.num_pages:
        end = store.align_chunk_end(pid, config.m_in)
        chunks.append((pid, end))
        pid = end + 1
    capacity = (max(config.m_in, max(end - pid + 1 for pid, end in chunks))
                + config.m_ex)
    pool = np.zeros((capacity, store.rows.shape[1]), dtype=np.uint8)

    def load(pids, rows):
        pool[rows] = store.rows[pids]

    buffer = BufferManager(capacity, load)

    def records_of(page_id):
        """Page *page_id*, pinned, decoded from its row of the pool."""
        row = buffer.get(page_id, pin=True).row
        return list(PageBlock.from_rows(pool[row:row + 1], store.page_size)[0])

    def close(u, v, succ_u, neighbors_v):
        """Triangles of edge (u, v) against (a chunk of) v's list; the
        ops the instance bills for it."""
        above = succ_u[succ_u > v]
        common = np.intersect1d(above, neighbors_v, assume_unique=True)
        if len(common):
            sink.emit(u, v, common.tolist())
            trace.triangles += len(common)
        if plugin == "edge-iterator":  # Eq. 3: the shorter successor list
            return min(len(succ_u), int((neighbors_v > v).sum()))
        return HASH_PROBE_COST * len(above)  # one probe per w of n_succ(u)

    for pid, end in chunks:
        iteration = IterationTrace()
        _, v_hi = store.chunk_vertex_range(pid, end)
        pages = []
        requesters = defaultdict(list)
        parts = defaultdict(list)
        for page_id in range(pid, end + 1):
            hit = page_id in buffer and not mgt  # MGT: no buffering credit
            records = records_of(page_id)
            pages.append(records)
            iteration.fill_buffered += hit
            iteration.fill_reads += not hit
            for record in records:  # Algorithms 8 / 12
                parts[record.vertex].append(record.neighbors)
                iteration.candidate_ops += len(record)
                scope["candidate"].charge(len(record), len(record))
                bound = record.vertex if mgt else v_hi
                for candidate in record.neighbors[record.neighbors > bound]:
                    requesters[int(candidate)].append(record.vertex)
        full = {vertex: np.concatenate(chunks_of)
                for vertex, chunks_of in parts.items()}
        succ = {vertex: row[row > vertex] for vertex, row in full.items()}

        if mgt:  # streams the whole file, in file order
            ordered = range(store.num_pages)
        else:  # Algorithm 4
            needed = set()
            for candidate in requesters:
                needed.update(store.pages_of_candidate(candidate))
            ordered = sorted(needed - set(range(pid, end + 1)), reverse=True)
        for page_id in ordered:
            hit = page_id in buffer and not mgt
            ops = 0
            for record in records_of(page_id):
                if record.vertex not in requesters:
                    continue
                v = record.vertex  # Algorithms 10 / 13
                record_ops = sum(close(u, v, succ[u], record.neighbors)
                                 for u in requesters[v])
                scope["external"].charge(len(record), record_ops)
                ops += record_ops
            buffer.unpin(page_id)
            iteration.external_reads.append(
                ExternalRead(pid=page_id, cpu_ops=ops, buffered=hit))

        for records in pages:  # Algorithms 6 / 11; MGT has no internal phase
            page_ops = 0
            for record in records:
                u = record.vertex
                internal = record.neighbors[(record.neighbors > u)
                                            & (record.neighbors <= v_hi)]
                record_ops = 0 if mgt else sum(
                    close(u, v, succ[u], full[v]) for v in internal.tolist())
                scope["internal"].charge(len(record), record_ops)
                page_ops += record_ops
            iteration.internal_page_ops.append(page_ops)
        for page_id in range(pid, end + 1):
            buffer.unpin(page_id)
        trace.iterations.append(iteration)
    return trace


def _graphs():
    holme_kim, _ = apply_ordering(generators.holme_kim(40, 4, 0.6, seed=3),
                                  "degree")
    return {
        # Degree 19 everywhere: chains of two 64-byte pages, longer than
        # m_in at the small budgets.
        "k20": generators.complete_graph(20),
        "holme-kim": holme_kim,
        # Heavy-tailed, natural order: hub chains in the middle of chunks.
        "rmat": generators.rmat(48, 300, seed=5),
    }


GRAPHS = _graphs()


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("page_size", PAGE_SIZES)
@pytest.mark.parametrize("name", list(GRAPHS))
def test_run_opt_is_the_reference_model(name, page_size, budget):
    store = make_store(GRAPHS[name], page_size)
    config = OPTConfig.even_split(budget)
    expected_sink, expected_cells = GroupSink(), Attribution()
    expected = reference_run(store, config, expected_sink, expected_cells)
    sink, cells = GroupSink(), Attribution()
    trace = run_opt(store, config, sink, ctx=RunContext(attribution=cells))
    assert trace == expected
    assert sink.groups == expected_sink.groups
    assert cells.snapshot() == expected_cells.snapshot()
    # The count-only run (no sink: no group is built) bills the same.
    assert run_opt(store, config) == expected


# ---------------------------------------------------------------------------
# Every window size, every instance
# ---------------------------------------------------------------------------

WINDOW_GRAPHS = {**GRAPHS, "figure1": zoo.build("figure1"),
                 "two-cliques": zoo.build("two-cliques")}
PLUGINS = {"edge-iterator": EdgeIteratorPlugin,
           "vertex-iterator": VertexIteratorPlugin, "mgt": MGTPlugin}


@pytest.mark.parametrize("plugin", list(PLUGINS))
@pytest.mark.parametrize("page_size", [64, 256, 1024, 4096])
@pytest.mark.parametrize("name", list(WINDOW_GRAPHS))
def test_every_window_size_is_the_reference_model(name, page_size, plugin):
    """The iteration works a window of up to ``m_ex`` arrived pages at a
    time: one page, two, an odd three, and the whole request list at
    once must all be the per-record run — trace, group sequence, cells."""
    store = make_store(WINDOW_GRAPHS[name], page_size)
    for m_in, m_ex in [(1, 1), (1, 2), (2, 3), (2, store.num_pages + 1)]:
        config = OPTConfig(m_in=m_in, m_ex=m_ex, plugin=PLUGINS[plugin]())
        expected_sink, expected_cells = GroupSink(), Attribution()
        expected = reference_run(store, config, expected_sink, expected_cells,
                                 plugin)
        sink, cells = GroupSink(), Attribution()
        trace = run_opt(store, config, sink, ctx=RunContext(attribution=cells))
        assert trace == expected, (m_in, m_ex)
        assert sink.groups == expected_sink.groups, (m_in, m_ex)
        assert cells.snapshot() == expected_cells.snapshot(), (m_in, m_ex)


class BlockSink:
    """Takes whole blocks; keeps their groups in order."""

    def __init__(self):
        self.groups = []

    def emit(self, u, v, ws):
        raise AssertionError("a sink with emit_block is handed blocks")

    def emit_block(self, block):
        self.groups.extend(block)


def mgt_reference_groups(store, m_in):
    """MGT's group sequence, a record at a time: per chunk every successor
    is a candidate, and the whole store streams by in page order."""
    groups = []
    pid = 0
    while pid < store.num_pages:
        end = store.align_chunk_end(pid, m_in)
        parts = defaultdict(list)
        requesters = defaultdict(list)
        for page_id in range(pid, end + 1):
            for record in store.decode_page(page_id):
                parts[record.vertex].append(record.neighbors)
                for candidate in record.neighbors[record.neighbors
                                                  > record.vertex]:
                    requesters[int(candidate)].append(record.vertex)
        succ = {}
        for vertex, chunks_of in parts.items():
            row = np.concatenate(chunks_of)
            succ[vertex] = row[row > vertex]
        for page_id in range(store.num_pages):
            for record in store.decode_page(page_id):
                v = record.vertex
                neighbors = set(record.neighbors.tolist())
                for u in requesters.get(v, ()):
                    hits = [w for w in succ[u].tolist()
                            if w > v and w in neighbors]
                    if hits:
                        groups.append((u, v, tuple(hits)))
        pid = end + 1
    return groups


@pytest.mark.parametrize("budget", [2, 4, 7])
@pytest.mark.parametrize("page_size", [64, 256])
@pytest.mark.parametrize("name", list(GRAPHS))
@pytest.mark.parametrize("plugin", ["edge-iterator", "vertex-iterator", "mgt"])
def test_triangulate_disk_emits_the_reference_group_sequence(
        plugin, name, page_size, budget):
    """Each plugin, through a sink that takes blocks and one that only has
    ``emit``: the per-record model's groups, in its order.  VertexIterator≻
    probes the other way round but closes the same pairs in the same order
    as the edge-iterator reference."""
    store = make_store(GRAPHS[name], page_size)
    if plugin == "mgt":
        expected = mgt_reference_groups(store, max(1, budget - 1))
    else:
        reference_sink = GroupSink()
        reference_run(store, OPTConfig.even_split(budget), reference_sink,
                      Attribution())
        expected = reference_sink.groups
    for sink in (BlockSink(), GroupSink()):
        result = triangulate_disk(store, plugin=plugin, buffer_pages=budget,
                                  sink=sink)
        assert sink.groups == expected
        assert result.triangles == sum(len(ws) for _, _, ws in expected)


@pytest.mark.parametrize("entries", [1, 5])
def test_probe_cut_into_tiny_blocks(entries):
    """``BLOCK_ENTRIES`` bounds a probe's gather; the cuts change nothing."""
    store = make_store(GRAPHS["holme-kim"], 256)
    config = OPTConfig.even_split(4)
    expected_sink = GroupSink()
    expected = run_opt(store, config, expected_sink)
    sink = GroupSink()
    with mock.patch.object(block, "BLOCK_ENTRIES", entries):
        assert run_opt(store, config, sink) == expected
    assert sink.groups == expected_sink.groups


def test_chains_outgrow_the_internal_area():
    """The grid above does include the case it claims to."""
    store = make_store(GRAPHS["k20"], 64)
    chain = int((store.last_page - store.first_page).max()) + 1
    assert chain > OPTConfig.even_split(3).m_in


# ---------------------------------------------------------------------------
# The asynchronous feed over the same body
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, page_size, budget", [
    ("k20", 64, 2), ("holme-kim", 128, 4), ("rmat", 64, 6),
])
def test_threaded_feed_same_groups_and_bill(tmp_path, name, page_size, budget):
    store = make_store(GRAPHS[name], page_size)
    serial_sink = GroupSink()
    serial = run_opt(store, OPTConfig(m_in=budget // 2, m_ex=4), serial_sink)
    sink = GroupSink()
    result = triangulate_threaded(store, tmp_path, buffer_pages=budget,
                                  page_size=page_size, sink=sink)
    threaded = result.extra["trace"]
    assert Counter(sink.groups) == Counter(serial_sink.groups)
    assert result.triangles == serial.triangles
    for ours, theirs in zip(threaded.iterations, serial.iterations,
                            strict=True):
        assert ours.candidate_ops == theirs.candidate_ops
        assert ours.internal_page_ops == theirs.internal_page_ops
        assert (Counter((r.pid, r.cpu_ops) for r in ours.external_reads)
                == Counter((r.pid, r.cpu_ops) for r in theirs.external_reads))


# ---------------------------------------------------------------------------
# The driver counts its own triangles
# ---------------------------------------------------------------------------


def _engines(tmp_path):
    return {
        "run_opt": lambda store, sink: run_opt(
            store, OPTConfig.even_split(4), sink).triangles,
        "triangulate_disk": lambda store, sink: triangulate_disk(
            store, buffer_pages=4, sink=sink).triangles,
        "triangulate_threaded": lambda store, sink: triangulate_threaded(
            store, tmp_path, buffer_pages=4, page_size=store.page_size,
            sink=sink).triangles,
    }


@pytest.mark.parametrize("engine", ["run_opt", "triangulate_disk",
                                    "triangulate_threaded"])
class TestDriverCountsItsOwnTriangles:
    """``triangles`` is this run's count, not whatever the sink holds."""

    @pytest.fixture()
    def store(self, seeded_graph):
        return make_store(seeded_graph("holme_kim", 300, 6, 0.5, seed=1,
                                       ordering="natural"), 256)

    def test_reused_count_sink_does_not_double(self, tmp_path, store, engine):
        run = _engines(tmp_path)[engine]
        sink = CountSink()
        assert run(store, sink) == 1433
        assert run(store, sink) == 1433
        assert sink.count == 2866

    def test_sink_without_count(self, tmp_path, store, engine):
        sink = GroupSink()
        assert _engines(tmp_path)[engine](store, sink) == 1433
        assert sum(len(ws) for _, _, ws in sink.groups) == 1433


# ---------------------------------------------------------------------------
# The benchmark store's trace, pinned
# ---------------------------------------------------------------------------


def test_benchmark_store_trace_is_pinned(seeded_graph):
    """``disk-opt-web`` at seed 1 (benchmarks/e2e/workloads.py)."""
    graph = seeded_graph("holme_kim", 5000, 16, 0.45, seed=1)
    store = make_store(graph, 4096)
    result = triangulate_disk(store, buffer_ratio=0.15, page_size=4096)
    assert store.num_pages == 169
    assert result.iterations == 18
    assert result.pages_read == 1403
    assert result.cpu_ops == 1253435
    assert result.triangles == 69937

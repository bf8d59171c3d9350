"""The four end-to-end workloads: inputs, program calls, and the oracle.

The harness generates each graph from the seed, writes an edge list and
hands the program only that file.  ``setup`` is the program's
preprocessing (load → order → source build); ``Workload.call`` is the
one triangulation call whose wall time is the headline.  The oracle is
``repro.memory.forward.forward`` on the generated, un-relabelled graph,
which shares no code with ``run_range``/``count_chunk``/``run_opt``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro import core
from repro.exec import compose
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.graph.ordering import apply_ordering, choose_ordering
from repro.memory.base import CollectSink
from repro.memory.forward import forward
from repro.parallel.engine import triangulate_parallel
from repro.storage.layout import GraphStore

from spans import Recorder

PAGE_SIZE = 4096
BUFFER_RATIO = 0.15
WORKERS = 2

#: A pass's emitted triangles as a ``(k, 3)`` id array, built on demand
#: so decoding the output stays outside the timed region.
Listing = Callable[[], np.ndarray]


@dataclass
class Prepared:
    """What the program's preprocessing leaves for the timed call."""

    loaded: Graph
    graph: Graph
    mapping: np.ndarray
    ordering: str
    store: GraphStore | None
    tmp: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[int, float], Graph]
    ordering: str
    paged: bool
    call: Callable[[Prepared], tuple[int, Listing | None]]


def _holme_kim(n: int, attach: int, triad: float) -> Callable[[int, float], Graph]:
    return lambda seed, scale: generators.holme_kim(
        max(int(n * scale), attach + 2), attach, triad, seed=seed)


def _rmat(seed: int, scale: float) -> Graph:
    return generators.rmat(int(7500 * scale), int(75000 * scale), seed=seed)


def _count_memory(p: Prepared):
    return compose("memory", "hash", "serial", graph=p.graph).run().triangles, None


def _list_memory(p: Prepared):
    path = p.tmp / "triangles.bin"
    with core.NestedOutputWriter(path, page_size=PAGE_SIZE) as writer:
        result = compose("memory", "hash", "serial", graph=p.graph).run(writer)
    return result.triangles, lambda: group_triples(core.read_nested_groups(path))


def _list_process(p: Prepared):
    sink = CollectSink()
    result = triangulate_parallel(p.graph, workers=WORKERS, sink=sink)
    return result.triangles, lambda: sink_triples(sink)


def _count_disk(p: Prepared):
    result = core.triangulate_disk(p.store, buffer_ratio=BUFFER_RATIO,
                                   page_size=PAGE_SIZE)
    return result.triangles, None


WORKLOADS = {w.name: w for w in (
    Workload(
        "mem-count-skew",
        "heavy-tailed R-MAT, count only: all of wall is the exec loop and "
        "kernel per-edge cost; graph/ordering (auto) dominates setup",
        _rmat, "auto", False, _count_memory),
    Workload(
        "mem-list-dense",
        "5 triangles per edge, listed to a file: the count workload's loop "
        "plus group materialisation and core/output, so listing cost shows",
        _holme_kim(1250, 40, 0.9), "degeneracy", False, _list_memory),
    Workload(
        "proc-list-social",
        "LJ-like, 2 forked workers listing back to the parent: fork, "
        "SharedCSR publish/attach, pickling and merge on top of the kernel",
        _holme_kim(5000, 14, 0.9), "degree", False, _list_process),
    Workload(
        "disk-opt-web",
        "UK-like page store, buffer 15% of it: storage decode/buffer and "
        "core/framework do the work, exec kernels none (exec changes: no move)",
        _holme_kim(5000, 16, 0.45), "degree", True, _count_disk),
)}


def setup(workload: Workload, edge_list: Path, tmp: Path, rec: Recorder) -> Prepared:
    """The program's preprocessing of the generated input (``setup_s``)."""
    with rec.span("graph.load_s"):
        loaded = read_edge_list(edge_list)
    ordering = workload.ordering
    if ordering == "auto":
        with rec.span("graph.choose_ordering_s"):
            ordering = choose_ordering(loaded).value
    with rec.span("graph.relabel_s"):
        graph, mapping = apply_ordering(loaded, ordering)
    store = None
    if workload.paged:
        with rec.span("storage.pack_s"):
            store = core.make_store(graph, PAGE_SIZE)
    return Prepared(loaded, graph, mapping, ordering, store, tmp)


class _TripleSink:
    """Flat int64 triples; keeps the oracle's footprint below the program's."""

    def __init__(self) -> None:
        self.flat = array("q")

    def emit(self, u: int, v: int, ws: Iterable[int]) -> None:
        for w in ws:
            self.flat.extend((u, v, w))


def oracle_triples(graph: Graph) -> np.ndarray:
    """Every triangle of *graph*, by the forward algorithm, as ``(k, 3)``."""
    sink = _TripleSink()
    result = forward(graph, sink)
    triples = np.frombuffer(sink.flat, dtype=np.int64).reshape(-1, 3)
    if len(triples) != result.triangles:
        raise AssertionError("oracle listing disagrees with its own count")
    return triples


def group_triples(groups: Iterable[tuple[int, int, Iterable[int]]]) -> np.ndarray:
    """Nested ``<u, v, {w...}>`` groups flattened to ``(k, 3)``."""
    us, vs, sizes, ws = [], [], [], []
    for u, v, completions in groups:
        us.append(u)
        vs.append(v)
        sizes.append(len(completions))
        ws.extend(completions)
    out = np.empty((len(ws), 3), dtype=np.int64)
    out[:, 0] = np.repeat(np.asarray(us, dtype=np.int64), sizes)
    out[:, 1] = np.repeat(np.asarray(vs, dtype=np.int64), sizes)
    out[:, 2] = ws
    return out


def sink_triples(sink: CollectSink) -> np.ndarray:
    return np.asarray(sink.triangles, dtype=np.int64).reshape(-1, 3)


def fingerprint(triples: np.ndarray) -> tuple[int, int, int]:
    """Order-independent ``(count, sum, xor)`` of a 64-bit mix per triangle.

    Each row is sorted and packed 21 bits per id (ids stay below 2**21
    at every scale used here), then run through the splitmix64 finaliser.
    """
    if len(triples) == 0:
        return 0, 0, 0
    rows = np.sort(triples, axis=1).astype(np.uint64)
    z = (rows[:, 0] << np.uint64(42)) | (rows[:, 1] << np.uint64(21)) | rows[:, 2]
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return len(z), int(z.sum(dtype=np.uint64)), int(np.bitwise_xor.reduce(z))

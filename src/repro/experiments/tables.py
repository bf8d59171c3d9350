"""Experiments regenerating the paper's tables (2, 3, 4, 6, 7).

Each runner executes the real computation, renders the paper-style text
table, and *verifies* the table's qualitative claims inline — the pytest
benchmarks in ``benchmarks/`` are thin timing wrappers around these.
"""

from __future__ import annotations

from repro.baselines import graphchi_tri
from repro.core import (
    NestedOutputWriter,
    buffer_pages_for_ratio,
    replay,
    triangulate_disk,
)
from repro.core.output import triple_bytes
from repro.distributed import DEFAULT_CLUSTER, akm, powergraph, sv_mapreduce
from repro.experiments.common import COST, PAGE_SIZE, ExperimentResult, experiment, prepared
from repro.graph import datasets
from repro.util.tables import format_table

MAIN_DATASETS = ["LJ", "ORKUT", "TWITTER", "UK"]

#: Synchronous bulk writes stall on each flush; the paper's measured
#: MGT/OPT output-time ratios average ~1.5.
SYNC_FLUSH_FACTOR = 1.5


@experiment("table2")
def table2_datasets() -> ExperimentResult:
    """Table 2 — basic statistics on the dataset stand-ins."""
    rows = []
    for name in datasets.dataset_names():
        graph, _store, reference = prepared(name)
        spec = datasets.DATASETS[name]
        rows.append((name, graph.num_vertices, graph.num_edges,
                     reference.triangles, spec.paper_vertices,
                     spec.paper_edges, spec.paper_triangles))
    result = ExperimentResult(
        "table2",
        format_table(
            ["dataset", "|V|", "|E|", "#triangles",
             "|V| (paper)", "|E| (paper)", "#tri (paper)"],
            rows,
            title="Table 2: basic statistics (stand-in vs paper original)",
        ),
        data={"rows": rows},
    )
    density = {r[0]: r[2] / r[1] for r in rows}
    result.check(density["YAHOO"] < density["LJ"] < density["TWITTER"],
                 "density ordering YAHOO < LJ < TWITTER preserved")
    result.check(density["ORKUT"] == max(density.values()),
                 "ORKUT is the densest dataset")
    return result


def _output_write_time(pages: int, *, sync: bool) -> float:
    seconds = pages * COST.page_write_time / COST.channels
    return seconds * SYNC_FLUSH_FACTOR if sync else seconds


@experiment("table3")
def table3_output_writing() -> ExperimentResult:
    """Table 3 — output writing times (volumes measured, device modeled)."""
    results = {}
    for name in MAIN_DATASETS:
        _graph, store, _reference = prepared(name)
        writer = NestedOutputWriter(page_size=PAGE_SIZE)
        triangulate_disk(store, buffer_ratio=0.15, cost=COST, sink=writer)
        writer.close()
        nested_pages = writer.pages_written
        cc_pages = -(-triple_bytes(writer.count) // PAGE_SIZE)
        results[name] = (
            _output_write_time(nested_pages, sync=False),  # OPT, async
            _output_write_time(nested_pages, sync=True),   # MGT, sync
            _output_write_time(cc_pages, sync=True),       # CC-Seq triples
        )
    rows = [
        ("OPT_serial", *(results[n][0] * 1e3 for n in MAIN_DATASETS)),
        ("MGT", *(results[n][1] * 1e3 for n in MAIN_DATASETS)),
        ("CC-Seq", *(results[n][2] * 1e3 for n in MAIN_DATASETS)),
    ]
    result = ExperimentResult(
        "table3",
        format_table(
            ["method"] + [f"{n} (ms)" for n in MAIN_DATASETS], rows,
            title="Table 3: output writing times (simulated ms; "
                  "paper: OPT < MGT < CC-Seq)",
        ),
        data={"results": results},
    )
    for name in MAIN_DATASETS:
        opt, mgt_time, cc = results[name]
        result.check(opt < mgt_time < cc, f"{name}: OPT < MGT < CC-Seq")
    return result


@experiment("table4")
def table4_cores() -> ExperimentResult:
    """Table 4 — OPT vs GraphChi-Tri at 1 and 6 cores."""
    results = {}
    for name in MAIN_DATASETS:
        graph, store, _reference = prepared(name)
        pages = buffer_pages_for_ratio(store, 0.15)
        opt1 = triangulate_disk(store, buffer_pages=pages, cost=COST, cores=1)
        opt6 = replay(opt1.extra["trace"], COST, cores=6, morphing=True)
        gchi1 = graphchi_tri(graph, buffer_pages=pages, page_size=PAGE_SIZE,
                             cost=COST, cores=1)
        gchi6 = graphchi_tri(graph, buffer_pages=pages, page_size=PAGE_SIZE,
                             cost=COST, cores=6)
        assert opt1.triangles == gchi1.triangles
        results[name] = {
            "OPT_serial": opt1.elapsed,
            "GraphChi-Tri_serial": gchi1.elapsed,
            "OPT": opt6.elapsed,
            "GraphChi-Tri": gchi6.elapsed,
        }
    methods = ["OPT_serial", "GraphChi-Tri_serial", "OPT", "GraphChi-Tri"]
    rows = [
        (method, *(f"{results[n][method] * 1e3:.1f}" for n in MAIN_DATASETS))
        for method in methods
    ]
    rows.append(("GraphChi-Tri/OPT",
                 *(f"{results[n]['GraphChi-Tri'] / results[n]['OPT']:.2f}"
                   for n in MAIN_DATASETS)))
    result = ExperimentResult(
        "table4",
        format_table(["method (ms)"] + MAIN_DATASETS, rows,
                     title="Table 4: elapsed with 1 and 6 CPU cores "
                           "(paper ratios: 13.44 / 10.64 / 3.94 / 8.41)"),
        data={"results": results},
    )
    for name in MAIN_DATASETS:
        r = results[name]
        result.check(r["OPT_serial"] < r["GraphChi-Tri_serial"],
                     f"{name}: OPT_serial beats GraphChi serial")
        result.check(r["OPT"] < r["GraphChi-Tri"],
                     f"{name}: OPT beats GraphChi at 6 cores")
        result.check(r["GraphChi-Tri"] / r["OPT"] > 3.0,
                     f"{name}: 6-core gap is a multiple (paper 3.9-13.4x)")
    return result


@experiment("table6")
def table6_billion() -> ExperimentResult:
    """Table 6 — the billion-vertex YAHOO run."""
    graph, store, reference = prepared("YAHOO")
    pages = buffer_pages_for_ratio(store, 0.10)
    opt1 = triangulate_disk(store, buffer_pages=pages, cost=COST, cores=1)
    opt6 = replay(opt1.extra["trace"], COST, cores=6, morphing=True)
    mgt_result = triangulate_disk(store, plugin="mgt", buffer_pages=pages,
                                  cost=COST, cores=1)
    gchi1 = graphchi_tri(graph, buffer_pages=pages, page_size=PAGE_SIZE,
                         cost=COST, cores=1)
    gchi6 = graphchi_tri(graph, buffer_pages=pages, page_size=PAGE_SIZE,
                         cost=COST, cores=6)
    assert (opt1.triangles == mgt_result.triangles == gchi1.triangles
            == reference.triangles)
    table = format_table(
        ["OPT_serial", "MGT", "GraphChi-Tri_serial", "OPT", "GraphChi-Tri"],
        [(f"{opt1.elapsed * 1e3:.1f}", f"{mgt_result.elapsed * 1e3:.1f}",
          f"{gchi1.elapsed * 1e3:.1f}", f"{opt6.elapsed * 1e3:.1f}",
          f"{gchi6.elapsed * 1e3:.1f}")],
        title="Table 6: elapsed (simulated ms) on the YAHOO stand-in "
              "(paper: 2665 / 5445 / 28568 / 819 / 25686 s)",
    )
    summary = (
        f"\nMGT / OPT_serial:            "
        f"{mgt_result.elapsed / opt1.elapsed:.2f}x   (paper 2.04x)"
        f"\nGraphChi_serial / OPT_serial: "
        f"{gchi1.elapsed / opt1.elapsed:.2f}x   (paper 5.25x)"
        f"\nGraphChi / OPT at 6 cores:    "
        f"{gchi6.elapsed / opt6.elapsed:.2f}x   (paper 31.4x)"
        f"\nOPT speed-up (6 cores):       "
        f"{opt1.elapsed / opt6.elapsed:.2f}x   (paper 3.25x)"
        f"\nGraphChi speed-up (6 cores):  "
        f"{gchi1.elapsed / gchi6.elapsed:.2f}x   (paper 1.11x)"
    )
    result = ExperimentResult(
        "table6", table + summary,
        data={"opt1": opt1.elapsed, "opt6": opt6.elapsed,
              "mgt": mgt_result.elapsed, "gchi1": gchi1.elapsed,
              "gchi6": gchi6.elapsed},
    )
    result.check(opt1.elapsed < mgt_result.elapsed < gchi1.elapsed,
                 "serial ordering OPT < MGT < GraphChi")
    result.check(opt6.elapsed < gchi6.elapsed, "OPT wins at 6 cores")
    result.check(mgt_result.elapsed / opt1.elapsed > 1.3,
                 "MGT meaningfully slower (paper 2.04x)")
    result.check(gchi1.elapsed / opt1.elapsed > 2.5,
                 "GraphChi serial ≫ OPT (paper 5.25x)")
    result.check(gchi6.elapsed / opt6.elapsed > 6.0,
                 "6-core gap widens (paper 31.4x)")
    result.check(1.5 < opt1.elapsed / opt6.elapsed < 4.5,
                 "OPT speed-up modest on YAHOO (paper 3.25x)")
    result.check(gchi1.elapsed / gchi6.elapsed < 1.8,
                 "GraphChi speed-up near 1 (paper 1.11x)")
    return result


@experiment("table7")
def table7_distributed() -> ExperimentResult:
    """Table 7 — OPT (one node) against the distributed methods."""
    graph, store, _reference = prepared("TWITTER")
    pages = buffer_pages_for_ratio(store, 0.15)
    base = triangulate_disk(store, buffer_pages=pages, cost=COST, cores=1)
    opt = replay(base.extra["trace"], COST,
                 cores=DEFAULT_CLUSTER.cores_per_node, morphing=True)
    sv = sv_mapreduce(graph)
    akm_result = akm(graph)
    pg = powergraph(graph)
    assert base.triangles == sv.triangles == akm_result.triangles == pg.triangles
    nodes = DEFAULT_CLUSTER.nodes
    rows = [
        ("OPT", "single PC", 1, f"{opt.elapsed * 1e3:.1f}", "1.00"),
        ("SV", "Hadoop", nodes, f"{sv.elapsed * 1e3:.1f}",
         f"{sv.elapsed / opt.elapsed:.2f}"),
        ("AKM", "MPI", nodes, f"{akm_result.elapsed * 1e3:.1f}",
         f"{akm_result.elapsed / opt.elapsed:.2f}"),
        ("PowerGraph", "MPI", nodes, f"{pg.elapsed * 1e3:.1f}",
         f"{pg.elapsed / opt.elapsed:.2f}"),
    ]
    table = format_table(
        ["method", "framework", "# machines", "elapsed (ms)", "vs OPT"],
        rows,
        title="Table 7: TWITTER, OPT (1 node, 12 threads) vs distributed "
              "methods (31 nodes; paper: SV 64.3x, AKM 1.44x, PG 0.76x)",
    )
    relative = (
        f"\nper-machine relative performance of OPT: "
        f"{sv.elapsed / opt.elapsed * nodes:.0f}x over SV, "
        f"{akm_result.elapsed / opt.elapsed * nodes:.1f}x over AKM, "
        f"{pg.elapsed / opt.elapsed * nodes:.1f}x over PowerGraph "
        f"(paper: 1994x / 44.7x / 23.7x)"
    )
    result = ExperimentResult(
        "table7", table + relative,
        data={"opt": opt.elapsed, "sv": sv.elapsed,
              "akm": akm_result.elapsed, "pg": pg.elapsed},
    )
    result.check(sv.elapsed > 30 * opt.elapsed, "SV dozens of times slower")
    result.check(1.1 < akm_result.elapsed / opt.elapsed < 2.0,
                 "AKM moderately slower (paper 1.44x)")
    result.check(0.5 < pg.elapsed / opt.elapsed < 1.0,
                 "PowerGraph slightly faster (paper 0.76x)")
    return result

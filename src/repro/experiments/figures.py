"""Experiments regenerating the paper's figures (3a, 3b, 4, 5, 6, 7).

Same contract as :mod:`repro.experiments.tables`: run the real
computation, render the series, verify the qualitative claims.
"""

from __future__ import annotations

from repro.analysis import amdahl_bound, series_chart
from repro.baselines import cc_ds, cc_seq, graphchi_tri
from repro.core import (
    buffer_pages_for_ratio,
    ideal_elapsed,
    make_store,
    replay,
    triangulate_disk,
)
from repro.experiments.common import COST, PAGE_SIZE, ExperimentResult, experiment, prepared
from repro.graph.generators import holme_kim, rmat
from repro.graph.metrics import global_clustering_coefficient
from repro.graph.ordering import apply_ordering
from repro.memory import matrix_count, vertex_iterator
from repro.sim import simulate
from repro.util.tables import format_table

MAIN_DATASETS = ["LJ", "ORKUT", "TWITTER", "UK"]
RATIOS = [0.05, 0.10, 0.15, 0.20, 0.25]
CORE_COUNTS = [1, 2, 3, 4, 5, 6]


@experiment("fig3a")
def fig3a_buffer_sweep() -> ExperimentResult:
    """Figure 3a — OPT_serial relative elapsed time vs buffer size."""
    results = {}
    for name in MAIN_DATASETS:
        _graph, store, reference = prepared(name)
        ideal = ideal_elapsed(store, reference.cpu_ops, COST)
        results[name] = [
            triangulate_disk(store, buffer_ratio=ratio, cost=COST,
                             cores=1).elapsed / ideal
            for ratio in RATIOS
        ]
    rows = [(name, *(f"{v:.3f}" for v in values))
            for name, values in results.items()]
    result = ExperimentResult(
        "fig3a",
        format_table(["dataset"] + [f"{r:.0%}" for r in RATIOS], rows,
                     title="Figure 3a: relative elapsed time of OPT_serial "
                           "vs ideal (paper: <= 1.07 at the 15% elbow, "
                           "negative overhead possible)"),
        data={"results": results},
    )
    for name, values in results.items():
        result.check(values[0] >= values[2] - 0.02,
                     f"{name}: overhead falls until the elbow")
        result.check(values[2] <= 1.20,
                     f"{name}: elbow overhead within the paper's band")
        result.check(abs(values[3] - values[4]) < 0.08,
                     f"{name}: flat past the elbow")
    return result


@experiment("fig3b")
def fig3b_inmemory() -> ExperimentResult:
    """Figure 3b — OPT_serial vs the in-memory methods."""
    results = {}
    for name in MAIN_DATASETS:
        graph, store, reference = prepared(name)
        ideal = ideal_elapsed(store, reference.cpu_ops, COST)
        results[name] = {
            "EdgeIterator (ideal)": 1.0,
            "VertexIterator": ideal_elapsed(
                store, vertex_iterator(graph).cpu_ops, COST) / ideal,
            "Alon et al. [2]": ideal_elapsed(
                store, matrix_count(graph).cpu_ops, COST) / ideal,
            "OPT_serial (15%)": triangulate_disk(
                store, buffer_ratio=0.15, cost=COST, cores=1).elapsed / ideal,
        }
    methods = list(next(iter(results.values())))
    rows = [(method, *(f"{results[n][method]:.3f}" for n in MAIN_DATASETS))
            for method in methods]
    result = ExperimentResult(
        "fig3b",
        format_table(["method (relative to ideal)"] + MAIN_DATASETS, rows,
                     title="Figure 3b: relative elapsed time vs the ideal "
                           "in-memory method (paper: EI < OPT_serial ~ EI "
                           "< VI < Alon et al.)"),
        data={"results": results},
    )
    for name in MAIN_DATASETS:
        values = results[name]
        result.check(1.0 < values["VertexIterator"] < 1.6,
                     f"{name}: VI ~20% slower than EI")
        result.check(values["Alon et al. [2]"] > values["VertexIterator"],
                     f"{name}: matmul hybrid slowest")
        result.check(values["OPT_serial (15%)"] < 1.25,
                     f"{name}: OPT_serial close to ideal")
    return result


@experiment("fig4")
def fig4_thread_morphing() -> ExperimentResult:
    """Figure 4 — the thread-morphing effect (UK, 2 cores)."""
    _graph, store, _reference = prepared("UK")
    base = triangulate_disk(store, buffer_ratio=0.15, cost=COST, cores=1)
    trace = base.extra["trace"]
    serial = simulate(trace, COST, cores=1, serial=True)
    morph = simulate(trace, COST, cores=2, morphing=True)
    rigid = simulate(trace, COST, cores=2, morphing=False)

    rows = []
    cum_morph = cum_rigid = 0.0
    for index, (s, m, r) in enumerate(
        zip(serial.iterations, morph.iterations, rigid.iterations), start=1
    ):
        cum_morph += m.elapsed
        cum_rigid += r.elapsed
        rows.append((index, f"{r.internal_time * 1e3:.2f}",
                     f"{r.external_time * 1e3:.2f}",
                     f"{m.elapsed * 1e3:.2f}", f"{r.elapsed * 1e3:.2f}",
                     f"{cum_morph * 1e3:.1f}", f"{cum_rigid * 1e3:.1f}"))
    table = format_table(
        ["iter", "internal (ms)", "external (ms)", "morph iter (ms)",
         "rigid iter (ms)", "morph cum (ms)", "rigid cum (ms)"],
        rows,
        title="Figure 4: per-iteration thread times on UK, 2 cores "
              "(paper: morphing ~2x over serial, without it 1.1-1.3x)",
    )
    summary = (
        f"\nserial elapsed:          {serial.elapsed * 1e3:.1f} ms"
        f"\n2 cores with morphing:   {morph.elapsed * 1e3:.1f} ms "
        f"({serial.elapsed / morph.elapsed:.2f}x)"
        f"\n2 cores without:         {rigid.elapsed * 1e3:.1f} ms "
        f"({serial.elapsed / rigid.elapsed:.2f}x)"
    )
    result = ExperimentResult(
        "fig4", table + summary,
        data={"serial": serial.elapsed, "morph": morph.elapsed,
              "rigid": rigid.elapsed},
    )
    result.check(serial.elapsed / morph.elapsed > 1.7,
                 "morphing reaches ~2x with 2 cores")
    result.check(1.0 <= serial.elapsed / rigid.elapsed < 1.4,
                 "without morphing only 1.1-1.3x")
    result.check(morph.elapsed < rigid.elapsed, "morphing always helps")
    return result


@experiment("fig5")
def fig5_buffer_effect() -> ExperimentResult:
    """Figure 5 — buffer-size effect on the five serial methods."""
    methods = ["OPT_serial", "MGT", "GraphChi-Tri", "CC-Seq", "CC-DS"]
    all_results = {}
    texts = []
    for name in ("TWITTER", "UK"):
        graph, store, _reference = prepared(name)
        elapsed: dict[str, list[float]] = {m: [] for m in methods}
        for ratio in RATIOS:
            pages = buffer_pages_for_ratio(store, ratio)
            elapsed["OPT_serial"].append(triangulate_disk(
                store, buffer_pages=pages, cost=COST, cores=1).elapsed)
            elapsed["MGT"].append(triangulate_disk(
                store, plugin="mgt", buffer_pages=pages, cost=COST,
                cores=1).elapsed)
            elapsed["GraphChi-Tri"].append(graphchi_tri(
                graph, buffer_pages=pages, page_size=PAGE_SIZE, cost=COST,
                cores=1).elapsed)
            elapsed["CC-Seq"].append(cc_seq(
                graph, buffer_pages=pages, page_size=PAGE_SIZE,
                cost=COST).elapsed)
            elapsed["CC-DS"].append(cc_ds(
                graph, buffer_pages=pages, page_size=PAGE_SIZE,
                cost=COST).elapsed)
        all_results[name] = elapsed
        rows = [(m, *(f"{v * 1e3:.1f}" for v in elapsed[m])) for m in methods]
        texts.append(format_table(
            ["method"] + [f"{r:.0%}" for r in RATIOS], rows,
            title=f"Figure 5 ({name}): elapsed (simulated ms) vs buffer "
                  "size (paper: fast group flat, slow group sensitive)",
        ))
    result = ExperimentResult("fig5", "\n\n".join(texts),
                              data={"results": all_results})
    for name, elapsed in all_results.items():
        for i in range(len(RATIOS)):
            result.check(
                all(elapsed["OPT_serial"][i] <= elapsed[m][i] for m in methods),
                f"{name} @{RATIOS[i]:.0%}: OPT_serial fastest",
            )
        swing = max(elapsed["OPT_serial"]) / min(elapsed["OPT_serial"])
        result.check(swing < 1.30, f"{name}: OPT_serial buffer-insensitive")
        for method in ("GraphChi-Tri", "CC-Seq", "CC-DS"):
            result.check(elapsed[method][0] > 1.2 * elapsed[method][-1],
                         f"{name}: {method} buffer-sensitive")
    return result


@experiment("fig6")
def fig6_speedup() -> ExperimentResult:
    """Figure 6 + Table 5 — speed-up curves and Amdahl analysis."""
    results = {}
    for name in MAIN_DATASETS:
        graph, store, _reference = prepared(name)
        pages = buffer_pages_for_ratio(store, 0.15)
        base = triangulate_disk(store, buffer_pages=pages, cost=COST, cores=1)
        trace = base.extra["trace"]
        opt_speedups = [
            base.elapsed / simulate(trace, COST, cores=c, morphing=True,
                                    serial=(c == 1)).elapsed
            for c in CORE_COUNTS
        ]
        opt_p = simulate(trace, COST, cores=1, serial=True).parallel_fraction
        gchi1 = graphchi_tri(graph, buffer_pages=pages, page_size=PAGE_SIZE,
                             cost=COST, cores=1)
        gchi_speedups = [
            gchi1.elapsed / graphchi_tri(graph, buffer_pages=pages,
                                         page_size=PAGE_SIZE, cost=COST,
                                         cores=c).elapsed
            for c in CORE_COUNTS
        ]
        results[name] = (opt_speedups, opt_p, gchi_speedups,
                         gchi1.extra["parallel_fraction"])

    speedup_rows = []
    table5_rows = []
    for name in MAIN_DATASETS:
        opt_s, opt_p, gchi_s, gchi_p = results[name]
        speedup_rows.append((f"OPT {name}", *(f"{s:.2f}" for s in opt_s)))
        speedup_rows.append((f"GraphChi {name}", *(f"{s:.2f}" for s in gchi_s)))
        table5_rows.append(("OPT", name, f"{opt_p:.3f}",
                            f"{amdahl_bound(opt_p, 6):.2f}", f"{opt_s[-1]:.2f}"))
        table5_rows.append(("GraphChi-Tri", name, f"{gchi_p:.3f}",
                            f"{amdahl_bound(gchi_p, 6):.2f}",
                            f"{gchi_s[-1]:.2f}"))
    chart = series_chart(
        CORE_COUNTS,
        {"OPT (TWITTER)": results["TWITTER"][0],
         "GraphChi (TWITTER)": results["TWITTER"][2]},
        height=10, title="\nspeed-up vs cores (TWITTER)",
    )
    fig6_text = format_table(
        ["method/dataset"] + [f"{c} cores" for c in CORE_COUNTS],
        speedup_rows,
        title="Figure 6: speed-up vs CPU cores "
              "(paper: OPT near-linear, GraphChi < 2.5)",
    ) + "\n" + chart
    table5_text = format_table(
        ["method", "dataset", "p", "ub^6", "speedup^6"], table5_rows,
        title="Table 5: parallel fraction, Amdahl bound, and empirical "
              "speed-up with 6 cores (paper: OPT p in 0.961-0.989, "
              "GraphChi p in 0.271-0.747)",
    )
    result = ExperimentResult("fig6", fig6_text, data={"results": results})
    result.data["table5_text"] = table5_text
    for name in MAIN_DATASETS:
        opt_s, opt_p, gchi_s, gchi_p = results[name]
        result.check(all(b >= a - 0.02 for a, b in zip(opt_s, opt_s[1:])),
                     f"{name}: OPT speed-up monotone")
        result.check(opt_s[-1] > 2.4, f"{name}: OPT > 2.4x at 6 cores")
        result.check(opt_s[-1] <= amdahl_bound(opt_p, 6) * 1.05,
                     f"{name}: OPT under its Amdahl bound")
        result.check(gchi_s[-1] < 2.5, f"{name}: GraphChi saturates < 2.5")
        result.check(gchi_p < 0.80 < opt_p,
                     f"{name}: parallel fractions separated")
        result.check(opt_s[-1] > gchi_s[-1], f"{name}: OPT scales better")
    return result


def _run_synthetic(graph):
    store = make_store(graph, PAGE_SIZE)
    pages = buffer_pages_for_ratio(store, 0.15)
    opt1 = triangulate_disk(store, buffer_pages=pages, cost=COST, cores=1)
    opt6 = replay(opt1.extra["trace"], COST, cores=6, morphing=True)
    mgt_result = triangulate_disk(store, plugin="mgt", buffer_pages=pages,
                                  cost=COST, cores=1)
    gchi1 = graphchi_tri(graph, buffer_pages=pages, page_size=PAGE_SIZE,
                         cost=COST, cores=1)
    gchi6 = graphchi_tri(graph, buffer_pages=pages, page_size=PAGE_SIZE,
                         cost=COST, cores=6)
    assert opt1.triangles == mgt_result.triangles == gchi1.triangles
    return {
        "OPT_serial": opt1.elapsed,
        "MGT": mgt_result.elapsed,
        "OPT (6)": opt6.elapsed,
        "GraphChi (6)": gchi6.elapsed,
        "opt_speedup": opt1.elapsed / opt6.elapsed,
        "gchi_speedup": gchi1.elapsed / gchi6.elapsed,
        "triangles": opt1.triangles,
    }


@experiment("fig7a")
def fig7a_vertices() -> ExperimentResult:
    """Figure 7a — R-MAT sweep over |V| at density 16."""
    vertex_counts = [1600, 3200, 4800, 6400, 8000]
    results = {}
    for n in vertex_counts:
        graph, _ = apply_ordering(rmat(n, n * 16, seed=n), "degree")
        results[n] = _run_synthetic(graph)
    rows = [
        (f"{n:,}", f"{r['OPT_serial'] * 1e3:.1f}", f"{r['MGT'] * 1e3:.1f}",
         f"{r['MGT'] / r['OPT_serial']:.2f}", f"{r['OPT (6)'] * 1e3:.1f}",
         f"{r['GraphChi (6)'] * 1e3:.1f}", f"{r['opt_speedup']:.2f}",
         f"{r['gchi_speedup']:.2f}")
        for n, r in results.items()
    ]
    result = ExperimentResult(
        "fig7a",
        format_table(
            ["|V|", "OPT_serial", "MGT", "MGT/OPT", "OPT(6)", "GChi(6)",
             "OPT sp6", "GChi sp6"], rows,
            title="Figure 7a: R-MAT |V| sweep at density 16, ms "
                  "(paper: MGT/OPT 1.57-1.72x, OPT sp ~4.5, GChi sp ~1.4)",
        ),
        data={"results": results},
    )
    for n, r in results.items():
        result.check(1.2 < r["MGT"] / r["OPT_serial"] < 2.6,
                     f"|V|={n}: MGT/OPT in the paper's band")
        result.check(r["opt_speedup"] > 2.5, f"|V|={n}: OPT scales")
        result.check(r["gchi_speedup"] < 2.5, f"|V|={n}: GraphChi capped")
        result.check(r["OPT (6)"] < r["GraphChi (6)"], f"|V|={n}: OPT wins")
    serial = [results[n]["OPT_serial"] for n in vertex_counts]
    result.check(serial == sorted(serial), "elapsed grows with |V|")
    return result


@experiment("fig7b")
def fig7b_density() -> ExperimentResult:
    """Figure 7b — R-MAT sweep over density at |V| = 2400."""
    densities = [4, 8, 16, 32, 64]
    results = {}
    for d in densities:
        graph, _ = apply_ordering(rmat(2400, 2400 * d, seed=97 + d), "degree")
        results[d] = _run_synthetic(graph)
    rows = [
        (d, f"{r['OPT_serial'] * 1e3:.1f}", f"{r['MGT'] * 1e3:.1f}",
         f"{r['MGT'] / r['OPT_serial']:.2f}", f"{r['opt_speedup']:.2f}",
         f"{r['gchi_speedup']:.2f}")
        for d, r in results.items()
    ]
    result = ExperimentResult(
        "fig7b",
        format_table(
            ["|E|/|V|", "OPT_serial (ms)", "MGT (ms)", "MGT/OPT",
             "OPT sp6", "GChi sp6"], rows,
            title="Figure 7b: R-MAT density sweep at |V|=2400 "
                  "(paper: MGT/OPT 1.33-2.01x; speed-ups grow with density)",
        ),
        data={"results": results},
    )
    for d, r in results.items():
        result.check(1.2 < r["MGT"] / r["OPT_serial"] < 2.8,
                     f"density {d}: MGT/OPT in band")
        result.check(r["gchi_speedup"] < 2.8, f"density {d}: GraphChi capped")
    result.check(results[64]["opt_speedup"] > results[4]["opt_speedup"],
                 "OPT speed-up grows with density")
    result.check(
        results[64]["gchi_speedup"] >= results[4]["gchi_speedup"] - 0.05,
        "GraphChi speed-up grows with density",
    )
    return result


@experiment("fig7c")
def fig7c_clustering() -> ExperimentResult:
    """Figure 7c — Holme-Kim sweep over the clustering coefficient."""
    sweeps = []
    for triad in (0.05, 0.25, 0.5, 0.75, 0.95):
        raw = holme_kim(2400, 5, triad, seed=7)
        clustering = global_clustering_coefficient(raw)
        graph, _ = apply_ordering(raw, "degree")
        run = _run_synthetic(graph)
        run["clustering"] = clustering
        sweeps.append(run)
    rows = [
        (f"{r['clustering']:.3f}", r["triangles"],
         f"{r['OPT_serial'] * 1e3:.1f}", f"{r['OPT (6)'] * 1e3:.1f}",
         f"{r['MGT'] * 1e3:.1f}")
        for r in sweeps
    ]
    result = ExperimentResult(
        "fig7c",
        format_table(
            ["clustering coeff", "#triangles", "OPT_serial (ms)",
             "OPT 6-core (ms)", "MGT (ms)"], rows,
            title="Figure 7c: clustering-coefficient sweep "
                  "(paper: elapsed flat in the clustering coefficient)",
        ),
        data={"sweeps": sweeps},
    )
    coefficients = [r["clustering"] for r in sweeps]
    result.check(coefficients[-1] > coefficients[0] + 0.1,
                 "clustering actually sweeps upward")
    triangles = [r["triangles"] for r in sweeps]
    result.check(triangles[-1] > 2 * triangles[0],
                 "triangle count rises with clustering")
    for method in ("OPT_serial", "OPT (6)", "MGT"):
        times = [r[method] for r in sweeps]
        result.check(max(times) / min(times) < 1.4,
                     f"{method} elapsed flat in clustering")
    return result

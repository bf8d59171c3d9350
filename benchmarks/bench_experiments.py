"""The figures and tables that are one ``run_experiment`` call each.

Thin timing wrapper, parametrised over ``(experiment id, results file
name)``: the experiment logic (and its qualitative-claim assertions)
lives in :mod:`repro.experiments`; running a case here regenerates
``benchmarks/results/<results file name>.txt``.  Benches that do more
than that (``fig3a``, ``fig6``, ``table4``, the ablations) keep their
own files.

Run one with ``-k``, e.g. ``pytest benchmarks/bench_experiments.py -k fig4``.
"""

from __future__ import annotations

import pytest

from _helpers import once, report
from repro.experiments import run_experiment

EXPERIMENTS = [
    ("table2", "table2_datasets"),         # stand-ins vs paper statistics
    ("table3", "table3_output_writing"),   # OPT_serial < MGT < CC-Seq
    ("fig3b", "fig3b_inmemory"),           # OPT_serial vs in-memory methods
    ("fig4", "fig4_thread_morphing"),      # UK, 2 cores, 15% buffer
    ("fig5", "fig5_buffer_effect"),        # five serial methods vs buffer
    ("table6", "table6_billion"),          # billion-vertex YAHOO stand-in
    ("fig7a", "fig7a_vertices"),           # R-MAT |V| sweep at density 16
    ("fig7b", "fig7b_density"),            # R-MAT density sweep
    ("fig7c", "fig7c_clustering"),         # Holme-Kim clustering sweep
    ("table7", "table7_distributed"),      # one node vs 31-node methods
]


@pytest.mark.parametrize("experiment, results_name", EXPERIMENTS,
                         ids=[experiment for experiment, _ in EXPERIMENTS])
def test_experiment(benchmark, experiment, results_name):
    result = once(benchmark, run_experiment, experiment)
    report(results_name, result.text)
    assert result.checks  # every claim verified inside the experiment

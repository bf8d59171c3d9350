"""The paper's evaluation as a library: every experiment is callable.

Each experiment runs the real computation, renders the paper-style
table/series, and asserts its qualitative claims.  The pytest benchmarks
in ``benchmarks/`` are thin timing wrappers around this registry, and
``opt-repro bench`` can invoke the same runners.

Usage::

    from repro.experiments import run_experiment, experiment_names
    result = run_experiment("fig6")
    print(result.text)          # the regenerated figure
    print(result.checks)        # every verified claim
"""

from repro.experiments import figures, tables  # noqa: F401 - registry side effects
from repro.experiments.common import REGISTRY, ExperimentResult

__all__ = ["ExperimentResult", "experiment_names", "run_experiment"]


def experiment_names() -> list[str]:
    """All registered experiment ids in the paper's Section 5 order."""
    order = ["table2", "table3", "fig3a", "fig3b", "fig4", "fig5",
             "table4", "fig6", "table6", "fig7a", "fig7b", "fig7c", "table7"]
    extra = sorted(set(REGISTRY) - set(order))
    return [name for name in order if name in REGISTRY] + extra


def run_experiment(name: str) -> ExperimentResult:
    """Run one experiment; raises ``KeyError`` for unknown ids."""
    try:
        runner = REGISTRY[name]
    except KeyError:
        # lint: ignore[error-types] dict-lookup contract, as REGISTRY[name]
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(experiment_names())}"
        ) from None
    return runner()

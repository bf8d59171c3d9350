"""Project-specific static analysis for the OPT reproduction.

``repro.lint`` is an AST-based lint framework whose rules encode the
invariants this codebase depends on but cannot unit-test reliably:
lock discipline across the main/reader/callback threads, simulation
determinism (no wall clocks or unseeded randomness in ``sim/`` and
``analysis/``), observability-vocabulary conformance, a non-blocking
SSD callback path, the :mod:`repro.errors` exception taxonomy, and
order-stable artifact emission.

Run it as ``python -m repro.lint [paths...]`` or through the umbrella
CLI as ``python -m repro.cli lint``.  See ``docs/static-analysis.md``
for the rule catalogue and the suppression policy.
"""

from __future__ import annotations

from repro.lint.engine import LintResult, LintRunner, ModuleInfo, Rule, parse_module
from repro.lint.findings import SEVERITIES, Finding
from repro.lint.rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "LintRunner",
    "ModuleInfo",
    "Rule",
    "SEVERITIES",
    "default_rules",
    "parse_module",
]

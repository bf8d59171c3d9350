"""``engine-composition`` — every engine entry point is registered.

The composition layer (:mod:`repro.exec`) makes the engine cube —
Source × Kernel × Executor — enumerable: the scenario matrix
differentially tests every cell, and ``repro verify`` sweeps every
registered method.  That guarantee only holds if triangulation entry
points cannot appear outside the registry's field of view.

This rule flags any *public module-level function* inside the engine
packages that produces a ``TriangulationResult`` (by return annotation
or by directly returning a ``TriangulationResult(...)`` construction)
whose ``<package path>::<name>`` key is missing from
:data:`repro.exec.registry.REGISTERED_ENTRY_POINTS`.  A new engine must
either compose through :func:`repro.exec.compose` (living inside
``exec/``, which this rule exempts) or register its entry point — and
thereby join the verification sweep — before it can land.

Private helpers (leading underscore) and methods are exempt: the
contract covers the public surface callers and benchmarks reach.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleInfo, Rule
from repro.lint.findings import Finding

__all__ = ["EngineCompositionRule"]

#: First path component (under ``repro/``) of every package that hosts
#: triangulation engines.  ``exec/`` is deliberately absent — it *is*
#: the composition layer.
_ENGINE_PACKAGES = frozenset({
    "memory", "core", "baselines", "parallel", "distributed", "storage",
})

_RESULT_TYPE = "TriangulationResult"


def _annotation_names(node: ast.AST | None) -> set[str]:
    """Every bare name mentioned in a return annotation."""
    names: set[str] = set()
    if node is None:
        return names
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value.strip().rsplit(".", 1)[-1])
    return names


def _returns_result(func: ast.FunctionDef) -> bool:
    """Does *func* produce a ``TriangulationResult``?

    Either the return annotation names the type, or some ``return``
    statement belonging to *func* itself (not a nested function)
    constructs one directly.
    """
    if _RESULT_TYPE in _annotation_names(func.returns):
        return True
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue  # returns inside nested scopes are not ours
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            callee = node.value.func
            name = callee.attr if isinstance(callee, ast.Attribute) \
                else getattr(callee, "id", None)
            if name == _RESULT_TYPE:
                return True
        stack.extend(ast.iter_child_nodes(node))
    return False


class EngineCompositionRule(Rule):
    rule_id = "engine-composition"
    severity = "error"
    description = ("public triangulation entry points must be registered "
                   "in repro.exec.registry.REGISTERED_ENTRY_POINTS or "
                   "composed through repro.exec.compose")
    paper_invariant = ("the scenario matrix / verification sweep can only "
                       "certify engines it can enumerate; an unregistered "
                       "entry point is an untested triangle count")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        package_path = module.package_path
        head, _, _ = package_path.partition("/")
        if head not in _ENGINE_PACKAGES:
            return
        # Imported lazily so the lint engine never pulls numpy et al.
        # just to lint unrelated files.
        from repro.exec.registry import REGISTERED_ENTRY_POINTS

        for node in module.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("_"):
                continue
            if not _returns_result(node):
                continue
            key = f"{package_path}::{node.name}"
            if key in REGISTERED_ENTRY_POINTS:
                continue
            yield self.finding(
                module, node,
                f"unregistered engine entry point {key!r}: add it to "
                "repro.exec.registry.REGISTERED_ENTRY_POINTS (and the "
                "verification sweep) or express it through "
                "repro.exec.compose",
            )

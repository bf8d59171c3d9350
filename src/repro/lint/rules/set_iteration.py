"""``set-iteration`` — no raw set iteration where output order matters.

Python sets iterate in hash order, which varies with insertion history
and (for strings, under hash randomization) across *processes*.  Any
loop over a set that feeds a report, a trace, an emitted triangle
group, or a page-request list can therefore produce differently-ordered
artifacts on identical inputs — exactly what the byte-identical trace
gate and the checkpoint replay equivalence forbid.  The fix is always
one word: ``for x in sorted(pages): ...``.

Scope: the rule only fires inside functions that touch the
observability / output machinery (reference a ``report`` / ``tracer`` /
``sink`` name or call an emitting method), so order-insensitive set
loops elsewhere (membership counting, set building) stay legal.  Only
statically known sets are flagged: set literals and comprehensions,
``set(...)`` / ``frozenset(...)`` calls, set-algebra expressions over
those, and local names bound exclusively to them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleInfo, Rule
from repro.lint.findings import Finding

__all__ = ["SetIterationRule"]

_SET_CALLS = frozenset({"set", "frozenset"})
_OBS_NAME_FRAGMENTS = ("report", "tracer", "sink", "registry", "checkpoint")
_OBS_METHODS = frozenset({"emit", "counter", "gauge", "histogram",
                          "instant", "complete", "record", "write_json"})


def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _SET_CALLS:
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
        return _is_set_expr(node.left, set_names) \
            or _is_set_expr(node.right, set_names)
    return False


def _touches_observability(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and any(
                fragment in node.id.lower()
                for fragment in _OBS_NAME_FRAGMENTS):
            return True
        if isinstance(node, ast.Attribute) and any(
                fragment in node.attr.lower()
                for fragment in _OBS_NAME_FRAGMENTS):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _OBS_METHODS:
            return True
    return False


def _local_set_names(func: ast.AST) -> set[str]:
    """Names bound *only* to set-typed expressions within *func*."""
    bound: dict[str, bool] = {}

    def note(target: ast.AST, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            bound[target.id] = bound.get(target.id, True) and is_set

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                note(target, _is_set_expr(node.value, set()))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            note(node.target, _is_set_expr(node.value, set()))
        elif isinstance(node, (ast.AugAssign, ast.For)):
            # reassignment through augmentation / loop targets: unknown
            note(node.target, False)
    return {name for name, is_set in bound.items() if is_set}


class SetIterationRule(Rule):
    rule_id = "set-iteration"
    severity = "error"
    description = ("iterate sorted(...) over sets in code that writes "
                   "reports, traces, or output groups")
    paper_invariant = ("deterministic artifacts: the byte-identical "
                       "sim-trace gate and checkpoint replay equivalence "
                       "require order-stable emission")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        functions = [node for node in ast.walk(module.tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]
        for func in functions:
            if not _touches_observability(func):
                continue
            set_names = _local_set_names(func)
            iters: list[ast.AST] = []
            for node in ast.walk(func):
                if isinstance(node, ast.For):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
            for iter_expr in iters:
                if _is_set_expr(iter_expr, set_names):
                    yield self.finding(
                        module, iter_expr,
                        "iterating a set in report/trace-writing code is "
                        "order-nondeterministic; wrap it in sorted(...)",
                    )

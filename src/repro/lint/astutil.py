"""Small AST helpers shared by the lint rules.

Everything here is a *static approximation*: names are resolved through
the module's import table and simple module-level constants, never by
executing code.  Helpers return ``None`` when a construct cannot be
resolved statically — rules treat unresolvable as "don't flag", keeping
false positives out of the gate.
"""

from __future__ import annotations

import ast

__all__ = [
    "CALLBACK_SUBMITTERS",
    "ImportTable",
    "MUTATING_METHODS",
    "const_str",
    "dotted_name",
    "is_lock_factory",
    "module_str_constants",
    "resolve_call_name",
]

#: Method names that mutate their receiver in place — the write set the
#: lockset rule tracks beyond plain assignments.  Deliberately small and
#: common; an exotic mutator missed here is a documented approximation.
MUTATING_METHODS = frozenset({
    "append", "appendleft", "extend", "insert",
    "add", "discard", "update", "setdefault",
    "pop", "popleft", "popitem", "remove", "clear",
    "sort", "reverse",
    "inc", "observe", "set",  # repro.obs instruments (internally locked)
})

#: Method names whose function arguments are completion callbacks that
#: may run on the SSD callback thread: the device's own ``async_read``
#: and the page feed's ``fill`` / ``request`` that end in it.
CALLBACK_SUBMITTERS = frozenset({"async_read", "fill", "request"})

#: Callables that produce a lock-like object whose ``with`` block
#: constitutes a critical section.
_LOCK_FACTORIES = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
})


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportTable:
    """Local alias → canonical dotted path, from a module's imports.

    ``import threading as t`` maps ``t`` → ``threading``;
    ``from time import perf_counter as pc`` maps ``pc`` →
    ``time.perf_counter``.  :meth:`canonical` rewrites the first segment
    of a dotted name through the table.
    """

    def __init__(self, tree: ast.AST):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def canonical(self, name: str | None) -> str | None:
        """Rewrite *name*'s leading segment through the import aliases."""
        if name is None:
            return None
        head, sep, rest = name.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return name
        return f"{target}{sep}{rest}" if rest else target


def resolve_call_name(call: ast.Call, imports: ImportTable) -> str | None:
    """Canonical dotted name of a call's target, or ``None``."""
    return imports.canonical(dotted_name(call.func))


def const_str(node: ast.AST) -> str | None:
    """The value of a string literal node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def module_str_constants(tree: ast.Module) -> dict[str, str]:
    """Top-level ``NAME = "literal"`` bindings (the metric-alias idiom)."""
    consts: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            value = const_str(node.value)
            if value is not None:
                consts[node.targets[0].id] = value
    return consts


def is_lock_factory(node: ast.AST, imports: ImportTable) -> bool:
    """True when *node* is a call that constructs a lock/condition."""
    if not isinstance(node, ast.Call):
        return False
    name = resolve_call_name(node, imports)
    return name in _LOCK_FACTORIES

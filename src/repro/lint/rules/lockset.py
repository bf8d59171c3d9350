"""``lockset`` — cross-thread shared writes must hold a lock.

OPT's macro overlap makes the *main* thread (fill + internal
triangulation, Algorithms 3/5) and the SSD's *reader/callback* threads
(external triangulation, Algorithms 7/9) mutate state concurrently.
The test suite can only sample these interleavings; a missing lock is
the classic flaky-once-a-month bug.  This rule is a static lockset
approximation in the RacerD tradition, specialized to this codebase's
two threading idioms:

**Class analysis** — for every class that spawns ``threading.Thread``
or ``multiprocessing.Process`` workers: methods reachable from a
``target=self._x`` entry form the
*thread side*; every other method (except ``__init__``/``__del__``,
which run before/after the threads) forms the *main side*.  An instance
attribute written on **both** sides must have every write lexically
inside a ``with`` on a lock-like object (an attribute assigned from
``threading.Lock/RLock/Condition/Semaphore``, or whose name looks like
a lock).  ``Condition(self._lock)`` shares the underlying lock, so
``with self._idle:`` and ``with self._lock:`` both count as guards —
the rule checks *a* lock is held, not *which* (a true lockset
intersection needs alias analysis; this is the documented
approximation).

**Closure analysis** — for functions that pass nested functions as
completion callbacks (``ssd.async_read(pid, callback, args)``, or a
page feed's ``fill`` / ``request``) or thread targets: a closure variable the callback writes (``nonlocal``
stores, subscript/attribute stores, known mutating method calls) while
the enclosing main path also uses it must be written under a ``with``
on a local lock.  Writes that are safe *by barrier ordering* (the main
path only reads after ``wait_idle()``) are invisible to a lexical
analysis — those carry a justified ``# lint: ignore[lockset]``, which
doubles as documentation of the happens-before argument.

Reads are not tracked: write/write and write/read races on the same
attribute almost always co-occur in this codebase, and a read-side rule
would need the same barrier reasoning the annotations document.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import (
    CALLBACK_SUBMITTERS,
    MUTATING_METHODS,
    ImportTable,
    dotted_name,
    is_lock_factory,
)
from repro.lint.engine import ModuleInfo, Rule
from repro.lint.findings import Finding

__all__ = ["LocksetRule"]

#: Name fragments that mark an object as lock-like for ``with`` guards.
_LOCKISH_FRAGMENTS = ("lock", "mutex", "cond", "sem", "idle")

#: Known-atomic attributes: single-assignment flags whose torn read is
#: benign by design.  Empty on purpose — prefer explicit annotations.
KNOWN_ATOMIC: frozenset[str] = frozenset()


def _is_lock_expr(expr: ast.AST, lock_attrs: set[str],
                  lock_names: set[str]) -> bool:
    if isinstance(expr, ast.Call):  # with self._lock() style — unwrap
        expr = expr.func
    name = dotted_name(expr)
    if name is None:
        return False
    parts = name.split(".")
    if len(parts) == 2 and parts[0] == "self" and parts[1] in lock_attrs:
        return True
    if len(parts) == 1 and parts[0] in lock_names:
        return True
    last = parts[-1].lstrip("_").lower()
    return any(fragment in last for fragment in _LOCKISH_FRAGMENTS)


def _self_attr(node: ast.AST) -> str | None:
    """``A`` when *node* is ``self.A`` (or a subscript of it)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


class _WriteCollector(ast.NodeVisitor):
    """Writes to ``self.*`` attributes within one method, with guard state.

    A write is *guarded* when it executes lexically inside a ``with``
    whose context expression is lock-like.  Nested function definitions
    are not descended into — their execution context is unknown.
    """

    def __init__(self, lock_attrs: set[str], lock_names: set[str]):
        self.lock_attrs = lock_attrs
        self.lock_names = lock_names
        self.depth = 0
        #: list of (attr, guarded, node)
        self.writes: list[tuple[str, bool, ast.AST]] = []

    def _note_target(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_target(element, node)
            return
        if isinstance(target, ast.Starred):
            self._note_target(target.value, node)
            return
        attr = _self_attr(target)
        if attr is not None:
            self.writes.append((attr, self.depth > 0, node))

    def visit_With(self, node: ast.With) -> None:
        locked = any(
            _is_lock_expr(item.context_expr, self.lock_attrs, self.lock_names)
            for item in node.items
        )
        if locked:
            self.depth += 1
        self.generic_visit(node)
        if locked:
            self.depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_target(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._note_target(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            attr = _self_attr(node.func.value)
            if attr is not None:
                self.writes.append((attr, self.depth > 0, node))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs execute elsewhere; the closure analysis owns them

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


#: Canonical constructors that start a concurrent worker with a
#: ``target=`` entry point.  ``multiprocessing.Process`` is included
#: deliberately: a ``self.*`` write on the process-worker side is doubly
#: wrong — racy under threads, and under fork it mutates a copy that the
#: parent never sees.
_WORKER_FACTORIES = frozenset({
    "threading.Thread",
    "multiprocessing.Process",
    "multiprocessing.context.Process",
})


def _is_worker_spawn(node: ast.Call, imports: ImportTable) -> bool:
    """True for ``Thread(...)`` / ``Process(...)`` worker constructors.

    ``ctx.Process(...)`` — where ``ctx`` came from
    ``multiprocessing.get_context()`` — is unresolvable through the
    import table, so any ``*.Process`` call carrying a ``target=``
    keyword also counts (documented approximation; the keyword shape
    keeps false positives out).
    """
    name = imports.canonical(dotted_name(node.func))
    if name in _WORKER_FACTORIES:
        return True
    return (name is not None and name.endswith(".Process")
            and any(kw.arg == "target" for kw in node.keywords))


def _thread_entry_methods(cls: ast.ClassDef, imports: ImportTable) -> set[str]:
    entries: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        if not _is_worker_spawn(node, imports):
            continue
        for keyword in node.keywords:
            if keyword.arg == "target":
                attr = _self_attr(keyword.value)
                if attr is not None:
                    entries.add(attr)
    return entries


def _lock_attributes(cls: ast.ClassDef, imports: ImportTable) -> set[str]:
    locks: set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and is_lock_factory(node.value, imports):
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    locks.add(attr)
    return locks


#: Factory methods whose return values are internally synchronized —
#: every instrument from :mod:`repro.obs.registry` carries the
#: registry's lock, so ``self._pages_read.inc()`` from two threads is
#: not a race.  Matching on the factory keeps this precise: a plain
#: ``self._count += 1`` is still flagged.
_SYNCHRONIZED_FACTORIES = frozenset({"counter", "gauge", "histogram"})


def _instrument_attributes(cls: ast.ClassDef) -> set[str]:
    attrs: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute) \
                and value.func.attr in _SYNCHRONIZED_FACTORIES:
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    attrs.add(attr)
    return attrs


def _self_call_graph(methods: dict[str, ast.FunctionDef]) -> dict[str, set[str]]:
    graph: dict[str, set[str]] = {}
    for name, func in methods.items():
        callees: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                attr = _self_attr(node.func)
                if attr is not None and attr in methods:
                    callees.add(attr)
        graph[name] = callees
    return graph


def _reachable(entries: set[str], graph: dict[str, set[str]]) -> set[str]:
    seen = set()
    stack = [entry for entry in entries if entry in graph]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(graph.get(name, ()) - seen)
    return seen


class LocksetRule(Rule):
    rule_id = "lockset"
    severity = "error"
    description = ("attributes and closure variables written across "
                   "threads must be written under a lock")
    paper_invariant = ("thread morphing (Section 3.4, Algorithms 8/10): "
                       "main and callback threads mutate shared state "
                       "concurrently by design")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = ImportTable(module.tree)
        yield from self._check_classes(module, imports)
        yield from self._check_closures(module, imports)

    # -- class-based threading ----------------------------------------------

    def _check_classes(self, module: ModuleInfo,
                       imports: ImportTable) -> Iterator[Finding]:
        for cls in [node for node in ast.walk(module.tree)
                    if isinstance(node, ast.ClassDef)]:
            entries = _thread_entry_methods(cls, imports)
            if not entries:
                continue
            methods = {stmt.name: stmt for stmt in cls.body
                       if isinstance(stmt, ast.FunctionDef)}
            lock_attrs = _lock_attributes(cls, imports)
            instrument_attrs = _instrument_attributes(cls)
            thread_side = _reachable(entries, _self_call_graph(methods))
            writes: dict[str, list[tuple[str, bool, ast.AST, bool]]] = {}
            for name, func in methods.items():
                if name in ("__init__", "__del__"):
                    continue  # runs before the threads start / after join
                collector = _WriteCollector(lock_attrs, set())
                for stmt in func.body:
                    collector.visit(stmt)
                on_thread_side = name in thread_side
                for attr, guarded, node in collector.writes:
                    if attr in lock_attrs or attr in instrument_attrs \
                            or attr in KNOWN_ATOMIC:
                        continue
                    writes.setdefault(attr, []).append(
                        (name, guarded, node, on_thread_side))
            for attr, entries_for_attr in sorted(writes.items()):
                sides = {side for _, _, _, side in entries_for_attr}
                if len(sides) < 2:
                    continue  # written from one side only
                for method, guarded, node, side in entries_for_attr:
                    if guarded:
                        continue
                    where = "thread" if side else "main"
                    yield self.finding(
                        module, node,
                        f"self.{attr} is written from both the main path "
                        f"and a threading.Thread path of class "
                        f"{cls.name!r}, but this {where}-side write in "
                        f"{method!r} holds no lock",
                    )

    # -- closure-based callbacks --------------------------------------------

    def _check_closures(self, module: ModuleInfo,
                        imports: ImportTable) -> Iterator[Finding]:
        for func in [node for node in ast.walk(module.tree)
                     if isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))]:
            nested = {stmt.name: stmt for stmt in ast.walk(func)
                      if isinstance(stmt, ast.FunctionDef) and stmt is not func}
            if not nested:
                continue
            callbacks = self._callback_defs(func, nested, imports)
            if not callbacks:
                continue
            lock_names = {
                target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign)
                and is_lock_factory(node.value, imports)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            callback_nodes = {id(sub) for callback in callbacks
                              for sub in ast.walk(callback)}
            enclosing_names = {
                node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and id(node) not in callback_nodes
            }
            for callback in callbacks:
                yield from self._check_callback(
                    module, func, callback, lock_names, enclosing_names)

    def _callback_defs(self, func: ast.AST, nested: dict[str, ast.FunctionDef],
                       imports: ImportTable) -> list[ast.FunctionDef]:
        callbacks: list[ast.FunctionDef] = []
        seen: set[int] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            candidate_args: list[ast.AST] = []
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in CALLBACK_SUBMITTERS:
                candidate_args = list(node.args) \
                    + [kw.value for kw in node.keywords]
            elif _is_worker_spawn(node, imports):
                candidate_args = [kw.value for kw in node.keywords
                                  if kw.arg == "target"]
            for arg in candidate_args:
                if isinstance(arg, ast.Name) and arg.id in nested:
                    target = nested[arg.id]
                    if id(target) not in seen:
                        seen.add(id(target))
                        callbacks.append(target)
        return callbacks

    def _check_callback(self, module: ModuleInfo, func: ast.AST,
                        callback: ast.FunctionDef, lock_names: set[str],
                        enclosing_names: set[str]) -> Iterator[Finding]:
        own_locals = {arg.arg for arg in (callback.args.args
                                          + callback.args.kwonlyargs
                                          + callback.args.posonlyargs)}
        declared_nonlocal: set[str] = set()
        for node in ast.walk(callback):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                declared_nonlocal.update(node.names)
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Store):
                own_locals.add(node.id)
            elif isinstance(node, ast.For) \
                    and isinstance(node.target, ast.Name):
                own_locals.add(node.target.id)
        own_locals -= declared_nonlocal

        def base_closure_name(expr: ast.AST) -> str | None:
            """Closure variable at the root of a write target, if any."""
            while isinstance(expr, (ast.Subscript, ast.Attribute)):
                expr = expr.value
            if isinstance(expr, ast.Name) and expr.id not in own_locals \
                    and expr.id != "self":
                return expr.id
            return None

        class Collector(_WriteCollector):
            def _note_target(self, target, node):  # type: ignore[override]
                if isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        self._note_target(element, node)
                    return
                name: str | None = None
                if isinstance(target, ast.Name):
                    name = target.id if target.id in declared_nonlocal else None
                else:
                    name = base_closure_name(target)
                if name is not None:
                    self.writes.append((name, self.depth > 0, node))

            def visit_Call(self, node):  # type: ignore[override]
                if isinstance(node.func, ast.Attribute) \
                        and node.func.attr in MUTATING_METHODS:
                    name = base_closure_name(node.func.value)
                    if name is not None:
                        self.writes.append((name, self.depth > 0, node))
                self.generic_visit(node)

        collector = Collector(set(), lock_names)
        for stmt in callback.body:
            collector.visit(stmt)
        for name, guarded, node in collector.writes:
            if guarded or name not in enclosing_names:
                continue
            yield self.finding(
                module, node,
                f"callback {callback.name!r} writes closure variable "
                f"{name!r} shared with the enclosing main path of "
                f"{getattr(func, 'name', '<module>')!r} without holding a "
                f"lock (annotate with the happens-before argument if a "
                f"barrier makes this safe)",
            )

"""``resource-lifecycle`` — long-lived resources reach a release on every path.

The resources the overlapped engines juggle — raw shared-memory
segments, published :class:`~repro.parallel.shm.SharedCSR` graphs, page
files, worker pipes — are acquired through *factories* whose whole
point is that the caller, not the factory, owns cleanup.  Ownership
crosses the call graph; the check must too.

This project rule runs an interprocedural escape analysis:

* **acquisitions** are calls to the known resource factories
  (``SharedMemory(create=True)``, ``SharedCSR.publish`` / ``.attach``,
  ``PageFile.open`` / ``.create``, ``multiprocessing`` ``Pipe()``, which
  acquires both connections it returns) — plus, transitively, calls to
  any project function that *returns* a resource it acquired (a
  transfer factory): its callers inherit the obligation, to a fixed
  point over the call graph;
* an acquisition is **discharged** in its frame when the bound name is
  released (``.close()`` / ``.unlink()`` / ``.stop()`` / ...), used as
  a ``with`` context manager, or **escapes** ownership: returned,
  yielded, passed whole to another call (the callee now owns it), or
  stored on ``self`` or in a container on ``self``
  (``self.conns[worker_id] = reader``) — in which case the owning
  class must itself define a release method;
* a **shared-memory segment** that stays in its frame is held to the
  stricter all-paths shape: ``.close()`` *and* ``.unlink()`` on it
  inside a ``finally``.  A segment is a named system resource that
  survives its creating process, so an exception between creation and a
  straight-line release leaks a ``/dev/shm`` entry until reboot.
  Attach-side ``SharedMemory(name=...)`` calls are not acquisitions:
  attachers own only their mapping, the creator's ``unlink`` is the one
  that matters;
* anything else — a resource bound and then dropped, or acquired with
  the result discarded — is a finding at the acquisition site.

Approximations, documented: escape tracking is by whole-name use, so a
resource smuggled out through a container literal is invisible; for
everything but raw segments a release anywhere in the frame counts;
nested function frames are analyzed independently.
A deliberate leak (a cache that owns its entries process-long) carries
a justified ``# lint: ignore[resource-lifecycle]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import ImportTable, dotted_name
from repro.lint.engine import Finding, ModuleInfo, ProjectContext, ProjectRule

__all__ = ["ResourceLifecycleRule"]

#: Method names that count as releasing a held resource.
RELEASE_METHODS = frozenset({
    "close", "unlink", "stop", "shutdown", "release", "terminate",
    "join_thread", "cleanup",
})

#: Class methods any of which make a ``self.<attr> = resource`` store
#: acceptable: the instance owns the resource and can let it go.
_CLASS_RELEASERS = frozenset(RELEASE_METHODS | {"__exit__", "__del__"})

_SEGMENT = "shared-memory segment"

_PIPE_END = "pipe end"


def _base_acquisition_kind(call: ast.Call,
                           canonical: str | None,
                           imports_multiprocessing: bool) -> str | None:
    """The resource kind a call acquires directly, or ``None``."""
    if canonical is None:
        return None
    tail = canonical.rsplit(".", 1)[-1]
    if tail == "SharedMemory":
        for keyword in call.keywords:
            if keyword.arg == "create" \
                    and isinstance(keyword.value, ast.Constant) \
                    and keyword.value.value is True:
                return _SEGMENT
        return None
    if canonical.endswith("SharedCSR.publish") \
            or canonical.endswith("SharedCSR.attach"):
        return "shared CSR"
    if canonical.endswith("PageFile.open") \
            or canonical.endswith("PageFile.create"):
        return "page file"
    if tail == "Pipe" and imports_multiprocessing:
        return _PIPE_END
    return None


class ResourceLifecycleRule(ProjectRule):
    rule_id = "resource-lifecycle"
    severity = "error"
    description = ("every acquired SharedCSR / shared-memory segment / "
                   "page file / pipe end must be released, stored on "
                   "an owner with a release method, or returned to the "
                   "caller (who then inherits the obligation)")
    paper_invariant = ("overlapped execution (Eq. 5) multiplies long-lived "
                       "concurrent resources; one leaked /dev/shm segment "
                       "pins a whole graph after the run dies")

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        #: (relpath, lineno, col) -> resolved callee ids
        edge_at: dict[tuple[str, int, int], list[str]] = {}
        for call in graph.calls:
            edge_at.setdefault(
                (call.relpath, call.lineno, call.col), []).append(call.callee)

        #: function id -> resource kind it returns (transfer factories)
        transfers: dict[str, str] = {}
        #: (relpath, frame lineno) memo of analyses, re-run per iteration
        findings: list[Finding] = []

        # Fixed point on the transfer set: analyzing with the current
        # transfer table may discover new factories (a function that
        # returns the result of another factory), which changes callers'
        # obligations on the next round.  Findings are taken only from
        # the final, stable round.
        for _ in range(len(graph.functions) + 2):
            findings = []
            next_transfers: dict[str, str] = dict(transfers)
            for module in project.modules:
                self._analyze_module(module, graph, edge_at, transfers,
                                     next_transfers, findings)
            if next_transfers == transfers:
                break
            transfers = next_transfers
        yield from findings

    # -- per-module ----------------------------------------------------------

    def _analyze_module(self, module: ModuleInfo, graph, edge_at,
                        transfers, next_transfers,
                        findings: list[Finding]) -> None:
        imports = ImportTable(module.tree)
        imports_mp = any("multiprocessing" in target
                         for target in imports.aliases.values())
        frames: list[tuple[ast.AST, str | None, str | None]] = \
            [(module.tree, None, None)]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                class_name = self._enclosing_class(module.tree, node)
                frames.append((node, node.name, class_name))
        for frame, name, class_name in frames:
            self._analyze_frame(module, frame, name, class_name, graph,
                                imports, imports_mp, edge_at, transfers,
                                next_transfers, findings)

    @staticmethod
    def _enclosing_class(tree: ast.Module, func: ast.AST) -> str | None:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                if any(child is func for child in node.body):
                    return node.name
        return None

    # -- per-frame analysis --------------------------------------------------

    def _acquisition_kind(self, call: ast.Call, module: ModuleInfo,
                          imports: ImportTable, imports_mp: bool,
                          edge_at, transfers) -> str | None:
        canonical = imports.canonical(dotted_name(call.func))
        kind = _base_acquisition_kind(call, canonical, imports_mp)
        if kind is not None:
            return kind
        for callee in edge_at.get(
                (module.relpath, call.lineno, call.col_offset), []):
            if callee in transfers:
                return transfers[callee]
        return None

    def _analyze_frame(self, module, frame, func_name, class_name, graph,
                       imports, imports_mp, edge_at, transfers,
                       next_transfers, findings) -> None:
        # Gather this frame's acquisitions with their binding shape.
        bound: dict[str, tuple[ast.Call, str]] = {}   # var -> (call, kind)
        for stmt in _walk_same_frame(frame):
            if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
                # `with factory() as v:` — the context manager releases.
                continue
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.value, ast.Call):
                kind = self._acquisition_kind(stmt.value, module, imports,
                                              imports_mp, edge_at, transfers)
                for name in _bound_names(stmt.targets[0], kind):
                    bound[name] = (stmt.value, kind)
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                kind = self._acquisition_kind(stmt.value, module, imports,
                                              imports_mp, edge_at, transfers)
                if kind is not None:
                    findings.append(self._leak(
                        module, stmt.value, kind, func_name,
                        "the result is discarded — nothing can ever "
                        "release it"))
        if not bound:
            self._note_transfer_returns(module, frame, func_name, graph,
                                        imports, imports_mp, edge_at,
                                        transfers, next_transfers, bound)
            return

        released: set[str] = set()
        escaped: set[str] = set()
        stored: dict[str, ast.Attribute] = {}
        returned: set[str] = set()
        for node in _walk_same_frame(frame):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id in bound \
                        and node.func.attr in RELEASE_METHODS:
                    released.add(node.func.value.id)
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    target = arg.value if isinstance(arg, ast.Starred) else arg
                    if isinstance(target, ast.Name) and target.id in bound:
                        escaped.add(target.id)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                for sub in ast.walk(value) if value is not None else ():
                    if isinstance(sub, ast.Name) and sub.id in bound:
                        returned.add(sub.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id in bound:
                        released.add(expr.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        target = target.value
                    if isinstance(target, ast.Attribute) \
                            and isinstance(node.value, ast.Name) \
                            and node.value.id in bound:
                        stored[node.value.id] = target

        for var in sorted(bound):
            call, kind = bound[var]
            if var in escaped:
                continue
            if var in released:
                if kind == _SEGMENT and var not in returned \
                        and var not in stored and not \
                        {"close", "unlink"} <= _called_in_finally(frame, var):
                    findings.append(self._leak(
                        module, call, kind, func_name,
                        "it stays in this frame, where close() and "
                        "unlink() must both run inside a finally — a "
                        "failure before them strands it in /dev/shm"))
                continue
            if var in returned:
                # Ownership transfers out: this function becomes a
                # factory; its callers inherit the obligation.
                if func_name is not None:
                    symbol_id = self._symbol_id(module, func_name, class_name,
                                                graph, call)
                    if symbol_id is not None:
                        next_transfers.setdefault(symbol_id, kind)
                continue
            if var in stored:
                owner = stored[var]
                if isinstance(owner.value, ast.Name) \
                        and owner.value.id in ("self", "cls") \
                        and class_name is not None \
                        and self._class_releases(module, class_name, graph):
                    continue
                findings.append(self._leak(
                    module, call, kind, func_name,
                    f"it is stored on {ast.unparse(owner)!s} but the owner "
                    f"defines no release method "
                    f"({'/'.join(sorted(RELEASE_METHODS))})"))
                continue
            findings.append(self._leak(
                module, call, kind, func_name,
                "no release, ownership transfer, or escape on any path"))

        self._note_transfer_returns(module, frame, func_name, graph, imports,
                                    imports_mp, edge_at, transfers,
                                    next_transfers, bound)

    def _note_transfer_returns(self, module, frame, func_name, graph,
                               imports, imports_mp, edge_at, transfers,
                               next_transfers, bound) -> None:
        """``return factory(...)`` marks this function a factory too."""
        if func_name is None:
            return
        for node in _walk_same_frame(frame):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Call):
                kind = self._acquisition_kind(node.value, module, imports,
                                              imports_mp, edge_at, transfers)
                if kind is not None:
                    symbol_id = self._symbol_id(module, func_name, None,
                                                graph, node.value)
                    if symbol_id is not None:
                        next_transfers.setdefault(symbol_id, kind)

    def _symbol_id(self, module, func_name, class_name, graph,
                   near: ast.AST) -> str | None:
        """The graph id of the frame's function, by name then position."""
        qualified = (f"{module.relpath}::{class_name}.{func_name}"
                     if class_name else f"{module.relpath}::{func_name}")
        if qualified in graph.functions:
            return qualified
        # Fallback: any symbol in this module with the right simple name.
        candidates = sorted(
            symbol_id for symbol_id, symbol in graph.functions.items()
            if symbol.relpath == module.relpath and symbol.name == func_name
        )
        return candidates[0] if candidates else None

    def _class_releases(self, module, class_name, graph) -> bool:
        symbol = graph.classes.get(f"{module.relpath}::{class_name}")
        if symbol is None:
            return False
        return bool(set(symbol.methods) & _CLASS_RELEASERS)

    def _leak(self, module, call: ast.Call, kind: str,
              func_name: str | None, why: str) -> Finding:
        where = func_name or "<module>"
        return self.project_finding(
            module, call.lineno, call.col_offset,
            f"{where!r} acquires a {kind} and leaks it: {why} (release "
            f"it in a finally, hand it to an owner with a release "
            f"method, or return it to transfer ownership)",
        )


def _bound_names(target: ast.AST, kind: str | None) -> list[str]:
    """The names an acquisition of *kind* binds to *target*: the one
    name, or both names a ``Pipe()`` is unpacked into."""
    if kind is None:
        return []
    if isinstance(target, ast.Name):
        return [target.id]
    if kind == _PIPE_END and isinstance(target, ast.Tuple):
        return [elt.id for elt in target.elts if isinstance(elt, ast.Name)]
    return []


def _called_in_finally(frame: ast.AST, var: str) -> set[str]:
    """Method names called on *var* inside a ``finally`` of this frame."""
    called: set[str] = set()
    for node in _walk_same_frame(frame):
        if not isinstance(node, ast.Try):
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call) \
                        and isinstance(sub.func, ast.Attribute) \
                        and isinstance(sub.func.value, ast.Name) \
                        and sub.func.value.id == var:
                    called.add(sub.func.attr)
    return called


def _walk_same_frame(root: ast.AST):
    """``ast.walk`` stopping at nested function/class boundaries."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))

"""Project-wide symbol table and call graph for interprocedural rules.

Per-file AST rules see one module at a time; the invariants the
``ProjectRule`` tier protects — typed exceptions at every registered
entry point, shared-memory segments released on every path — span
function and module boundaries.  This module builds the shared
substrate those rules reason over:

* a **symbol table** mapping dotted names (``repro.core.engine.
  triangulate_disk``, ``repro.parallel.shm.SharedCSR.publish``) to
  :class:`FunctionSymbol` / :class:`ClassSymbol` records extracted from
  the parsed tree — decorators are unwrapped (a decorated ``def`` is
  still the ``def``), package ``__init__`` re-exports are followed, and
  ``functools.partial(f, ...)`` resolves to ``f``;
* a **call graph**: one :class:`CallSite` per ``ast.Call`` whose target
  resolves to a project function, with method calls resolved through
  ``self``/``cls`` (including single-inheritance bases), constructor
  calls landing on ``__init__``, local ``var = ClassName(...)`` /
  ``var = ClassName.classmethod(...)`` type inference, bound-method
  aliases (``step = self._advance; step()``), and dynamic dispatch
  through module-level registry dicts (``TABLE[key](...)`` fans out to
  every value of ``TABLE``).

Everything is a *static approximation* in the spirit of
:mod:`repro.lint.astutil`: unresolvable targets produce no edge, so
rules over the graph can only under-report, never hallucinate a path.

Determinism is a contract here exactly as in the engine: symbols are
indexed in sorted module order and call sites are ordered by source
position — the same tree always produces the same graph, across hash
seeds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.lint.astutil import ImportTable, dotted_name
from repro.lint.engine import ModuleInfo

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassSymbol",
    "FunctionSymbol",
    "build_call_graph",
]

_PARTIAL_NAMES = frozenset({"functools.partial", "partial"})


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSymbol:
    """One ``def`` in the project, with everything rules ask about."""

    id: str              # "<relpath>::<qualname>" — stable, human-readable
    relpath: str         # repo-relative posix path of the defining module
    package_path: str    # path relative to the repro package root
    qualname: str        # "triangulate_disk" or "SharedCSR.publish"
    name: str
    lineno: int
    col: int
    class_name: str | None        # enclosing class, None for module level

    @property
    def entry_key(self) -> str:
        """The ``REGISTERED_ENTRY_POINTS`` key shape for this function."""
        return f"{self.package_path}::{self.name}"


@dataclass(frozen=True)
class ClassSymbol:
    """One ``class`` statement: methods by name, base-class names."""

    id: str
    relpath: str
    name: str
    lineno: int
    bases: tuple[str, ...]        # canonical dotted base names
    methods: tuple[str, ...]      # method simple names, sorted


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored to its source position."""

    caller: str          # FunctionSymbol id, or "<relpath>::<module>"
    callee: str          # FunctionSymbol id
    relpath: str         # module containing the call
    lineno: int
    col: int


# ---------------------------------------------------------------------------
# Per-file extraction
# ---------------------------------------------------------------------------


@dataclass
class _RawCall:
    """A call as extracted, before cross-module resolution."""

    scope: str                   # qualname of enclosing function, "" = module
    target: str | None           # dotted syntactic target ("self.run", "f")
    lineno: int
    col: int
    #: For ``functools.partial(f, ...)`` calls: the dotted name of ``f``.
    partial_of: str | None = None
    #: For ``TABLE[key](...)`` calls: the table's dotted name.
    subscript_of: str | None = None


@dataclass
class _RawFunction:
    qualname: str
    name: str
    lineno: int
    col: int
    class_name: str | None


@dataclass
class _RawClass:
    name: str
    lineno: int
    bases: tuple[str, ...]
    methods: tuple[str, ...]


@dataclass
class _ModuleSummary:
    """Everything the graph needs from one file, cheap to re-link."""

    functions: list[_RawFunction] = field(default_factory=list)
    classes: list[_RawClass] = field(default_factory=list)
    calls: list[_RawCall] = field(default_factory=list)
    #: alias -> canonical dotted import target (ImportTable contents)
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = {...}`` dicts whose values are plain names:
    #: name -> sorted tuple of member dotted names (registry dispatch).
    registries: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: per-scope local aliases: scope qualname -> {local: dotted target}
    #: covering ``g = functools.partial(f, ...)``, ``step = self._run``
    #: and ``alias = imported_fn`` bindings.
    aliases: dict[str, dict[str, str]] = field(default_factory=dict)
    #: per-scope inferred local types: scope -> {var: dotted class name}
    #: from ``var = ClassName(...)`` / ``var = ClassName.classmethod(...)``.
    var_types: dict[str, dict[str, str]] = field(default_factory=dict)


class _Extractor(ast.NodeVisitor):
    """One pass over a module tree filling a :class:`_ModuleSummary`."""

    def __init__(self, tree: ast.Module):
        self.summary = _ModuleSummary()
        self.imports = ImportTable(tree)
        self.summary.imports = dict(self.imports.aliases)
        self._scope: list[str] = []        # enclosing function qualnames
        self._class: list[str] = []        # enclosing class names
        self.visit(tree)

    # -- scope bookkeeping ---------------------------------------------------

    @property
    def scope(self) -> str:
        return self._scope[-1] if self._scope else ""

    def _qualname(self, name: str) -> str:
        if self._class:
            return f"{self._class[-1]}.{name}"
        return name

    # -- definitions ---------------------------------------------------------

    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef):
        # Nested defs get a hierarchical qualname so their calls can be
        # attributed to the enclosing top-level function.
        qualname = (f"{self.scope}.{node.name}" if self._scope
                    else self._qualname(node.name))
        # Only top-level functions and methods are indexable symbols;
        # nested defs are callable locally but invisible project-wide.
        if len(self._scope) == 0:
            self.summary.functions.append(_RawFunction(
                qualname=qualname, name=node.name, lineno=node.lineno,
                col=node.col_offset, class_name=self._class[-1]
                if self._class else None,
            ))
        self._scope.append(qualname)
        for child in node.body:
            self.visit(child)
        self._scope.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_ClassDef(self, node: ast.ClassDef):
        if self._scope or self._class:
            # Nested classes are out of scope for the project graph.
            for child in node.body:
                self.visit(child)
            return
        bases = tuple(
            base for base in
            (self.imports.canonical(dotted_name(b)) for b in node.bases)
            if base is not None
        )
        methods = tuple(sorted(
            child.name for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ))
        self.summary.classes.append(_RawClass(
            name=node.name, lineno=node.lineno, bases=bases, methods=methods,
        ))
        self._class.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class.pop()

    # -- bindings ------------------------------------------------------------

    def visit_Assign(self, node: ast.Assign):
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            self._record_binding(name, node.value)
        self.generic_visit(node)

    def _record_binding(self, name: str, value: ast.AST):
        scope = self.scope
        # Registry dicts: NAME = {"k": Member, ...} at module level.
        if scope == "" and isinstance(value, ast.Dict):
            members = []
            for member in value.values:
                dotted = self.imports.canonical(dotted_name(member))
                if dotted is not None:
                    members.append(dotted)
            if members and len(members) == len(value.values):
                self.summary.registries[name] = tuple(sorted(set(members)))
                return
        # functools.partial(f, ...) bound to a local name.
        if isinstance(value, ast.Call):
            target = self.imports.canonical(dotted_name(value.func))
            if target in _PARTIAL_NAMES and value.args:
                inner = dotted_name(value.args[0])
                if inner is not None:
                    self.summary.aliases.setdefault(scope, {})[name] = inner
                return
            # var = ClassName(...) / var = ClassName.classmethod(...):
            # light local type inference for method resolution.
            if target is not None:
                head = target.split(".")[-1]
                if head and head[0].isupper():
                    self.summary.var_types.setdefault(scope, {})[name] = target
                elif "." in target:
                    # ClassName.classmethod(...) — assume it returns an
                    # instance of ClassName (publish/attach idiom).
                    owner = target.rsplit(".", 1)[0]
                    tail = owner.split(".")[-1]
                    if tail and tail[0].isupper():
                        self.summary.var_types.setdefault(
                            scope, {})[name] = owner
                return
        # Bound-method / function aliases: step = self._advance, f = run.
        dotted = dotted_name(value)
        if dotted is not None:
            self.summary.aliases.setdefault(scope, {})[name] = dotted

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call):
        raw = _RawCall(
            scope=self.scope, target=dotted_name(node.func),
            lineno=node.lineno, col=node.col_offset,
        )
        canonical = self.imports.canonical(raw.target)
        if canonical in _PARTIAL_NAMES and node.args:
            raw.partial_of = dotted_name(node.args[0])
        if isinstance(node.func, ast.Subscript):
            raw.subscript_of = dotted_name(node.func.value)
        if raw.target is not None or raw.partial_of is not None \
                or raw.subscript_of is not None:
            self.summary.calls.append(raw)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Cross-module linking
# ---------------------------------------------------------------------------


def _module_dotted(module: ModuleInfo) -> str:
    """Best-effort dotted import path of *module*.

    ``src/repro/core/engine.py`` → ``repro.core.engine``; fixture trees
    that mimic the package layout (``repro/core/engine.py``) resolve the
    same way.  Files outside any ``repro`` root fall back to their stem
    path, which keeps them resolvable relative to each other.
    """
    parts = module.relpath.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


class CallGraph:
    """The linked project: symbols, classes, and resolved call sites."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: list[ModuleInfo] = sorted(
            modules, key=lambda m: m.relpath)
        self.functions: dict[str, FunctionSymbol] = {}
        self.classes: dict[str, ClassSymbol] = {}
        self.calls: list[CallSite] = []
        #: dotted name -> function id (the resolver's lookup table)
        self._by_dotted: dict[str, str] = {}
        #: dotted class name -> ClassSymbol id
        self._class_by_dotted: dict[str, str] = {}
        #: module relpath -> its summary
        self._summaries: dict[str, _ModuleSummary] = {}
        #: module relpath -> dotted module path
        self._dotted: dict[str, str] = {}
        self._out: dict[str, list[CallSite]] = {}
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        for module in self.modules:
            summary = _Extractor(module.tree).summary
            self._summaries[module.relpath] = summary
            dotted = _module_dotted(module)
            self._dotted[module.relpath] = dotted
            for raw in summary.functions:
                symbol = FunctionSymbol(
                    id=f"{module.relpath}::{raw.qualname}",
                    relpath=module.relpath,
                    package_path=module.package_path,
                    qualname=raw.qualname, name=raw.name,
                    lineno=raw.lineno, col=raw.col,
                    class_name=raw.class_name,
                )
                self.functions[symbol.id] = symbol
                self._by_dotted[f"{dotted}.{raw.qualname}"] = symbol.id
            for raw_class in summary.classes:
                class_symbol = ClassSymbol(
                    id=f"{module.relpath}::{raw_class.name}",
                    relpath=module.relpath, name=raw_class.name,
                    lineno=raw_class.lineno, bases=raw_class.bases,
                    methods=raw_class.methods,
                )
                self.classes[class_symbol.id] = class_symbol
                self._class_by_dotted[f"{dotted}.{raw_class.name}"] = \
                    class_symbol.id
        for module in self.modules:
            self._link_module(module)
        self.calls.sort(key=lambda c: (c.relpath, c.lineno, c.col, c.callee))
        for call in self.calls:
            self._out.setdefault(call.caller, []).append(call)

    def _link_module(self, module: ModuleInfo) -> None:
        summary = self._summaries[module.relpath]
        imports = ImportTable.__new__(ImportTable)
        imports.aliases = summary.imports
        for raw in summary.calls:
            caller = (f"{module.relpath}::{raw.scope}" if raw.scope
                      else f"{module.relpath}::<module>")
            if raw.scope and caller not in self.functions:
                # Nested function scope: attribute the call to the
                # nearest indexed ancestor (outermost qualname prefix).
                head = raw.scope.split(".")[0]
                candidate = f"{module.relpath}::{head}"
                if candidate in self.functions:
                    caller = candidate
                else:
                    caller = f"{module.relpath}::<module>"
            for callee in self._resolve(module, summary, imports, raw):
                self.calls.append(CallSite(
                    caller=caller, callee=callee, relpath=module.relpath,
                    lineno=raw.lineno, col=raw.col,
                ))

    def _resolve(self, module: ModuleInfo, summary: _ModuleSummary,
                 imports: ImportTable,
                 raw: _RawCall) -> Iterator[str]:
        """Yield the function id of every resolvable target."""
        # functools.partial(f, ...) — edge to f at the partial site.
        if raw.partial_of is not None:
            target = self._resolve_dotted(module, summary, imports,
                                          raw.scope, raw.partial_of)
            if target is not None:
                yield target
            return
        # TABLE[key](...) — fan out to every registry member.
        if raw.subscript_of is not None:
            table = summary.registries.get(raw.subscript_of or "")
            if table is None:
                resolved = imports.canonical(raw.subscript_of)
                table = self._foreign_registry(resolved)
            if table:
                seen: set[str] = set()
                for member in table:
                    target = self._resolve_dotted(module, summary, imports,
                                                  raw.scope, member)
                    if target is not None and target not in seen:
                        seen.add(target)
                        yield target
            return
        if raw.target is None:
            return
        target = self._resolve_dotted(module, summary, imports, raw.scope,
                                      raw.target)
        if target is not None:
            yield target

    def _foreign_registry(self, dotted: str | None) -> tuple[str, ...]:
        """Registry-dict members for a table imported from another module."""
        if dotted is None or "." not in dotted:
            return ()
        module_part, _, table_name = dotted.rpartition(".")
        for relpath, mod_dotted in self._dotted.items():
            if mod_dotted == module_part:
                members = self._summaries[relpath].registries.get(table_name)
                if members:
                    return members
        return ()

    def _resolve_dotted(self, module: ModuleInfo, summary: _ModuleSummary,
                        imports: ImportTable, scope: str,
                        name: str, _depth: int = 0) -> str | None:
        """Resolve a syntactic dotted target to a function id."""
        if _depth > 8:  # alias cycles (a = b; b = a) must terminate
            return None
        head, _, rest = name.partition(".")
        # Local aliases first: bound methods, partials, renamed callables.
        for alias_scope in (scope, ""):
            alias = summary.aliases.get(alias_scope, {}).get(head)
            if alias is not None and alias != name:
                rebuilt = f"{alias}.{rest}" if rest else alias
                return self._resolve_dotted(module, summary, imports, scope,
                                            rebuilt, _depth + 1)
        # self.method() / cls.method(): resolve in the enclosing class.
        if head in ("self", "cls") and rest and scope and "." in scope:
            class_name = scope.split(".")[0]
            return self._resolve_method(module.relpath, class_name,
                                        rest.split(".")[0])
        # var.method() with an inferred local type.
        if rest:
            for type_scope in (scope, ""):
                var_type = summary.var_types.get(type_scope, {}).get(head)
                if var_type is not None:
                    return self._resolve_class_attr(
                        module, imports, var_type, rest.split(".")[0])
        # Same-module function or ClassName / ClassName.method.
        dotted_module = self._dotted[module.relpath]
        local = self._lookup(f"{dotted_module}.{name}")
        if local is not None:
            return local
        # Through the import table.
        canonical = imports.canonical(name)
        if canonical is not None:
            resolved = self._lookup(canonical)
            if resolved is not None:
                return resolved
        return None

    def _resolve_class_attr(self, module: ModuleInfo, imports: ImportTable,
                            class_dotted: str, method: str) -> str | None:
        """``<class>.<method>`` where the class may live in any module."""
        canonical = imports.canonical(class_dotted) or class_dotted
        class_id = self._class_by_dotted.get(canonical)
        if class_id is None:
            # Same-module class written bare.
            dotted_module = self._dotted[module.relpath]
            class_id = self._class_by_dotted.get(
                f"{dotted_module}.{class_dotted}")
        if class_id is None:
            return None
        symbol = self.classes[class_id]
        return self._resolve_method(symbol.relpath, symbol.name, method)

    def _resolve_method(self, relpath: str, class_name: str,
                        method: str) -> str | None:
        """Find *method* on *class_name* or its (project) base classes."""
        seen: set[str] = set()
        queue = [f"{relpath}::{class_name}"]
        while queue:
            class_id = queue.pop(0)
            if class_id in seen:
                continue
            seen.add(class_id)
            symbol = self.classes.get(class_id)
            if symbol is None:
                continue
            candidate = f"{symbol.relpath}::{symbol.name}.{method}"
            if candidate in self.functions:
                return candidate
            for base in symbol.bases:
                base_id = self._class_by_dotted.get(base)
                if base_id is None:
                    # Same-module base written bare.
                    dotted_module = self._dotted.get(symbol.relpath, "")
                    base_id = self._class_by_dotted.get(
                        f"{dotted_module}.{base}")
                if base_id is not None:
                    queue.append(base_id)
        return None

    def _lookup(self, dotted: str) -> str | None:
        """Function id for a canonical dotted name, following re-exports
        (``repro.core.triangulate_disk`` → ``repro.core.engine....``) and
        constructor calls (``ClassName`` → ``ClassName.__init__``)."""
        for _ in range(8):  # bounded re-export chains
            if dotted in self._by_dotted:
                return self._by_dotted[dotted]
            class_id = self._class_by_dotted.get(dotted)
            if class_id is not None:
                symbol = self.classes[class_id]
                init = self._resolve_method(symbol.relpath, symbol.name,
                                            "__init__")
                return init
            module_part, _, attr = dotted.rpartition(".")
            if not module_part:
                return None
            # Follow a package __init__ re-export of `attr`.
            init_relpath = None
            for relpath, mod_dotted in self._dotted.items():
                if mod_dotted == module_part and \
                        relpath.endswith("__init__.py"):
                    init_relpath = relpath
                    break
            if init_relpath is None:
                return None
            forwarded = self._summaries[init_relpath].imports.get(attr)
            if forwarded is None or forwarded == dotted:
                return None
            dotted = forwarded
        return None

    # -- queries -------------------------------------------------------------

    def callees(self, function_id: str) -> list[CallSite]:
        return self._out.get(function_id, [])

    def resolve_entry(self, key: str) -> FunctionSymbol | None:
        """Resolve a ``<package path>::<name>`` entry-point key."""
        for symbol in self.functions.values():
            if symbol.entry_key == key and symbol.class_name is None:
                return symbol
        return None

    def entry_points(self, keys: Iterable[str]) -> list[FunctionSymbol]:
        """The registered entry points present in this tree, sorted."""
        found = [symbol for key in keys
                 for symbol in (self.resolve_entry(key),)
                 if symbol is not None]
        return sorted(found, key=lambda s: s.id)


def build_call_graph(modules: Sequence[ModuleInfo]) -> CallGraph:
    """Link the parsed *modules* into a :class:`CallGraph`."""
    return CallGraph(modules)

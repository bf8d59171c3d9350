"""``callback-io`` — the SSD callback path must never block.

The whole point of OPT's macro overlap (Algorithms 7–10) is that the
callback thread's external triangulation runs *while* further reads are
in flight.  The callback thread is single and serialized: one
``time.sleep`` or synchronous file read inside a completion callback
stalls every queued completion behind it, silently re-serializing the
engine — correctness tests still pass, the overlap the paper claims is
gone.  This rule statically identifies the callback side:

* functions passed as completion callbacks to ``*.async_read(...)`` or
  to a page feed's ``fill`` / ``request``;
* the callback/reader loop methods of classes that spawn
  ``threading.Thread`` workers (``_callback_loop`` and friends);

and flags blocking calls (sleeps, ``open``, ``os.read``/``pread``,
``Path.read_text``...) inside them.  Reader threads are *not* checked —
file I/O is their job, and retry backoff legitimately sleeps there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import (
    CALLBACK_SUBMITTERS,
    ImportTable,
    resolve_call_name,
)
from repro.lint.engine import ModuleInfo, Rule
from repro.lint.findings import Finding

__all__ = ["CallbackIoRule"]

#: Blocking primitives forbidden on the callback path.
_BLOCKING_CALLS = frozenset({
    "time.sleep",
    "open", "io.open",
    "os.read", "os.write", "os.pread", "os.pwrite", "os.fsync",
    "input",
})

#: Blocking *methods* (receiver-typed calls we can only match by name).
_BLOCKING_METHODS = frozenset({
    "read_text", "read_bytes", "write_text", "write_bytes",
    "write_json",
})

#: Thread-loop method naming convention for the callback side.
_CALLBACK_LOOP_NAMES = ("_callback_loop", "callback_loop")


def _callback_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Function defs that run on the SSD callback thread.

    Two sources: nested functions whose *name* is passed as an argument
    to a callback submitter within the same module, and methods named
    like callback loops in thread-spawning classes.
    """
    defs: dict[str, list[ast.FunctionDef]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
    callbacks: list[ast.FunctionDef] = []
    seen: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in CALLBACK_SUBMITTERS:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Name):
                    for func in defs.get(arg.id, []):
                        if id(func) not in seen:
                            seen.add(id(func))
                            callbacks.append(func)
    for name in _CALLBACK_LOOP_NAMES:
        for func in defs.get(name, []):
            if id(func) not in seen:
                seen.add(id(func))
                callbacks.append(func)
    return callbacks


class CallbackIoRule(Rule):
    rule_id = "callback-io"
    severity = "error"
    description = "no blocking file I/O or sleeps on the SSD callback path"
    paper_invariant = ("macro overlap (Algorithms 7-10): the serialized "
                       "callback thread must stay CPU-only or every queued "
                       "completion stalls behind it")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = ImportTable(module.tree)
        for func in _callback_functions(module.tree):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                name = resolve_call_name(node, imports)
                if name in _BLOCKING_CALLS:
                    yield self.finding(
                        module, node,
                        f"{name}() blocks the SSD callback thread "
                        f"(inside {func.name!r}); completions queue "
                        f"behind it and the overlap is lost",
                    )
                elif isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _BLOCKING_METHODS:
                    yield self.finding(
                        module, node,
                        f".{node.func.attr}() is blocking file I/O on the "
                        f"SSD callback path (inside {func.name!r})",
                    )

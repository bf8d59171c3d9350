"""``error-types`` — raised errors come from ``repro.errors``.

The library's contract (see :mod:`repro.errors`) is that every failure
it *raises* derives from :class:`~repro.errors.ReproError`, so callers
catch library failures with one clause while programming errors
(``ValueError``, ``TypeError``...) propagate.  Two patterns break it:

* raising a builtin exception class outside that programming-error
  family — ``raise RuntimeError(...)``, ``raise KeyError(...)``,
  ``raise OSError(...)`` — an untyped failure that slips past
  ``except ReproError`` and that no caller can tell from a crash;
* ``except Exception:`` / bare ``except:`` — a handler wide enough to
  swallow the typed errors the recovery subsystem depends on seeing
  (a ``FaultExhaustedError`` absorbed here becomes a silently wrong
  triangle count).

The builtins in :data:`_ALLOWED_BUILTINS` are accepted: per the
hierarchy's docstring ``ValueError`` / ``TypeError`` and their kin are
programming errors, not library failures, and the rest are control
flow.  A raised name that is not a builtin — a ``repro.errors`` class,
a factory call such as ``raise _defect(...)``, a bound ``raise
failure`` — is accepted too.  Deliberately broad handlers (the SSD
worker loops must capture *everything* to surface it at the
``wait_idle`` barrier) carry a justified ``# lint: ignore[error-types]``.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.lint.engine import ModuleInfo, Rule
from repro.lint.findings import Finding

__all__ = ["ErrorTypesRule"]

#: The builtin exceptions a library function may raise: the hierarchy's
#: programming-error family plus control flow.  Raising any other
#: builtin exception class is flagged.
_ALLOWED_BUILTINS = frozenset({
    "ValueError", "TypeError", "NotImplementedError", "AssertionError",
    "StopIteration", "KeyboardInterrupt", "SystemExit",
})

#: Catching these names is flagged (bare ``except:`` too).
_BANNED_CATCHES = frozenset({"Exception", "BaseException"})


def _is_banned_raise(name: str | None) -> bool:
    builtin = getattr(builtins, name or "", None)
    return (isinstance(builtin, type) and issubclass(builtin, BaseException)
            and name not in _ALLOWED_BUILTINS)


def _exception_name(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ErrorTypesRule(Rule):
    rule_id = "error-types"
    severity = "error"
    description = ("raise repro.errors types, never a builtin outside "
                   "ValueError/TypeError and kin; no blanket except "
                   "handlers")
    paper_invariant = ("recovery (Algorithm 3's barriers + fault handling) "
                       "relies on typed terminal errors surfacing, never a "
                       "silently wrong triangle listing")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Raise):
                name = _exception_name(node.exc)
                if _is_banned_raise(name):
                    yield self.finding(
                        module, node,
                        f"raise a repro.errors type instead of {name}",
                    )
            elif isinstance(node, ast.ExceptHandler):
                names: list[str] = []
                if node.type is None:
                    names = ["<bare>"]
                elif isinstance(node.type, ast.Tuple):
                    names = [_exception_name(el) or "?" for el in node.type.elts]
                else:
                    names = [_exception_name(node.type) or "?"]
                broad = [name for name in names
                         if name in _BANNED_CATCHES or name == "<bare>"]
                if broad:
                    label = ("bare except" if broad == ["<bare>"]
                             else f"except {', '.join(broad)}")
                    yield self.finding(
                        module, node,
                        f"{label} is too broad — catch the narrowest "
                        f"repro.errors (or stdlib) type that can occur",
                    )

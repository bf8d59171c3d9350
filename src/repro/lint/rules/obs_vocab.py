"""``obs-vocab`` — every emitted metric / event name is canonical.

The observability layer's value is that the same name means the same
thing in every emitter: ``compare_reports.py`` diffs reports across
engines by counter key, the I/O-accounting audit equates
``buffer.misses`` with ``ssd.pages_read``, and the trace analytics
bucket events by name.  A typo'd or ad-hoc name doesn't fail anything
at runtime — the registry happily interns it — it just silently forks
the vocabulary and every cross-run comparison involving it reads zero.

This rule resolves the first argument of every
``registry.counter/gauge/histogram(...)`` and
``tracer.instant/complete/slice(...)`` call — string literals directly,
module-level ``NAME = "literal"`` aliases through the constant table —
and requires the name to appear in :mod:`repro.obs.vocab`.  Dynamic
names (f-strings, parameters) are skipped; a recorded trace's event
names are checked by ``validate_chrome_trace(known_names_only=True)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import const_str, dotted_name, module_str_constants
from repro.lint.engine import ModuleInfo, Rule
from repro.lint.findings import Finding
from repro.obs.vocab import METRIC_NAMES, TRACE_EVENT_NAMES

__all__ = ["ObsVocabRule"]

_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})
_TRACER_METHODS = frozenset({"instant", "complete", "slice"})

#: Receiver-name fragments that identify a metrics sink / tracer.  The
#: emitting idiom is uniform across the tree (``report.counter``,
#: ``self.registry.gauge``, ``self._tracer.instant``...), so matching on
#: the receiver's trailing segment keeps unrelated ``.set()``-style
#: methods out without type inference.
_METRIC_RECEIVERS = ("registry", "report")
_TRACER_RECEIVERS = ("tracer", "trace")


def _receiver_matches(call: ast.Call, fragments: tuple[str, ...]) -> bool:
    receiver = dotted_name(call.func.value) if isinstance(call.func,
                                                          ast.Attribute) else None
    if receiver is None:
        return False
    last = receiver.rsplit(".", 1)[-1].lstrip("_").lower()
    return any(fragment in last for fragment in fragments)


class ObsVocabRule(Rule):
    rule_id = "obs-vocab"
    severity = "error"
    description = ("metric and trace-event names must come from "
                   "repro.obs.vocab")
    paper_invariant = ("cross-engine comparability: Fig. 3-7 style "
                       "comparisons and the I/O accounting audits equate "
                       "metrics across engines by name")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if module.package_path == "obs/vocab.py":
            return
        consts = module_str_constants(module.tree)

        def resolve(arg: ast.AST) -> str | None:
            literal = const_str(arg)
            if literal is not None:
                return literal
            if isinstance(arg, ast.Name):
                return consts.get(arg.id)
            return None

        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute) and node.args):
                continue
            method = node.func.attr
            if method in _METRIC_METHODS \
                    and _receiver_matches(node, _METRIC_RECEIVERS):
                name = resolve(node.args[0])
                if name is not None and name not in METRIC_NAMES:
                    yield self.finding(
                        module, node,
                        f"metric name {name!r} is not in "
                        f"repro.obs.vocab.METRIC_NAMES — add it there or "
                        f"use an existing name",
                    )
            elif method in _TRACER_METHODS \
                    and _receiver_matches(node, _TRACER_RECEIVERS):
                name = resolve(node.args[0])
                if name is not None and name not in TRACE_EVENT_NAMES:
                    yield self.finding(
                        module, node,
                        f"trace event name {name!r} is not in "
                        f"repro.obs.vocab.TRACE_EVENT_NAMES — add it there "
                        f"or use an existing name",
                    )

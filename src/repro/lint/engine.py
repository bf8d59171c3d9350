"""The lint engine: file discovery, parsing, rule dispatch, suppression.

The engine is deliberately boring: collect ``.py`` files in sorted
order, parse each once into a :class:`ModuleInfo`, hand the module to
every registered :class:`Rule`, and filter the findings through inline
``# lint: ignore[...]`` suppressions.  Determinism is a contract — the
same tree always produces the same findings in the same order (the
byte-stability test in ``tests/test_lint.py`` holds the engine to it),
because the findings JSON is diffed in CI.

Suppression syntax, on the offending line or alone on the line above::

    self._queue.append(item)  # lint: ignore[lockset] serialized by barrier
    # lint: ignore[sim-purity, callback-io] measurement scaffolding
    something_flagged_on_the_next_line()
    # lint: ignore — suppresses every rule on the next line

A suppression must name the rule(s) it silences (or name none to
silence all); unknown rule ids in the bracket are themselves reported as
``bad-suppression`` findings so typo'd ignores cannot rot silently.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.findings import Finding

__all__ = ["LintResult", "LintRunner", "ModuleInfo", "Rule"]

_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[(?P<rules>[^\]]*)\])?"
)


@dataclass
class ModuleInfo:
    """One parsed source file plus everything rules need to inspect it."""

    path: Path                 # absolute filesystem path
    relpath: str               # stable repo-relative posix path
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: line number -> suppressed rule ids (empty set = all rules)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @property
    def package_path(self) -> str:
        """Path relative to the ``repro`` package root, when inside it.

        ``src/repro/sim/schedule.py`` → ``sim/schedule.py``; paths
        outside the package (fixtures, scripts) come back unchanged, so
        path-scoped rules simply never match them unless the fixture
        mimics the package layout.
        """
        marker = "repro/"
        index = self.relpath.rfind(marker)
        if index < 0:
            return self.relpath
        return self.relpath[index + len(marker):]


class Rule:
    """Base class: one named, severity-tagged check over a module."""

    rule_id: str = "abstract"
    severity: str = "error"
    description: str = ""
    #: Which paper invariant the rule protects (documentation only).
    paper_invariant: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str,
                *, severity: str | None = None) -> Finding:
        """A finding anchored to *node*'s position in *module*."""
        return Finding(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
            severity=severity or self.severity,
        )


@dataclass
class LintResult:
    """Everything one engine run produced."""

    findings: list[Finding]
    files: int
    suppressed: int

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def _scan_suppressions(source: str, lines: Sequence[str]) -> dict[int, set[str]]:
    """Map line numbers to suppressed rule ids via the token stream.

    Tokenizing (rather than regexing raw lines) means a ``# lint:``
    sequence inside a string literal is never mistaken for a directive.
    A comment alone on its line applies to the next line; a trailing
    comment applies to its own line.
    """
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = match.group("rules")
            rule_ids = ({part.strip() for part in rules.split(",")
                         if part.strip()} if rules else set())
            line = token.start[0]
            text_before = lines[line - 1][: token.start[1]].strip() \
                if line - 1 < len(lines) else ""
            target = line + 1 if not text_before else line
            suppressions.setdefault(target, set()).update(rule_ids)
    except tokenize.TokenizeError:
        pass  # the parse error finding already covers this file
    return suppressions


def parse_module(path: Path, root: Path | None = None) -> ModuleInfo:
    """Parse *path* into a :class:`ModuleInfo` (raises ``SyntaxError``)."""
    path = Path(path).resolve()
    if root is not None:
        try:
            relpath = path.relative_to(Path(root).resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
    else:
        relpath = path.as_posix()
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    return ModuleInfo(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        lines=lines,
        suppressions=_scan_suppressions(source, lines),
    )


def _collect_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        else:
            files.append(entry)
    # De-duplicate while preserving deterministic sorted order.
    return sorted({path.resolve() for path in files})


class LintRunner:
    """Run a set of rules over a set of paths.

    *strict_ignores* reports ``# lint: ignore`` directives that
    suppressed zero findings as ``unused-suppression`` findings, so
    stale ignores cannot rot once the code they excused is fixed.
    """

    def __init__(self, rules: Sequence[Rule], *,
                 root: str | Path | None = None,
                 strict_ignores: bool = False):
        self.rules = list(rules)
        self.root = Path(root).resolve() if root is not None else Path.cwd()
        self.strict_ignores = strict_ignores
        seen: set[str] = set()
        for rule in self.rules:
            if rule.rule_id in seen:
                raise ValueError(f"duplicate rule id {rule.rule_id!r}")
            seen.add(rule.rule_id)
        self.rule_ids = seen

    def _parse_all(self, files: Sequence[Path]) \
            -> list["ModuleInfo | Finding"]:
        """Parse every file, a parse failure becoming its finding."""
        def parse_one(path: Path) -> "ModuleInfo | Finding":
            try:
                return parse_module(path, self.root)
            except (SyntaxError, UnicodeDecodeError) as exc:
                relpath = path.as_posix()
                try:
                    relpath = path.relative_to(self.root).as_posix()
                except ValueError:
                    pass
                return Finding(
                    path=relpath,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=getattr(exc, "offset", 0) or 0,
                    rule_id="parse-error",
                    message=f"cannot parse: "
                            f"{exc.msg if hasattr(exc, 'msg') else exc}",
                )
        return [parse_one(path) for path in files]

    def run(self, paths: Iterable[str | Path]) -> LintResult:
        findings: list[Finding] = []
        suppressed = 0
        files = _collect_files(paths)
        modules: list[ModuleInfo] = []
        for parsed in self._parse_all(files):
            if isinstance(parsed, Finding):
                findings.append(parsed)
            else:
                modules.append(parsed)

        #: relpath -> set of suppression target lines that absorbed >= 1
        #: finding (feeds the unused-suppression pass).
        used_suppressions: dict[str, set[int]] = {}
        #: relpath -> lines already reported as bad-suppression (a
        #: directive with a typo'd rule id is mis-written, not stale).
        bad_lines: dict[str, set[int]] = {}

        def admit(module: ModuleInfo, raw: Iterable[Finding]) -> None:
            """Suppression-filter *raw* into ``findings``."""
            nonlocal suppressed
            for finding in raw:
                ignored = module.suppressions.get(finding.line)
                if ignored is not None and (not ignored
                                            or finding.rule_id in ignored):
                    suppressed += 1
                    used_suppressions.setdefault(
                        module.relpath, set()).add(finding.line)
                    continue
                findings.append(finding)

        for module in modules:
            for rule in self.rules:
                admit(module, rule.check(module))
            for finding in self._check_suppressions(module):
                bad_lines.setdefault(module.relpath, set()).add(finding.line)
                admit(module, [finding])

        if self.strict_ignores:
            for module in modules:
                used = used_suppressions.get(module.relpath, set())
                bad = bad_lines.get(module.relpath, set())
                for line in sorted(module.suppressions):
                    if line in used or line in bad:
                        continue
                    findings.append(Finding(
                        path=module.relpath, line=line, col=0,
                        rule_id="unused-suppression",
                        message="suppression matches no finding — the "
                                "code it excused is fixed; delete the "
                                "directive",
                        severity="warning",
                    ))

        return LintResult(findings=sorted(findings), files=len(files),
                          suppressed=suppressed)

    def _check_suppressions(self, module: ModuleInfo) -> Iterator[Finding]:
        """Report suppression directives naming unknown rule ids."""
        known = self.rule_ids | {"parse-error", "bad-suppression",
                                 "unused-suppression"}
        for line, rule_ids in sorted(module.suppressions.items()):
            for rule_id in sorted(rule_ids - known):
                yield Finding(
                    path=module.relpath,
                    line=line,
                    col=0,
                    rule_id="bad-suppression",
                    message=f"suppression names unknown rule {rule_id!r}",
                )

"""``python -m repro.lint`` — the static-analysis gate.

Exit codes follow the convention CI scripts expect:

* ``0`` — no findings (suppressed findings are fine);
* ``1`` — findings;
* ``2`` — usage or configuration error (unknown rule id).

Output is deterministic for a given tree: files are visited in sorted
order, findings sort by position, and the JSON mode serializes with
sorted keys — two runs over the same tree are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.lint.engine import LintRunner
from repro.lint.rules import ALL_RULES, default_rules

__all__ = ["build_parser", "main", "run_lint"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Project-specific static analysis for the OPT "
                    "reproduction (lockset, sim-purity, obs-vocabulary...).",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--rules", default=None, metavar="ID[,ID...]",
                        help="run only these rule ids")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="directory paths are reported relative to "
                             "(default: current directory)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe the registered rules and exit")
    parser.add_argument("--strict-ignores", action="store_true",
                        help="report suppression comments that silenced "
                             "nothing as unused-suppression findings")
    return parser


def _list_rules() -> str:
    lines = []
    for cls in ALL_RULES:
        lines.append(f"{cls.rule_id} ({cls.severity})")
        lines.append(f"    {cls.description}")
        if cls.paper_invariant:
            lines.append(f"    invariant: {cls.paper_invariant}")
    return "\n".join(lines)


def run_lint(argv: Sequence[str] | None = None, *, stdout=None) -> int:
    """The CLI body; returns the exit code instead of raising SystemExit."""
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules(), file=out)
        return 0

    only = None
    if args.rules:
        only = {part.strip() for part in args.rules.split(",") if part.strip()}
    try:
        rules = default_rules(only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = LintRunner(rules, root=args.root,
                        strict_ignores=args.strict_ignores)
    result = runner.run(args.paths)
    findings = result.findings

    if args.format == "json":
        payload = {
            "schema": "repro.lint/report",
            "version": 1,
            "files": result.files,
            "suppressed": result.suppressed,
            "new": [finding.to_dict() for finding in findings],
            "by_rule": result.by_rule(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for finding in findings:
            print(finding.format(), file=out)
        summary = (f"{result.files} file(s): {len(findings)} new "
                   f"finding(s), {result.suppressed} suppressed")
        print(summary, file=out)

    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    return run_lint(argv)


if __name__ == "__main__":
    sys.exit(main())

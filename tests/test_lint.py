"""Tier-1 gates for the ``repro.lint`` static-analysis framework.

Four layers of coverage:

* **per-rule fixtures** — every registered rule has true-positive and
  true-negative inputs; a coverage meta-test fails when a new rule
  lands without them;
* **engine semantics** — suppressions, parse errors, deterministic
  output (including byte-identical output across hash seeds);
* **the live gate** — ``src/repro`` itself lints clean with
  ``--strict-ignores`` (every accepted finding is a justified inline
  ignore, and every ignore still earns its keep);
* **the race demo** — a synthetic unguarded shared write injected into
  a copy of ``core/threaded.py`` is caught by the lockset rule, and
  stripping the justified ignores from ``core/framework.py`` resurfaces
  the real barrier-safe writes they document.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, LintRunner, default_rules
from repro.lint.cli import run_lint
from repro.lint.rules.lockset import LocksetRule

pytestmark = [pytest.mark.fast, pytest.mark.lint]

ROOT = Path(__file__).resolve().parents[1]

# ---------------------------------------------------------------------------
# fixtures: true positives + true negatives per rule (one source, or a
# tuple of sources each linted on its own)
# ---------------------------------------------------------------------------

FIXTURES = {
    "lockset": {
        "path": "repro/core/worker.py",
        "tp": """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._results = []
                    self._thread = threading.Thread(target=self._loop)

                def _loop(self):
                    self._results.append(1)

                def collect(self):
                    self._results.append(2)
        """,
        "tn": """
            import threading

            class Worker:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._results = []
                    self._thread = threading.Thread(target=self._loop)

                def _loop(self):
                    with self._lock:
                        self._results.append(1)

                def collect(self):
                    with self._lock:
                        self._results.append(2)
        """,
    },
    "sim-purity": {
        "path": "repro/sim/clock.py",
        "tp": """
            import time

            def now():
                return time.time()
        """,
        "tn": """
            import random

            def rng(seed):
                return random.Random(seed)
        """,
    },
    "obs-vocab": {
        "path": "repro/core/emit.py",
        "tp": """
            def emit(report):
                report.counter("totally.bogus.metric").inc()
        """,
        "tn": """
            def emit(report, name):
                report.counter("triangles").inc()
                report.counter(name).inc()  # dynamic: runtime check's job
        """,
    },
    "callback-io": {
        "path": "repro/core/cb.py",
        "tp": """
            import time

            def run(ssd):
                def on_read(records, page_id):
                    time.sleep(0.01)

                ssd.async_read(1, on_read, (1,))
        """,
        "tn": """
            import time

            def run(ssd):
                def on_read(records, page_id):
                    return len(records)

                ssd.async_read(1, on_read, (1,))
                time.sleep(0.01)  # main path may block freely
        """,
    },
    "error-types": {
        "path": "repro/core/errs.py",
        "tp": ("""
            def f(g):
                try:
                    g()
                except Exception:
                    raise RuntimeError("boom")
        """, """
            def page(pages, pid):
                if pid not in pages:
                    raise KeyError(pid)
                return pages[pid]
        """, """
            def read(fd):
                if fd < 0:
                    raise OSError("closed")
                return fd
        """),
        "tn": ("""
            from repro.errors import StorageError

            def f(g):
                try:
                    g()
                except (OSError, StorageError) as exc:
                    raise StorageError("wrapped") from exc
        """, """
            from repro.errors import GraphFormatError

            def _factory(line):
                return GraphFormatError(f"bad line {line}")

            def parse(line):
                raise _factory(line)
        """, """
            def check(budget):
                if budget < 2:
                    raise ValueError("budget must hold two pages")
                return budget
        """),
    },
    "mutable-default": {
        "path": "repro/core/defaults.py",
        "tp": """
            def gather(items=[]):
                return items
        """,
        "tn": """
            def gather(items=None):
                return items or []
        """,
    },
    "set-iteration": {
        "path": "repro/core/orders.py",
        "tp": """
            def emit(report):
                for key in {"b", "a"}:
                    report.counter(key).inc()
        """,
        "tn": """
            def emit(report):
                for key in sorted({"b", "a"}):
                    report.counter(key).inc()
        """,
    },
    "engine-composition": {
        "path": "repro/memory/edge_iterator.py",
        "tp": """
            from repro.memory.base import TriangulationResult

            def rogue_engine(graph):
                # Unregistered public entry point: returns a result the
                # scenario matrix will never cross-check.
                return TriangulationResult(triangles=0, cpu_ops=0)
        """,
        "tn": """
            from repro.memory.base import TriangulationResult

            def edge_iterator(graph) -> TriangulationResult:
                # Registered in repro.exec.registry.REGISTERED_ENTRY_POINTS.
                return _run(graph)

            def _run(graph) -> TriangulationResult:
                # Private helpers are exempt from registration.
                return TriangulationResult(triangles=0, cpu_ops=0)

            def degree_histogram(graph) -> dict:
                # Non-engine public functions are out of scope.
                return {}
        """,
    },
}


def lint_source(tmp_path, relpath: str, source: str, rules=None, **kwargs):
    """Write one dedented fixture and run the engine over the tree."""
    return lint_tree(tmp_path, {relpath: source}, rules=rules, **kwargs)


def write_tree(tmp_path, files: dict) -> list[Path]:
    """Write a dict of ``relpath -> source`` fixtures, dedented."""
    targets = []
    for relpath, source in sorted(files.items()):
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        targets.append(target)
    return targets


def lint_tree(tmp_path, files: dict, rules=None, **kwargs):
    """Write a dict of ``relpath -> source`` fixtures and lint the tree."""
    write_tree(tmp_path, files)
    runner = LintRunner(rules if rules is not None else default_rules(),
                        root=tmp_path, **kwargs)
    return runner.run([tmp_path])


def inputs(spec, kind: str) -> tuple[str, ...]:
    """A fixture's ``tp`` / ``tn`` sources as a tuple."""
    sources = spec[kind]
    return (sources,) if isinstance(sources, str) else sources


def test_every_rule_has_fixtures():
    assert set(FIXTURES) == {cls.rule_id for cls in ALL_RULES}
    for spec in FIXTURES.values():
        assert inputs(spec, "tp") and inputs(spec, "tn") and spec["path"]


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_true_positive(tmp_path, rule_id):
    spec = FIXTURES[rule_id]
    for index, source in enumerate(inputs(spec, "tp")):
        result = lint_source(tmp_path / str(index), spec["path"], source)
        hits = [f for f in result.findings if f.rule_id == rule_id]
        assert hits, (f"{rule_id}: expected a finding in TP input {index}, "
                      f"got {[f.format() for f in result.findings]}")
        assert all(f.path == spec["path"] for f in hits)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_true_negative(tmp_path, rule_id):
    spec = FIXTURES[rule_id]
    for index, source in enumerate(inputs(spec, "tn")):
        result = lint_source(tmp_path / str(index), spec["path"], source)
        hits = [f.format() for f in result.findings if f.rule_id == rule_id]
        assert not hits, f"{rule_id}: TN input {index} flagged: {hits}"


# ---------------------------------------------------------------------------
# lockset: closure-callback analysis
# ---------------------------------------------------------------------------

CLOSURE_TP = """
    def run(ssd, pages):
        seen = []

        def on_read(records, page_id):
            seen.append(page_id)

        for pid in pages:
            ssd.async_read(pid, on_read, (pid,))
        return seen
"""

CLOSURE_TN = """
    import threading

    def run(ssd, pages):
        lock = threading.Lock()
        seen = []

        def on_read(records, page_id):
            with lock:
                seen.append(page_id)

        for pid in pages:
            ssd.async_read(pid, on_read, (pid,))
        return seen
"""


def test_lockset_flags_unguarded_closure_write(tmp_path):
    result = lint_source(tmp_path, "repro/core/cl.py", CLOSURE_TP,
                         rules=[LocksetRule()])
    assert len(result.findings) == 1
    assert "'seen'" in result.findings[0].message


def test_lockset_accepts_guarded_closure_write(tmp_path):
    result = lint_source(tmp_path, "repro/core/cl.py", CLOSURE_TN,
                         rules=[LocksetRule()])
    assert result.findings == []


def test_lockset_catches_injected_race_in_threaded_copy(tmp_path):
    """A synthetic unguarded shared write in core/threaded.py is caught."""
    source = (ROOT / "src/repro/core/threaded.py").read_text(encoding="utf-8")
    anchor_decl = "        issue_lock = threading.Lock()"
    anchor_write = ("            with issue_lock:  "
                    "# Algorithm 9's atomic issue of the next request")
    assert anchor_decl in source and anchor_write in source
    injected = source.replace(
        anchor_decl, anchor_decl + "\n        completed_pages = []"
    ).replace(
        anchor_write,
        "            completed_pages.append(page_id)\n" + anchor_write,
    )
    result = lint_source(tmp_path, "repro/core/threaded.py", injected,
                         rules=[LocksetRule()])
    hits = [f for f in result.findings if f.rule_id == "lockset"]
    assert len(hits) == 1
    assert "'completed_pages'" in hits[0].message


def test_lockset_ignores_in_threaded_are_load_bearing(tmp_path):
    """Stripping the justified ignores resurfaces the documented writes.

    They sit on the driver's two page callbacks in core/framework.py,
    which the threaded engine's feed runs on the SSD callback thread.
    """
    source = (ROOT / "src/repro/core/framework.py").read_text(encoding="utf-8")
    stripped = source.replace("# lint: ignore[lockset]", "#")
    result = lint_source(tmp_path, "repro/core/framework.py", stripped,
                         rules=[LocksetRule()])
    assert len([f for f in result.findings if f.rule_id == "lockset"]) == 4


# ---------------------------------------------------------------------------
# lockset: process-worker closures (the parallel engine's spawn idiom)
# ---------------------------------------------------------------------------

PROCESS_CLOSURE_TP = """
    import multiprocessing as mp

    def run(chunks):
        done = []

        def worker(chunk):
            done.append(chunk)

        ctx = mp.get_context("fork")
        procs = [ctx.Process(target=worker, args=(c,)) for c in chunks]
        for p in procs:
            p.start()
        return done
"""

PROCESS_CLOSURE_TN = """
    import multiprocessing as mp
    import threading

    def run(chunks):
        lock = threading.Lock()
        done = []

        def worker(chunk):
            with lock:
                done.append(chunk)

        procs = [mp.Process(target=worker, args=(c,)) for c in chunks]
        for p in procs:
            p.start()
        return done
"""


def test_lockset_flags_process_worker_closure_write(tmp_path):
    """ctx.Process(target=...) closures get the same analysis as threads.

    Doubly wrong for processes: racy as written, and under fork the
    child's append mutates a copy the parent never observes.
    """
    result = lint_source(tmp_path, "repro/parallel/cl.py", PROCESS_CLOSURE_TP,
                         rules=[LocksetRule()])
    hits = [f for f in result.findings if f.rule_id == "lockset"]
    assert len(hits) == 1
    assert "'done'" in hits[0].message


def test_lockset_accepts_guarded_process_closure_write(tmp_path):
    result = lint_source(tmp_path, "repro/parallel/cl.py", PROCESS_CLOSURE_TN,
                         rules=[LocksetRule()])
    assert result.findings == []


def test_lockset_flags_process_entry_methods(tmp_path):
    """Class analysis treats mp.Process targets as a worker side."""
    result = lint_source(tmp_path, "repro/parallel/pool.py", """
        import multiprocessing as mp

        class Pool:
            def __init__(self):
                self._lock = mp.Lock()
                self._done = []
                self._proc = mp.Process(target=self._loop)

            def _loop(self):
                self._done.append(1)

            def collect(self):
                self._done.append(2)
    """, rules=[LocksetRule()])
    hits = [f for f in result.findings if f.rule_id == "lockset"]
    assert len(hits) == 2  # both unguarded sides


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def test_suppression_on_same_line(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", """
        def gather(items=[]):  # lint: ignore[mutable-default] fixture
            return items
    """)
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_on_line_above(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", """
        # lint: ignore[mutable-default]
        def gather(items=[]):
            return items
    """)
    assert result.findings == []
    assert result.suppressed == 1


def test_suppression_without_rule_list_silences_all(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", """
        def gather(items=[]):  # lint: ignore
            return items
    """)
    assert result.findings == []


def test_suppression_only_silences_named_rule(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", """
        def gather(items=[]):  # lint: ignore[set-iteration]
            return items
    """)
    assert [f.rule_id for f in result.findings] == ["mutable-default"]


def test_unknown_rule_in_suppression_is_reported(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", """
        x = 1  # lint: ignore[no-such-rule]
    """)
    assert [f.rule_id for f in result.findings] == ["bad-suppression"]
    assert "no-such-rule" in result.findings[0].message


def test_suppression_above_a_raise_in_a_handler(tmp_path):
    """The form ``run_experiment`` uses: a directive alone on the line
    above an ``error-types`` raise inside an ``except`` block."""
    result = lint_source(tmp_path, "repro/core/s.py", """
        def lookup(table, key):
            try:
                return table[key]
            except KeyError:
                # lint: ignore[error-types] dict-lookup contract
                raise KeyError(f"unknown key {key!r}") from None
    """, strict_ignores=True)
    assert result.findings == []
    assert result.suppressed == 1


def test_directive_inside_string_is_not_a_suppression(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", '''
        DOC = "use # lint: ignore[mutable-default] to suppress"
        def gather(items=[]):
            return items
    ''')
    assert [f.rule_id for f in result.findings] == ["mutable-default"]


# ---------------------------------------------------------------------------
# engine: parse errors, determinism, rule selection
# ---------------------------------------------------------------------------

def test_parse_error_becomes_finding(tmp_path):
    result = lint_source(tmp_path, "repro/core/broken.py", """
        def f(:
    """)
    assert [f.rule_id for f in result.findings] == ["parse-error"]


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="no-such-rule"):
        default_rules({"no-such-rule"})


def test_findings_sorted_and_repeatable(tmp_path):
    for name, spec in list(FIXTURES.items())[:4]:
        target = tmp_path / spec["path"]
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(spec["tp"]), encoding="utf-8")
    runner = LintRunner(default_rules(), root=tmp_path)
    first = runner.run([tmp_path])
    second = runner.run([tmp_path])
    assert first.findings == second.findings
    assert first.findings == sorted(first.findings)


# ---------------------------------------------------------------------------
# CLI: exit codes, JSON determinism, the live gate
# ---------------------------------------------------------------------------

def _cli(args):
    out = io.StringIO()
    code = run_lint(args, stdout=out)
    return code, out.getvalue()


def test_cli_exit_one_on_findings(tmp_path):
    target = tmp_path / "repro/core/defaults.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(FIXTURES["mutable-default"]["tp"]))
    code, text = _cli([str(tmp_path), "--root", str(tmp_path)])
    assert code == 1
    assert "[mutable-default]" in text


def test_cli_exit_two_on_unknown_rule(tmp_path):
    code, _ = _cli([str(tmp_path), "--rules", "no-such-rule"])
    assert code == 2


def test_cli_list_rules():
    code, text = _cli(["--list-rules"])
    assert code == 0
    for cls in ALL_RULES:
        assert cls.rule_id in text


def test_json_output_byte_identical_across_hash_seeds(tmp_path):
    """Multi-file JSON output is stable even under hash randomization."""
    for rule_id in ("mutable-default", "error-types", "set-iteration"):
        spec = FIXTURES[rule_id]
        target = tmp_path / spec["path"]
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(inputs(spec, "tp")[0]),
                          encoding="utf-8")

    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path),
             "--root", str(tmp_path), "--format", "json"],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        assert proc.returncode == 1, proc.stderr
        return proc.stdout

    first, second = run("0"), run("1")
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "repro.lint/report"
    assert len(payload["new"]) >= 3


def test_strict_ignores_flags_unused_suppression(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", """
        x = 1  # lint: ignore[lockset]
    """, strict_ignores=True)
    assert [f.rule_id for f in result.findings] == ["unused-suppression"]


def test_strict_ignores_keeps_working_suppressions(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", """
        def gather(items=[]):  # lint: ignore[mutable-default] fixture
            return items
    """, strict_ignores=True)
    assert result.findings == []
    assert result.suppressed == 1


def test_strict_ignores_off_by_default(tmp_path):
    result = lint_source(tmp_path, "repro/core/s.py", """
        x = 1  # lint: ignore[lockset]
    """)
    assert result.findings == []


def test_umbrella_cli_lint_subcommand(tmp_path, capsys):
    """``opt-repro lint`` declares no flags of its own: whatever follows
    the subcommand reaches ``repro.lint.cli``'s parser."""
    from repro.cli import main as repro_main

    write_tree(tmp_path, {FIXTURES[rule_id]["path"]:
                          inputs(FIXTURES[rule_id], "tp")[0]
                          for rule_id in ("mutable-default", "error-types")})
    code = repro_main(["lint", str(tmp_path), "--root", str(tmp_path),
                       "--rules", "error-types", "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 2
    assert set(payload["by_rule"]) == {"error-types"}


def test_repo_tree_lints_clean():
    """The gate: src/repro has zero findings even with --strict-ignores
    (every inline ignore still suppresses a real finding — stale excuses
    are findings themselves)."""
    code, text = _cli([str(ROOT / "src" / "repro"), "--root", str(ROOT),
                       "--strict-ignores"])
    assert code == 0, f"lint gate failed:\n{text}"
    assert "0 new finding(s)" in text

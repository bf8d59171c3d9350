"""In-memory span recorder for the traced benchmark run.

Spans are opened from the benchmark's own files, around calls into the
program's public functions; nothing inside ``src/`` knows about them.
A disabled recorder makes ``span()`` a no-op, so traced and untraced
passes run the same harness code.  ``slowdown`` is per pass (speed.py).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.pass_id = 0
        self.slowdown: dict[int, float] = {}
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {"name": name, "start": 0.0, "end": 0.0,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload, "pass": self.pass_id}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Speed-normalised durations of the spans of that name."""
        return [(s["end"] - s["start"]) / self.slowdown[s["pass"]]
                for s in self.spans if s["name"] == name]

    def dump(self, path: Path, metrics: dict) -> None:
        """Write spans (with self time = span − children) and metrics."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        spans = [dict(s, self=s["end"] - s["start"] - covered,
                      slowdown=self.slowdown[s["pass"]])
                 for s, covered in zip(self.spans, child_time)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload,
                                    "metrics": metrics, "spans": spans}))

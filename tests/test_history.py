"""Headline resolution: which elapsed figure a benchmark payload is judged by.

``headline_elapsed`` lives in ``benchmarks/compare_reports.py``; these cases
pin its most-specific-first order and the payloads that have no headline.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def headline_elapsed():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", BENCHMARKS_DIR / "compare_reports.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.headline_elapsed


class TestHeadline:
    def test_resolution_order_most_specific_first(self, headline_elapsed):
        payload = {
            "derived": {"elapsed_simulated": 1.0},
            "metrics": {"gauges": {"run.elapsed_simulated": 2.0,
                                   "run.elapsed_wall": 3.0}},
        }
        assert headline_elapsed(payload) == ("elapsed_simulated", 1.0)
        del payload["derived"]
        assert headline_elapsed(payload) == ("run.elapsed_simulated", 2.0)
        del payload["metrics"]["gauges"]["run.elapsed_simulated"]
        assert headline_elapsed(payload) == ("run.elapsed_wall", 3.0)

    def test_no_headline_is_none(self, headline_elapsed):
        assert headline_elapsed({}) is None
        assert headline_elapsed({"derived": {"elapsed_simulated": 0}}) is None

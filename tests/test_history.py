"""The cross-run perf history store (repro.obs.history)."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    PerfHistory,
    PerfRecord,
    headline_elapsed,
    render_trend,
    validate_history_dict,
)
from repro.obs.history import (
    DEFAULT_THRESHOLD,
    bench_name_of,
    validate_history_file,
)


def _payload(elapsed: float, *, kind: str = "derived", **meta) -> dict:
    if kind == "derived":
        payload = {"derived": {"elapsed_simulated": elapsed}}
    else:
        payload = {"metrics": {"gauges": {kind: elapsed}}}
    if meta:
        payload["meta"] = meta
    return payload


class TestHeadline:
    def test_resolution_order_most_specific_first(self):
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

    def test_no_headline_is_none(self):
        assert headline_elapsed({}) is None
        assert headline_elapsed({"derived": {"elapsed_simulated": 0}}) is None

    def test_bench_name_of_strips_prefix(self):
        assert bench_name_of("results/BENCH_fig3a.json") == "fig3a"
        assert bench_name_of("other.json") == "other"


class TestIngest:
    def test_ingest_appends_and_counts(self, tmp_path):
        history = PerfHistory(tmp_path / "hist.jsonl")
        record = history.ingest(_payload(0.5, engine="opt"), bench="fig3a",
                                git_rev="abc1234")
        assert record == PerfRecord(bench="fig3a",
                                    metric="elapsed_simulated", value=0.5,
                                    git_rev="abc1234", seq=0,
                                    meta={"engine": "opt"})
        assert len(history) == 1

    def test_exact_repeat_is_skipped(self, tmp_path):
        history = PerfHistory(tmp_path / "hist.jsonl")
        assert history.ingest(_payload(0.5), bench="b",
                              git_rev="r1") is not None
        before = (tmp_path / "hist.jsonl").read_bytes()
        assert history.ingest(_payload(0.5), bench="b", git_rev="r1") is None
        assert (tmp_path / "hist.jsonl").read_bytes() == before
        # A new rev (or value) is a new point on the trajectory.
        assert history.ingest(_payload(0.5), bench="b",
                              git_rev="r2") is not None
        assert history.ingest(_payload(0.6), bench="b",
                              git_rev="r2") is not None
        assert [r.seq for r in history.records()] == [0, 1, 2]

    def test_no_headline_payload_is_skipped(self, tmp_path):
        history = PerfHistory(tmp_path / "hist.jsonl")
        assert history.ingest({"derived": {}}, bench="b") is None
        assert not (tmp_path / "hist.jsonl").exists()

    def test_ingest_file_uses_last_trajectory_line(self, tmp_path):
        path = tmp_path / "BENCH_demo.json"
        lines = [json.dumps(_payload(v)) for v in (0.9, 0.7)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        history = PerfHistory(tmp_path / "hist.jsonl")
        record = history.ingest_file(path, git_rev="r1")
        assert record.bench == "demo" and record.value == 0.7

    def test_reingest_is_byte_deterministic(self, tmp_path):
        reports = [(f"bench{i}", _payload(0.1 * (i + 1))) for i in range(3)]
        indexes = []
        for run in range(2):
            history = PerfHistory(tmp_path / f"hist{run}.jsonl")
            for bench, payload in reports:
                history.ingest(payload, bench=bench, git_rev="r1")
            indexes.append((tmp_path / f"hist{run}.jsonl").read_bytes())
        assert indexes[0] == indexes[1]


class TestQueriesAndVerdicts:
    @pytest.fixture()
    def history(self, tmp_path):
        history = PerfHistory(tmp_path / "hist.jsonl")
        for rev, value in [("r1", 0.50), ("r2", 0.40), ("r3", 0.45)]:
            history.ingest(_payload(value), bench="fig3a", git_rev=rev)
        return history

    def test_trend_best_latest(self, history):
        assert [r.value for r in history.trend("fig3a")] == [0.50, 0.40, 0.45]
        assert history.best("fig3a").git_rev == "r2"
        assert history.latest("fig3a").git_rev == "r3"
        assert history.benches() == ["fig3a"]

    def test_best_tie_keeps_earliest(self, tmp_path):
        history = PerfHistory(tmp_path / "hist.jsonl")
        for rev in ("first", "second"):
            history.ingest(_payload(0.4), bench="b", git_rev=rev)
        assert history.best("b").git_rev == "first"

    def test_check_ok_and_regressed(self, history):
        ok = history.check(_payload(0.41), bench="fig3a")
        assert ok["status"] == "ok"
        assert ok["baseline"] == 0.40 and ok["baseline_rev"] == "r2"
        bad = history.check(_payload(0.40 * 1.21), bench="fig3a")
        assert bad["status"] == "regressed"
        assert bad["ratio"] == pytest.approx(1.21)
        assert bad["threshold"] == DEFAULT_THRESHOLD

    def test_check_against_latest(self, history):
        verdict = history.check(0.53, bench="fig3a", against="latest")
        assert verdict["baseline"] == 0.45 and verdict["status"] == "ok"
        with pytest.raises(ValueError):
            history.check(0.5, bench="fig3a", against="median")

    def test_check_without_history_or_headline(self, tmp_path):
        history = PerfHistory(tmp_path / "empty.jsonl")
        assert history.check(_payload(0.5),
                             bench="b")["status"] == "no-history"
        assert history.check({}, bench="b")["status"] == "no-headline"

    def test_render_trend_sparkline_and_stats(self, history):
        text = render_trend(history, "fig3a")
        assert text.startswith("fig3a (elapsed_simulated, 3 run(s))")
        assert "best 0.400000s" in text
        assert "last 0.450000s @ r3" in text
        assert "(last/best x1.125)" in text
        assert render_trend(history, "missing") == "missing: no history"


class TestValidation:
    def test_record_round_trip_validates(self):
        record = PerfRecord(bench="b", metric="m", value=0.5, git_rev="r",
                            seq=3, meta={"engine": "opt"})
        payload = record.to_dict()
        assert validate_history_dict(payload) == []
        assert PerfRecord.from_dict(payload) == record

    def test_validator_flags_bad_fields(self):
        errors = validate_history_dict({"schema": "nope", "version": "x",
                                        "bench": "", "metric": "m",
                                        "git_rev": "r", "value": -1,
                                        "seq": -2})
        joined = "\n".join(errors)
        assert "schema" in joined and "version" in joined
        assert "bench" in joined and "value" in joined and "seq" in joined

    def test_file_validator_catches_duplicate_seq(self, tmp_path):
        record = PerfRecord(bench="b", metric="m", value=0.5).to_dict()
        path = tmp_path / "hist.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n",
                        encoding="utf-8")
        errors = validate_history_file(path)
        assert any("duplicate seq" in error for error in errors)

    def test_file_validator_accepts_real_index(self, tmp_path):
        history = PerfHistory(tmp_path / "hist.jsonl")
        history.ingest(_payload(0.5), bench="b", git_rev="r1")
        history.ingest(_payload(0.6), bench="c", git_rev="r1")
        assert validate_history_file(tmp_path / "hist.jsonl") == []

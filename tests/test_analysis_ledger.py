"""The perf/accuracy ledger: durable appends, trends, drift gating."""

import json

import pytest

from repro.analysis import (
    LEDGER_SCHEMA_VERSION,
    AnalysisError,
    Ledger,
    host_fingerprint,
    make_record,
    record_from_bench,
    record_from_manifest,
)
from repro.analysis.ledger import mad, median


def _record(value, suite="perf", metric="SPMV/gc.normalized_cost", ts="t0"):
    return make_record(
        suite, {metric: value}, commit="c0", timestamp=ts,
        host={"id": "h0"},
    )


class TestRecords:
    def test_make_record_stamps_schema_and_host(self):
        rec = make_record("s", {"x.ipc": 1.0})
        assert rec["schema_version"] == LEDGER_SCHEMA_VERSION
        assert rec["host"]["id"] == host_fingerprint()["id"]
        assert rec["suite"] == "s"

    def test_make_record_rejects_empty_metrics(self):
        with pytest.raises(AnalysisError):
            make_record("s", {})

    def test_record_from_bench_keeps_normalized_cost(self):
        blob = {"records": [
            {"benchmark": "SPMV", "design": "gc", "normalized_cost": 15.2,
             "best_seconds": 0.2},
            {"benchmark": "BFS", "design": "functional", "mode": "functional",
             "speedup": 8.0, "normalized_cost": 3.0},
        ]}
        rec = record_from_bench(blob, suite="pg", timestamp="t")
        assert rec["metrics"]["SPMV/gc.normalized_cost"] == 15.2
        assert rec["metrics"]["BFS/functional.speedup"] == 8.0

    def test_record_from_bench_rejects_non_bench(self):
        with pytest.raises(AnalysisError):
            record_from_bench({"tasks": []})

    def test_record_from_manifest_keeps_accuracy_metrics(self):
        manifest = {
            "git_commit": "abc",
            "salt": "s",
            "counters": {"task_seconds": 1.5, "retries": 0},
            "tasks": [{
                "label": "simulate:SPMV/gc", "failed": False,
                "fidelity": "timing",
                "metrics": {"l1.miss_rate": 0.5, "core.instructions": 100,
                            "core.cycles": 200},
            }],
        }
        rec = record_from_manifest(manifest, suite="camp", timestamp="t")
        assert rec["commit"] == "abc"
        assert rec["kind"] == "campaign"
        assert rec["metrics"]["simulate:SPMV/gc.l1.miss_rate"] == 0.5
        assert rec["metrics"]["simulate:SPMV/gc.ipc"] == 0.5
        assert rec["metrics"]["campaign.task_seconds"] == 1.5

    def test_record_from_manifest_counts_same_key_repeats_once(self):
        task = {"label": "simulate:SPMV/gc", "key": "k32", "failed": False,
                "metrics": {"l1.miss_rate": 0.702}}
        rec = record_from_manifest({"tasks": [task, dict(task)]},
                                   timestamp="t")
        assert rec["metrics"]["simulate:SPMV/gc.l1.miss_rate"] == 0.702

    def test_record_from_manifest_refuses_a_label_with_two_keys(self):
        manifest = {"tasks": [
            {"label": "simulate:SPMV/gc", "key": "k32", "failed": False,
             "metrics": {"l1.miss_rate": 0.702}},
            {"label": "simulate:SPMV/gc", "key": "k64", "failed": False,
             "metrics": {"l1.miss_rate": 0.656}},
        ]}
        with pytest.raises(AnalysisError, match="k32 and k64"):
            record_from_manifest(manifest, timestamp="t")


class TestRobustStatistics:
    def test_median_and_mad(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 3.0]) == 1.0


class TestLedgerIO:
    def test_append_and_read_roundtrip(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        ledger.append(_record(10.0, ts="t0"))
        ledger.append(_record(11.0, ts="t1"))
        records = ledger.records()
        assert [r["timestamp"] for r in records] == ["t0", "t1"]
        assert ledger.suites() == ["perf"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert Ledger(tmp_path / "absent.jsonl").records() == []

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = Ledger(path)
        ledger.append(_record(10.0))
        with open(path, "a") as fh:
            fh.write('{"suite": "perf", "metrics": {"x": ')  # killed mid-write
        records = ledger.records()
        assert len(records) == 1
        # And appends keep working after the torn line.
        ledger.append(_record(11.0, ts="t2"))
        assert len(ledger.records()) == 2

    def test_append_rejects_unstamped_record(self, tmp_path):
        with pytest.raises(AnalysisError):
            Ledger(tmp_path / "l.jsonl").append({"metrics": {"x": 1}})

    def test_suite_filter(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        ledger.append(_record(1.0, suite="a"))
        ledger.append(_record(2.0, suite="b"))
        assert len(ledger.records(suite="a")) == 1
        assert ledger.suites() == ["a", "b"]


class TestTrend:
    def test_trend_carries_rolling_baseline(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        for i, v in enumerate([10.0, 12.0, 11.0]):
            ledger.append(_record(v, ts=f"t{i}"))
        points = ledger.trend("perf", "SPMV/gc.normalized_cost")
        assert [p["value"] for p in points] == [10.0, 12.0, 11.0]
        assert points[0]["baseline"] is None
        assert points[2]["baseline"] == 11.0  # median of 10, 12

    def test_render_trend_table(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        for i in range(3):
            ledger.append(_record(10.0 + i, ts=f"t{i}"))
        text = ledger.render_trend("perf", "SPMV/gc.normalized_cost")
        assert "rolling median" in text
        assert "t2" in text


class TestCheck:
    def _seed_history(self, ledger, values):
        for i, v in enumerate(values):
            ledger.append(_record(v, ts=f"t{i}"))

    def test_stable_history_passes(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        self._seed_history(ledger, [10.0, 10.2, 9.9, 10.1, 10.0])
        result = ledger.check(suite="perf")
        assert result.ok
        assert result.checked == 1

    def test_injected_regression_fails(self, tmp_path):
        # The acceptance scenario: a healthy rolling baseline, then one
        # synthetic 2x regression appended — the check must fail.
        ledger = Ledger(tmp_path / "l.jsonl")
        self._seed_history(ledger, [10.0, 10.2, 9.9, 10.1, 10.0])
        assert ledger.check(suite="perf").ok
        ledger.append(_record(20.0, ts="t-regressed"))
        result = ledger.check(suite="perf")
        assert not result.ok
        (failure,) = result.failures
        assert failure["metric"] == "SPMV/gc.normalized_cost"
        assert failure["ratio"] == pytest.approx(2.0, rel=0.05)
        assert "FAIL" in result.render()

    def test_improvement_never_fails(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        self._seed_history(ledger, [10.0, 10.1, 9.9, 10.0])
        ledger.append(_record(5.0, ts="t-fast"))  # 2x faster: fine
        assert ledger.check(suite="perf").ok

    def test_higher_is_better_polarity_respected(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        for i, v in enumerate([2.0, 2.1, 1.9, 2.0]):
            ledger.append(_record(v, metric="SPMV/gc.ipc", ts=f"t{i}"))
        ledger.append(_record(1.0, metric="SPMV/gc.ipc", ts="t-slow"))
        result = ledger.check(suite="perf")
        assert not result.ok  # IPC halved: that IS a regression

    def test_noisy_metric_needs_bigger_excursion(self, tmp_path):
        # Noisy history: MAD ~1.0 around median ~10.  A value at 11.5
        # exceeds 10% relative drift but not 3 MADs — not a regression.
        ledger = Ledger(tmp_path / "l.jsonl")
        self._seed_history(ledger, [9.0, 11.0, 8.5, 11.5, 10.0, 9.5])
        ledger.append(_record(11.5, ts="t-jitter"))
        assert ledger.check(suite="perf").ok

    def test_short_history_passes_with_note(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        self._seed_history(ledger, [10.0, 10.0])
        result = ledger.check(suite="perf")
        assert result.ok
        assert "insufficient history" in result.note

    def test_empty_ledger_passes(self, tmp_path):
        result = Ledger(tmp_path / "l.jsonl").check(suite="perf")
        assert result.ok
        assert "empty ledger" in result.note

    def test_neutral_metrics_are_skipped(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        for i in range(4):
            ledger.append(make_record(
                "perf", {"SPMV/gc.instructions": 100.0 * (i + 1)},
                commit="c", timestamp=f"t{i}", host={"id": "h"},
            ))
        result = ledger.check(suite="perf")
        assert result.ok
        assert result.checked == 0 and result.skipped > 0

    def test_explicit_record_not_baselined_against_itself(self, tmp_path):
        ledger = Ledger(tmp_path / "l.jsonl")
        self._seed_history(ledger, [10.0, 10.0, 10.0, 10.0])
        bad = _record(20.0, ts="t-bad")
        ledger.append(bad)
        result = ledger.check(bad)
        assert not result.ok

    def test_ledger_line_is_sorted_json(self, tmp_path):
        path = tmp_path / "l.jsonl"
        Ledger(path).append(_record(10.0))
        line = path.read_text().splitlines()[0]
        parsed = json.loads(line)
        assert line == json.dumps(parsed, sort_keys=True)

"""Manifest diffing: one task per label, verdicts, deterministic reports."""

import json

import pytest

from repro.analysis import (
    AnalysisError,
    compare_manifests,
    counter_polarity,
    load_manifest,
    parse_label,
    parse_manifest,
)
from repro.analysis.report import render_html, render_markdown


def _manifest(tasks, **extra):
    raw = {
        "schema_version": 2,
        "git_commit": "deadbeef",
        "salt": "test",
        "generated_at": "2026-01-01T00:00:00+0000",
        "interrupted": False,
        "jobs": 1,
        "tasks": tasks,
    }
    raw.update(extra)
    return parse_manifest(raw)


def _task(label, metrics, seed=0, failed=False):
    return {
        "label": label,
        "key": f"{label}-{seed}",
        "cached": False,
        "seconds": 0.1,
        "attempts": 1,
        "failed": failed,
        "metrics": metrics,
    }


class TestParseLabel:
    def test_timing_label(self):
        assert parse_label("simulate:SPMV/gc") == ("simulate", "SPMV", "gc", "timing")

    def test_functional_label(self):
        assert parse_label("simulate[functional]:BFS/bs") == (
            "simulate", "BFS", "bs", "functional")

    def test_pd_sweep_label_has_no_design(self):
        assert parse_label("pd-sweep:SPMV") == ("pd-sweep", "SPMV", None, "timing")

    def test_config_suffix_is_not_part_of_the_fields(self):
        assert parse_label("simulate:SPMV/gc@l1_size=65536") == (
            "simulate", "SPMV", "gc", "timing")
        assert parse_label("pd-sweep:SPMV@l1_size=65536") == (
            "pd-sweep", "SPMV", None, "timing")

    def test_unparseable_label_degrades(self):
        assert parse_label("weird") == ("weird", None, None, "timing")


class TestPolarity:
    @pytest.mark.parametrize("name", [
        "l1.miss_rate", "core.cycles", "core.load_latency.mean",
        "campaign.task_seconds", "SPMV/gc.normalized_cost",
    ])
    def test_lower_is_better(self, name):
        assert counter_polarity(name) == -1

    @pytest.mark.parametrize("name", [
        "ipc", "dram.row_hit_rate", "SPMV/gc.speedup", "runs_per_sec",
    ])
    def test_higher_is_better(self, name):
        assert counter_polarity(name) == 1

    @pytest.mark.parametrize("name", ["l1.loads", "core.instructions"])
    def test_raw_counts_are_neutral(self, name):
        assert counter_polarity(name) == 0


class TestCompare:
    def test_improved_and_regressed_verdicts(self):
        a = _manifest([
            _task("simulate:SPMV/gc", {"l1.miss_rate": 0.5, "ipc": 1.0}),
        ])
        b = _manifest([
            _task("simulate:SPMV/gc", {"l1.miss_rate": 0.4, "ipc": 0.8}),
        ])
        cmp = compare_manifests(a, b)
        deltas = {d.name: d for d in cmp.labels[0].deltas}
        assert deltas["l1.miss_rate"].verdict == "improved"  # lower is better
        assert deltas["ipc"].verdict == "regressed"

    def test_neutral_counter_can_only_change(self):
        a = _manifest([_task("simulate:SPMV/gc", {"l1.loads": 100})])
        b = _manifest([_task("simulate:SPMV/gc", {"l1.loads": 90})])
        cmp = compare_manifests(a, b)
        (delta,) = cmp.labels[0].deltas
        assert delta.verdict == "changed"

    def test_same_key_repeats_collapse(self):
        # One task served to two figures leaves two identical records.
        a = _manifest([_task("simulate:SPMV/bs", {"l1.miss_rate": 0.5})] * 2)
        b = _manifest([_task("simulate:SPMV/bs", {"l1.miss_rate": 0.4})] * 3)
        cmp = compare_manifests(a, b)
        (label,) = cmp.labels
        (delta,) = label.deltas
        assert (delta.a, delta.b, delta.verdict) == (0.5, 0.4, "improved")

    def test_label_with_two_keys_is_refused(self):
        ambiguous = _manifest([
            _task("simulate:SPMV/gc", {"l1.miss_rate": 0.70}, seed=0),
            _task("simulate:SPMV/gc", {"l1.miss_rate": 0.66}, seed=1),
        ])
        clean = _manifest([_task("simulate:SPMV/gc", {"l1.miss_rate": 0.7})])
        for a, b in ((ambiguous, clean), (clean, ambiguous)):
            with pytest.raises(AnalysisError) as info:
                compare_manifests(a, b)
            message = str(info.value)
            assert "'simulate:SPMV/gc'" in message
            assert "simulate:SPMV/gc-0" in message
            assert "simulate:SPMV/gc-1" in message

    def test_new_and_missing_labels(self):
        a = _manifest([_task("simulate:SPMV/gc", {"ipc": 1.0})])
        b = _manifest([_task("simulate:SPMV/bs", {"ipc": 1.0})])
        cmp = compare_manifests(a, b)
        statuses = {lbl.label: lbl.status for lbl in cmp.labels}
        assert statuses == {"simulate:SPMV/bs": "new",
                            "simulate:SPMV/gc": "missing"}
        counts = cmp.verdict_counts()
        assert counts["new"] == 1 and counts["missing"] == 1

    def test_failed_tasks_excluded_and_reported(self):
        a = _manifest([
            _task("simulate:SPMV/gc", {"ipc": 1.0}),
            _task("simulate:BFS/gc", None, failed=True),
        ])
        b = _manifest([_task("simulate:SPMV/gc", {"ipc": 1.0})])
        cmp = compare_manifests(a, b)
        assert cmp.failed_a == ["simulate:BFS/gc"]
        assert [lbl.label for lbl in cmp.labels] == ["simulate:SPMV/gc"]

    def test_derived_ipc_from_core_counters(self):
        a = _manifest([_task("simulate:SPMV/gc",
                             {"core.instructions": 100, "core.cycles": 100})])
        b = _manifest([_task("simulate:SPMV/gc",
                             {"core.instructions": 100, "core.cycles": 50})])
        cmp = compare_manifests(a, b)
        deltas = {d.name: d for d in cmp.labels[0].deltas}
        assert deltas["ipc"].a == 1.0 and deltas["ipc"].b == 2.0
        assert deltas["ipc"].verdict == "improved"

    def test_top_regressions_sorted_by_magnitude(self):
        a = _manifest([_task("simulate:SPMV/gc",
                             {"l1.miss_rate": 0.1, "l2.miss_rate": 0.1})])
        b = _manifest([_task("simulate:SPMV/gc",
                             {"l1.miss_rate": 0.4, "l2.miss_rate": 0.2})])
        cmp = compare_manifests(a, b)
        tops = cmp.top_regressions(5)
        assert [d.name for _, d in tops] == ["l1.miss_rate", "l2.miss_rate"]

    def test_non_object_task_entry_is_an_analysis_error(self):
        with pytest.raises(AnalysisError, match="task #0 is not an object"):
            parse_manifest({"tasks": [["simulate:SPMV/gc"]]})

    def test_v1_manifest_loads_without_version_fields(self):
        raw = {
            "salt": "old", "jobs": 1,
            "tasks": [_task("simulate:SPMV/gc", {"ipc": 1.0})],
        }
        m = parse_manifest(raw)
        assert m.schema_version == 1
        assert m.git_commit is None
        task = m.tasks[0]
        assert (task.kind, task.benchmark, task.design) == \
            ("simulate", "SPMV", "gc")


class TestReportDeterminism:
    @pytest.fixture()
    def pair(self, tmp_path):
        a = _manifest([
            _task("simulate:SPMV/gc",
                  {"l1.miss_rate": 0.5, "core.cycles": 1000,
                   "core.instructions": 900,
                   "core.load_latency": {"count": 10, "mean": 40.0}}),
            _task("simulate:BFS/gc", {"l1.miss_rate": 0.8}),
        ])
        b = _manifest([
            _task("simulate:SPMV/gc",
                  {"l1.miss_rate": 0.45, "core.cycles": 900,
                   "core.instructions": 900,
                   "core.load_latency": {"count": 10, "mean": 38.0}}),
            _task("simulate:KMN/bs", {"l1.miss_rate": 0.2}),
        ])
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a.raw))
        pb.write_text(json.dumps(b.raw))
        return pa, pb

    def test_markdown_byte_identical_across_loads(self, pair):
        pa, pb = pair
        docs = [
            render_markdown(compare_manifests(load_manifest(pa),
                                              load_manifest(pb)))
            for _ in range(2)
        ]
        assert docs[0] == docs[1]
        assert "Campaign comparison" in docs[0]

    def test_html_byte_identical_and_self_contained(self, pair):
        pa, pb = pair
        docs = [
            render_html(compare_manifests(load_manifest(pa),
                                          load_manifest(pb)))
            for _ in range(2)
        ]
        assert docs[0] == docs[1]
        assert docs[0].startswith("<!DOCTYPE html>")
        assert "<script" not in docs[0]
        assert 'src="http' not in docs[0] and "href=" not in docs[0]

    def test_report_surfaces_unmatched_labels(self, pair):
        pa, pb = pair
        md = render_markdown(compare_manifests(load_manifest(pa),
                                               load_manifest(pb)))
        assert "new in B: `simulate:KMN/bs`" in md
        assert "missing from B: `simulate:BFS/gc`" in md

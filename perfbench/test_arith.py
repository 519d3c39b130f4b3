"""Tests for the benchmark's arithmetic on synthetic inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import pytest

import arith


def span(name, start, end, parent=None, pid=1):
    return {"name": name, "start": start, "end": end, "parent": parent, "pid": pid}


class TestVerdicts:
    @pytest.mark.parametrize("speedup, expected", [
        (1.0201, "win"),
        (1.02, "draw"),
        (1.0, "draw"),
        (0.98, "draw"),
        (0.9799, "loss"),
    ])
    def test_thresholds_are_strict(self, speedup, expected):
        assert arith.verdict(speedup) == expected

    def test_speedup_error_is_relative_to_the_reference(self):
        assert arith.speedup_error(1.005, 1.152) == pytest.approx(0.147 / 1.152)
        assert arith.speedup_error(0.9, 1.0) == pytest.approx(0.1)

    def test_estimator_accuracy(self):
        reference = {"A": 1.152, "B": 1.0, "C": 0.97, "only-ref": 2.0}
        estimated = {"A": 1.005, "B": 1.0, "C": 0.97, "only-est": 2.0}
        acc = arith.estimator_accuracy(reference, estimated)
        assert acc["pairs"] == 3
        assert acc["verdict_agree"] == pytest.approx(2 / 3)  # A: win vs draw
        assert acc["speedup_err_max"] == pytest.approx(0.147 / 1.152)
        assert acc["speedup_err_mean"] == pytest.approx(0.147 / 1.152 / 3)

    def test_estimator_accuracy_needs_common_benchmarks(self):
        with pytest.raises(ValueError):
            arith.estimator_accuracy({"A": 1.0}, {"B": 1.0})


class TestManifest:
    def test_setup_seconds(self):
        manifest = {"counters": {"elapsed_seconds": 4.25, "task_seconds": 4.0}}
        assert arith.setup_seconds(5.0, manifest) == pytest.approx(0.75)

    def test_undisturbed_wall_takes_each_part_at_its_fastest(self):
        runs = [
            (10.0, 1, {"a": 4.0, "b": 5.0}),  # rest 1.0
            (9.5, 1, {"a": 5.0, "b": 3.0}),   # rest 1.5
        ]
        assert arith.undisturbed_wall(runs) == pytest.approx(1.0 + 4.0 + 3.0)

    def test_undisturbed_wall_of_one_campaign_is_its_wall(self):
        assert arith.undisturbed_wall([(7.25, 2, {"a": 6.0, "b": 4.0})]) == 7.25

    def test_undisturbed_wall_divides_pooled_task_time_by_jobs(self):
        runs = [(6.0, 2, {"a": 6.0, "b": 4.0}),   # rest 1.0
                (7.0, 2, {"a": 4.0, "b": 4.0})]   # rest 3.0
        assert arith.undisturbed_wall(runs) == pytest.approx(1.0 + 8.0 / 2)

    def test_undisturbed_wall_needs_matching_campaigns(self):
        with pytest.raises(ValueError):
            arith.undisturbed_wall([(1.0, 1, {"a": 0.5}), (1.0, 1, {"b": 0.5})])
        with pytest.raises(ValueError):
            arith.undisturbed_wall([])

    def test_builds_per_trace(self):
        keys = [("SPMV", 0.1, 0)] * 4 + [("BFS", 0.1, 0)] * 4
        assert arith.builds_per_trace(keys) == 4.0
        assert arith.builds_per_trace([("SPMV", 0.1, 0), ("SPMV", 0.1, 1)]) == 1.0
        assert arith.builds_per_trace([]) == 0.0


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span("cli", 0.0, 10.0),
            span("task", 1.0, 4.0, parent=0),
            span("build", 2.0, 3.0, parent=1),
            span("task", 5.0, 6.0, parent=0),
        ]
        assert arith.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("b", 3.0, 6.0, parent=0),
            span("c", 9.0, 12.0, parent=0),
        ]
        assert arith.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_serial_wall_shares_are_self_times(self):
        spans = [span("cli", 0.0, 10.0), span("runner.run", 1.0, 9.0, parent=0),
                 span("task", 2.0, 8.0, parent=1)]
        assert arith.layer_wall(spans, main_pid=1) == pytest.approx(
            {"cli": 2.0, "runner.run": 2.0, "task": 6.0})

    def test_pool_wait_is_handed_to_worker_layers(self):
        spans = [
            span("cli", 0.0, 10.0),
            span("runner.run", 1.0, 9.0, parent=0),  # 8 s waiting
            span("task", 1.0, 9.0, pid=2),
            span("build", 1.0, 5.0, parent=2, pid=2),
            span("task", 1.0, 9.0, pid=3),
        ]
        # Workers are busy 16 s in all (task self 4 + 8, build 4) over the
        # main process's 8 s wait, so each second counts half.
        shares = arith.layer_wall(spans, main_pid=1)
        assert shares == pytest.approx({"cli": 2.0, "task": 6.0, "build": 2.0})
        assert sum(shares.values()) == pytest.approx(10.0)

"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_suite(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "SPMV" in out
        assert "designs:" in out
        assert "gc" in out


class TestRun:
    def test_run_prints_report(self, capsys):
        rc = main(["run", "--benchmark", "sd1", "--design", "bs", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SD1" in out
        assert "IPC" in out
        assert "L1 miss rate" in out

    def test_l1_size_override(self, capsys):
        rc = main([
            "run", "--benchmark", "sd1", "--design", "bs",
            "--scale", "0.05", "--l1-size", "16384",
        ])
        assert rc == 0
        assert "16KB" in capsys.readouterr().out

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["run", "--benchmark", "NOPE", "--design", "bs"])

    def test_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            main(["run", "--benchmark", "SD1", "--design", "magic"])

    @pytest.mark.parametrize("scheduler", ["two-level", "throttle"])
    def test_rejects_unknown_scheduler(self, scheduler, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--benchmark", "SD1", "--scheduler", scheduler])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCompare:
    def test_compare_table(self, capsys):
        rc = main([
            "compare", "--benchmark", "sd1",
            "--designs", "bs,gc", "--scale", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "design comparison" in out
        assert "GC" in out
        assert "rel. energy" in out

    def test_compare_rejects_unknown_design(self, capsys):
        rc = main([
            "compare", "--benchmark", "sd1", "--designs", "bs,magic",
            "--scale", "0.05",
        ])
        assert rc == 2


class TestRunObservability:
    def test_timeline_csv_written(self, capsys, tmp_path):
        csv = tmp_path / "tl.csv"
        rc = main([
            "run", "--benchmark", "sd1", "--design", "bs",
            "--scale", "0.05", "--timeline-csv", str(csv),
        ])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "start_cycle,end_cycle,ipc,miss_rate,bypass_rate"
        assert len(lines) >= 2

    def test_trace_flag_writes_perfetto_json(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace_event_json

        out = tmp_path / "run.json"
        rc = main([
            "run", "--benchmark", "sd1", "--design", "gc",
            "--scale", "0.05", "--trace", str(out),
        ])
        assert rc == 0
        assert validate_trace_event_json(json.loads(out.read_text())) == []

    def test_trace_flag_jsonl_variant(self, capsys, tmp_path):
        import json

        out = tmp_path / "run.jsonl"
        rc = main([
            "run", "--benchmark", "sd1", "--design", "bs",
            "--scale", "0.05", "--trace", str(out),
        ])
        assert rc == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert {"kind", "cycle", "src", "seq"} <= set(first)

    def test_gcache_alias_accepted(self, capsys):
        rc = main([
            "run", "--benchmark", "sd1", "--design", "gcache", "--scale", "0.05",
        ])
        assert rc == 0


class TestTrace:
    def test_exports_victim_and_switch_events(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace_event_json

        out = tmp_path / "trace.json"
        rc = main([
            "trace", "--benchmark", "spmv", "--design", "gcache",
            "--scale", "0.05", "-o", str(out),
        ])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert validate_trace_event_json(blob) == []
        names = {e["name"] for e in blob["traceEvents"]}
        assert any(n.startswith("victim.") for n in names)
        assert any(n.startswith("switch.") for n in names)
        assert "events" in capsys.readouterr().out

    def test_kinds_filter(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        rc = main([
            "trace", "--benchmark", "spmv", "--design", "gc", "--scale", "0.05",
            "-o", str(out), "--kinds", "victim.set,switch.on",
        ])
        assert rc == 0
        blob = json.loads(out.read_text())
        names = {e["name"] for e in blob["traceEvents"] if e["ph"] != "M"}
        assert names <= {"victim.set", "switch.on"}

    def test_rejects_unknown_kind(self, capsys, tmp_path):
        rc = main([
            "trace", "--benchmark", "sd1", "--design", "gc", "--scale", "0.05",
            "-o", str(tmp_path / "t.json"), "--kinds", "nope.event",
        ])
        assert rc == 2


class TestProfile:
    def test_prints_convergence_report(self, capsys):
        rc = main([
            "profile", "--benchmark", "spmv", "--design", "gcache",
            "--scale", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "G-Cache convergence" in out
        assert "Per-set switch duty cycle" in out
        assert "metrics snapshot" in out
        assert "l1.loads" in out

    def test_from_trace_summarises_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        rc = main([
            "trace", "--benchmark", "sd1", "--design", "gc",
            "--scale", "0.05", "-o", str(trace),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main(["profile", "--from-trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Events by kind" in out
        assert "cache.hit" in out or "cache.miss" in out

    def test_from_trace_missing_file_exits_nonzero(self, capsys, tmp_path):
        rc = main(["profile", "--from-trace", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_from_trace_unparseable_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n{malformed\n")
        rc = main(["profile", "--from-trace", str(bad)])
        assert rc == 2
        assert "no parseable trace events" in capsys.readouterr().err

    def test_profile_without_inputs_exits_nonzero(self, capsys):
        rc = main(["profile"])
        assert rc == 2
        assert "--benchmark" in capsys.readouterr().err


class TestAnalyzeCLI:
    """`repro analyze` entry points; the heavy lifting is covered by
    tests/test_analysis_*.py — here we pin the exit-code contract."""

    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("analyze-cli")
        a, b = root / "a.json", root / "b.json"
        assert main([
            "campaign", "--benchmarks", "SD1", "--designs", "bs,gc",
            "--scale", "0.05", "--jobs", "1", "--no-cache",
            "--manifest", str(a),
        ]) == 0
        assert main([
            "campaign", "--benchmarks", "SD1", "--designs", "bs,gc",
            "--scale", "0.05", "--seed", "3", "--jobs", "1", "--no-cache",
            "--manifest", str(b),
        ]) == 0
        return a, b

    def test_compare_writes_reports(self, capsys, tmp_path, manifests):
        a, b = manifests
        md, html = tmp_path / "cmp.md", tmp_path / "cmp.html"
        rc = main(["analyze", "compare", str(a), str(b),
                   "--markdown", str(md), "--html", str(html)])
        assert rc == 0
        assert "Campaign comparison" in md.read_text()
        assert html.read_text().startswith("<!DOCTYPE html>")
        assert "verdicts:" in capsys.readouterr().out

    def test_compare_missing_manifest_exits_nonzero(self, capsys, tmp_path):
        rc = main(["analyze", "compare", str(tmp_path / "no.json"),
                   str(tmp_path / "pe.json")])
        assert rc == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_compare_unparseable_manifest_exits_nonzero(
        self, capsys, tmp_path, manifests
    ):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        rc = main(["analyze", "compare", str(manifests[0]), str(bad)])
        assert rc == 2
        assert "unparseable manifest" in capsys.readouterr().err

    def test_compare_non_manifest_json_exits_nonzero(self, capsys, tmp_path):
        not_manifest = tmp_path / "other.json"
        not_manifest.write_text('{"records": []}')
        rc = main(["analyze", "compare", str(not_manifest), str(not_manifest)])
        assert rc == 2
        assert "not a campaign manifest" in capsys.readouterr().err

    def test_ledger_append_check_trend(self, capsys, tmp_path, manifests):
        ledger = tmp_path / "led.jsonl"
        for _ in range(4):
            rc = main(["analyze", "ledger", str(ledger),
                       "--append-manifest", str(manifests[0]),
                       "--suite", "camp"])
            assert rc == 0
        rc = main(["analyze", "ledger", str(ledger), "--check",
                   "--suite", "camp"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK:" in out
        rc = main(["analyze", "ledger", str(ledger)])
        assert rc == 0
        assert "4 records" in capsys.readouterr().out

    def test_ledger_bad_input_exits_nonzero(self, capsys, tmp_path):
        rc = main(["analyze", "ledger", str(tmp_path / "led.jsonl"),
                   "--append-bench", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

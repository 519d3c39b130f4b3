"""Interrupt / journal / resume tests for the campaign engine and CLI.

Satellite contract: a campaign interrupted mid-flight (Ctrl-C) must
leave a flushed journal plus a partial manifest marked
``"interrupted": true``, and a ``--resume`` rerun must execute exactly
the remaining tasks while serving the journaled ones from the cache —
with final results bit-identical to an uninterrupted run.

The deterministic stand-in for Ctrl-C is ``FaultPlan.interrupt_after``:
the engine raises :class:`KeyboardInterrupt` from the completion path
after N executed tasks, which exercises the same ``run()`` interrupt
handler a real SIGINT reaches.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.runner import CampaignEngine, CampaignJournal, ResultCache, Task

BENCHES = ("SD1", "SPMV", "BFS", "KMN")


def tasks():
    return [
        Task(kind="simulate", benchmark=b, design="bs", scale=0.05,
             fidelity="functional")
        for b in BENCHES
    ]


def l1_signature(results):
    return [r.l1.snapshot() for r in results]


# ----------------------------------------------------------------------
# CampaignJournal
# ----------------------------------------------------------------------
class TestCampaignJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.append({"key": "a" * 64, "label": "t1", "seconds": 0.1})
            journal.append({"key": "b" * 64, "label": "t2", "seconds": 0.2})
        loaded = CampaignJournal(path).load()
        assert set(loaded) == {"a" * 64, "b" * 64}
        assert loaded["a" * 64]["label"] == "t1"

    def test_append_dedupes_by_key(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.append({"key": "a" * 64})
            journal.append({"key": "a" * 64})
        assert len(path.read_text().splitlines()) == 1

    def test_load_tolerates_torn_tail(self, tmp_path):
        """A crash mid-write leaves a torn last line; every record that
        hit the disk whole must still load."""
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.append({"key": "a" * 64})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "bbbb')  # torn: no newline, no close
        loaded = CampaignJournal(path).load()
        assert set(loaded) == {"a" * 64}

    def test_load_missing_file_is_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "nope.jsonl").load() == {}

    def test_seen_suppresses_duplicate_lines_on_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.append({"key": "a" * 64})
        resumed = CampaignJournal(path)
        resumed.seen(resumed.load())
        resumed.append({"key": "a" * 64})  # already journaled: no-op
        resumed.append({"key": "c" * 64})
        resumed.close()
        assert len(path.read_text().splitlines()) == 2


# ----------------------------------------------------------------------
# Engine: interrupt -> journal + partial manifest -> resume
# ----------------------------------------------------------------------
class TestInterruptAndResume:
    @pytest.fixture()
    def baseline(self):
        return CampaignEngine(jobs=1).run(tasks())

    def test_interrupt_flushes_journal_and_partial_manifest(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        manifest = tmp_path / "manifest.json"
        engine = CampaignEngine(
            jobs=1,
            cache=ResultCache(tmp_path / "cache"),
            journal=journal,
            manifest_path=manifest,
            faults=FaultPlan(seed=0, interrupt_after=2),
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run(tasks())

        assert engine.interrupted is True
        # Journal: exactly the two completed tasks, already on disk.
        records = CampaignJournal(journal).load()
        assert len(records) == 2
        assert all(rec["attempts"] >= 1 for rec in records.values())
        # Partial manifest: flushed and marked.
        data = json.loads(manifest.read_text())
        assert data["interrupted"] is True
        assert len(data["tasks"]) == 2
        assert data["resilience"]["journal"] is not None

    def test_resume_runs_exactly_the_remainder(self, tmp_path, baseline):
        journal = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        interrupted = CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir), journal=journal,
            faults=FaultPlan(seed=0, interrupt_after=2),
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.run(tasks())
        done_keys = set(CampaignJournal(journal).load())

        resumed = CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir), journal=journal, resume=True,
        )
        out = resumed.run(tasks())
        # Exactly the two journaled tasks are served without execution;
        # exactly the two missing ones run.
        assert resumed.counters.resumed == 2
        assert resumed.counters.executed == 2
        assert resumed.counters.cache_hits == 2
        assert l1_signature(out) == l1_signature(baseline)
        # The journal now covers the full campaign, without duplicates.
        final = CampaignJournal(journal).load()
        assert len(final) == 4 and done_keys <= set(final)
        assert len(journal.read_text().splitlines()) == 4

    def test_resume_recomputes_evicted_cache_entries(self, tmp_path, baseline):
        """A journaled task whose cache entry is gone (evicted or
        quarantined) is transparently re-executed, not an error."""
        journal = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        interrupted = CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir), journal=journal,
            faults=FaultPlan(seed=0, interrupt_after=2),
        )
        with pytest.raises(KeyboardInterrupt):
            interrupted.run(tasks())
        victim = next(iter(CampaignJournal(journal).load()))
        ResultCache(cache_dir).path_for(victim).unlink()

        resumed = CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir), journal=journal, resume=True,
        )
        out = resumed.run(tasks())
        assert l1_signature(out) == l1_signature(baseline)
        assert resumed.counters.executed == 3
        assert resumed.counters.resumed == 1

    def test_completed_resume_executes_nothing(self, tmp_path, baseline):
        journal = tmp_path / "journal.jsonl"
        cache_dir = tmp_path / "cache"
        CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir), journal=journal
        ).run(tasks())
        resumed = CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir), journal=journal, resume=True,
        )
        out = resumed.run(tasks())
        assert resumed.counters.executed == 0
        assert resumed.counters.resumed == 4
        assert l1_signature(out) == l1_signature(baseline)

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError):
            CampaignEngine(jobs=1, resume=True)

    def test_manifest_reports_resilience_and_metrics(self, tmp_path):
        engine = CampaignEngine(
            jobs=1, cache=ResultCache(tmp_path / "cache"),
            journal=tmp_path / "journal.jsonl", retries=3, keep_going=True,
        )
        engine.run(tasks()[:1])
        data = engine.manifest()
        assert data["interrupted"] is False
        res = data["resilience"]
        assert res["retries_budget"] == 3
        assert res["keep_going"] is True
        assert res["faults_armed"] is False
        assert data["metrics"]["campaign.executed"] == 1
        assert data["tasks"][0]["attempts"] == 1
        assert data["tasks"][0]["failed"] is False


# ----------------------------------------------------------------------
# CLI: python -m repro campaign ... --resume
# ----------------------------------------------------------------------
class TestCampaignCliResume:
    ARGS = [
        "campaign", "--benchmarks", "SD1,SPMV", "--designs", "bs,gc",
        "--scale", "0.05", "--jobs", "1",
    ]

    def test_interrupted_campaign_resumes_from_cli(
        self, tmp_path, capsys, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        manifest = tmp_path / "manifest.json"
        argv = self.ARGS + ["--cache-dir", str(cache_dir),
                            "--manifest", str(manifest)]

        monkeypatch.setenv("REPRO_FAULTS", '{"seed": 0, "interrupt_after": 2}')
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 130
        assert "rerun with --resume" in captured.err
        assert json.loads(manifest.read_text())["interrupted"] is True
        journal = cache_dir / "journal.jsonl"
        assert len(journal.read_text().splitlines()) == 2

        monkeypatch.delenv("REPRO_FAULTS")
        rc = main(argv + ["--resume"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "[resume] 2 tasks already complete" in captured.out
        assert json.loads(manifest.read_text())["interrupted"] is False
        assert len(journal.read_text().splitlines()) == 4

    def test_fresh_campaign_truncates_stale_journal(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = self.ARGS + ["--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        # Second run without --resume: journal restarts from scratch and
        # the campaign is served entirely from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[resume]" not in out
        journal = cache_dir / "journal.jsonl"
        assert len(journal.read_text().splitlines()) == 4

    def test_resume_without_journal_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--no-cache", "--resume"])

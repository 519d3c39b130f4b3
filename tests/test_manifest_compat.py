"""Manifests and journals written before the service was retired still work.

Three compatibility promises outlive the removed cross-engine
coalescing:

* every manifest task record still carries each key the end-to-end
  benchmark (``perfbench/run.py``, ``perfbench/check.py``) indexes,
  ``coalesced`` included, now always false;
* an older manifest, with a top-level ``cancelled`` flag and a
  ``coalesced`` campaign counter, still loads through
  :mod:`repro.analysis` and diffs cleanly against a new one;
* a journal whose lines carry the old ``"coalesced": false`` key still
  resumes.
"""

from __future__ import annotations

import json

from repro.analysis import compare_manifests, parse_manifest
from repro.runner import CampaignEngine, CampaignJournal, ResultCache, Task

SCALE = 0.02
DESIGNS = ("bs", "gc")

#: The task-record keys the end-to-end benchmark indexes directly.
BENCHMARK_KEYS = ("label", "key", "seconds", "cached", "coalesced", "failed",
                  "fidelity", "benchmark", "design")

#: A manifest as the engine wrote it while it still coalesced across
#: engines: SPMV x bs,gc at timing fidelity, scale 0.02, seed 0, with
#: each task's metrics cut down to four counters.
OLD_MANIFEST = {
    "schema_version": 2,
    "git_commit": "140463e5d9b9fbb2afa98854414dd9d353f75cf2",
    "salt": "repro-1.1.0-schema1",
    "jobs": 1,
    "generated_at": "2026-10-18T07:26:02+0000",
    "interrupted": False,
    "cancelled": False,
    "cache": {"enabled": False},
    "counters": {
        "tasks": 2, "unique_tasks": 2, "cache_hits": 0, "cache_misses": 2,
        "executed": 2, "hit_rate": 0.0, "task_seconds": 1.012873,
        "elapsed_seconds": 1.020931, "retries": 0, "timeouts": 0,
        "pool_rebuilds": 0, "failed": 0, "resumed": 0, "coalesced": 0,
    },
    "resilience": {
        "retries_budget": 0, "task_timeout": None, "keep_going": False,
        "resume": False, "journal": None, "faults_armed": False,
        "failed_tasks": [],
    },
    "metrics": {
        "campaign.cache.hits": 0, "campaign.cache.misses": 2,
        "campaign.coalesced": 0, "campaign.executed": 2,
        "campaign.failed": 0, "campaign.interrupted": 0,
        "campaign.pool_rebuilds": 0, "campaign.resumed": 0,
        "campaign.retries": 0, "campaign.tasks": 2,
        "campaign.timeouts": 0, "campaign.unique_tasks": 2,
    },
    "tasks": [
        {
            "label": "simulate:SPMV/bs", "kind": "simulate",
            "benchmark": "SPMV", "design": "bs",
            "key": "1c3b7636986f12310ea0de1f017da84338a82fd5a8321183827c749f292c33b1",
            "cached": False, "coalesced": False, "seconds": 0.536182,
            "attempts": 1, "failed": False, "fidelity": "timing",
            "metrics": {
                "core.cycles": 13788, "core.instructions": 15360,
                "l1.miss_rate": 0.7147249368617546,
                "l2.miss_rate": 0.5779616044950835,
            },
        },
        {
            "label": "simulate:SPMV/gc", "kind": "simulate",
            "benchmark": "SPMV", "design": "gc",
            "key": "2eb209187d42f151d38e9673e476bc9ac2fb9cccda9f8cdcfe2ae62b63d903c8",
            "cached": False, "coalesced": False, "seconds": 0.476691,
            "attempts": 1, "failed": False, "fidelity": "timing",
            "metrics": {
                "core.cycles": 13727, "core.instructions": 15360,
                "l1.miss_rate": 0.702097287800593,
                "l2.miss_rate": 0.5888994910941476,
            },
        },
    ],
}


def _tasks(fidelity="timing"):
    return [Task(kind="simulate", benchmark="SPMV", design=d, scale=SCALE,
                 fidelity=fidelity) for d in DESIGNS]


class TestManifestCompatibility:
    def test_task_records_carry_every_benchmark_key(self):
        engine = CampaignEngine(jobs=1)
        engine.run(_tasks())
        manifest = json.loads(json.dumps(engine.manifest()))
        assert "cancelled" not in manifest
        assert "coalesced" not in manifest["counters"]
        assert len(manifest["tasks"]) == len(DESIGNS)
        for rec in manifest["tasks"]:
            missing = [k for k in BENCHMARK_KEYS if k not in rec]
            assert not missing, (rec["label"], missing)
            assert rec["coalesced"] is False

    def test_old_manifest_loads_and_diffs_cleanly(self):
        old = parse_manifest(json.loads(json.dumps(OLD_MANIFEST)))
        assert [t.label for t in old.tasks] == ["simulate:SPMV/bs",
                                                "simulate:SPMV/gc"]
        assert old.counters["coalesced"] == 0

        # Cache keys derive from the task exactly as before, so caches
        # filled before the change still hit.
        for task, rec in zip(_tasks(), OLD_MANIFEST["tasks"]):
            assert task.key(OLD_MANIFEST["salt"]) == rec["key"]

        engine = CampaignEngine(jobs=1)
        engine.run(_tasks())
        new = parse_manifest(json.loads(json.dumps(engine.manifest())))
        diff = compare_manifests(old, new)

        assert not diff.failed_a and not diff.failed_b
        assert [lc.status for lc in diff.labels] == ["matched", "matched"]
        verdicts = {d.name: d.verdict for lc in diff.labels for d in lc.deltas}
        for name in ("core.cycles", "core.instructions", "l1.miss_rate",
                     "l2.miss_rate", "ipc"):
            assert verdicts[name] == "unchanged", name
        # Counters the old record did not keep are new; nothing else moved.
        assert set(verdicts.values()) == {"unchanged", "new"}

    def test_journal_with_old_coalesced_key_resumes(self, tmp_path):
        tasks = _tasks("functional")
        cache = ResultCache(tmp_path / "cache")
        first = CampaignEngine(jobs=1, cache=cache)
        expected = first.run(tasks[:1])
        key = tasks[0].key(first.salt)

        journal = tmp_path / "journal.jsonl"
        journal.write_text(json.dumps({
            "attempts": 1, "cached": False, "coalesced": False,
            "fidelity": "functional", "key": key,
            "label": tasks[0].label, "seconds": 0.05,
        }, sort_keys=True) + "\n")

        engine = CampaignEngine(jobs=1, cache=ResultCache(tmp_path / "cache"),
                                journal=journal, resume=True)
        results = engine.run(tasks)
        assert engine.counters.resumed == 1
        assert engine.counters.executed == 1
        assert results[0].l1.snapshot() == expected[0].l1.snapshot()

        records = CampaignJournal(journal).load()
        assert list(records) == [key, tasks[1].key(engine.salt)]
        assert "coalesced" not in records[tasks[1].key(engine.salt)]

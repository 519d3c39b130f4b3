"""Unit tests for the persistent result cache and its key scheme.

Covers the invariants the campaign layer depends on:

* keys are stable across process restarts (no ``hash()`` / seed leakage),
* any change to a ``GPUConfig`` field or design parameter changes the key,
* corrupted or truncated entry files degrade to misses, never crashes,
* ``--no-cache`` (a cache-less engine) performs no reads and no writes.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.runner import (
    MISS,
    CampaignEngine,
    ResultCache,
    Task,
    default_salt,
    stable_hash,
)
from repro.sim.config import GPUConfig

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def make_task(**overrides) -> Task:
    base = dict(
        kind="simulate",
        benchmark="SPMV",
        design="gc",
        scale=0.25,
        seed=3,
        config=GPUConfig(l1_size=16 * 1024),
    )
    base.update(overrides)
    return Task(**base)


class TestStableHash:
    def test_key_order_independent(self):
        assert stable_hash({"a": 1, "b": [1, 2]}) == stable_hash({"b": [1, 2], "a": 1})

    def test_tuples_hash_like_lists(self):
        assert stable_hash({"x": (1, 2)}) == stable_hash({"x": [1, 2]})

    def test_dataclasses_flatten(self):
        assert stable_hash({"c": GPUConfig()}) == stable_hash({"c": GPUConfig()})


class TestKeyStability:
    def test_deterministic_in_process(self):
        assert make_task().key("salt") == make_task().key("salt")

    def test_stable_across_process_restarts(self):
        """The key must survive a fresh interpreter with a different
        ``PYTHONHASHSEED`` — this is what makes the on-disk cache valid
        across runs at all."""
        code = (
            "from repro.runner import Task\n"
            "from repro.sim.config import GPUConfig\n"
            "t = Task(kind='simulate', benchmark='SPMV', design='gc',\n"
            "         scale=0.25, seed=3, config=GPUConfig(l1_size=16 * 1024))\n"
            "print(t.key('salt'), end='')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT)
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout == make_task().key("salt")

    def test_salt_changes_key(self):
        assert make_task().key("a") != make_task().key("b")

    def test_default_salt_tracks_version(self):
        assert repro.__version__ in default_salt()


class TestKeyInvalidation:
    SALT = "s"

    def test_every_config_field_matters(self):
        """Changing any single GPUConfig field must produce a new key."""
        base_key = make_task().key(self.SALT)
        tweaked = {
            "num_cores": 8,
            "l1_size": 64 * 1024,
            "l1_ways": 8,
            "l2_hit_latency": 100,
            "warp_scheduler": "gto",
            "dram_row_window": 12,
            "l2_write_validate": False,
        }
        for field_name, value in tweaked.items():
            cfg = dataclasses.replace(
                GPUConfig(l1_size=16 * 1024), **{field_name: value}
            )
            assert make_task(config=cfg).key(self.SALT) != base_key, field_name

    def test_nested_dram_timing_matters(self):
        from repro.dram.timing import GDDR5Timing

        cfg = dataclasses.replace(
            GPUConfig(l1_size=16 * 1024), dram_timing=GDDR5Timing(tCL=13)
        )
        assert make_task(config=cfg).key(self.SALT) != make_task().key(self.SALT)

    def test_design_parameters_matter(self):
        base = make_task().key(self.SALT)
        assert make_task(design="bs").key(self.SALT) != base
        assert make_task(design="spdp-b", pd=8).key(self.SALT) != base
        assert (
            make_task(design="spdp-b", pd=8).key(self.SALT)
            != make_task(design="spdp-b", pd=16).key(self.SALT)
        )

    def test_trace_parameters_matter(self):
        base = make_task().key(self.SALT)
        assert make_task(seed=4).key(self.SALT) != base
        assert make_task(scale=0.5).key(self.SALT) != base
        assert make_task(benchmark="KMN").key(self.SALT) != base

    def test_kind_matters(self):
        sim = Task(kind="simulate", benchmark="SPMV", design="bs")
        sweep = Task(kind="pd-sweep", benchmark="SPMV", design="bs")
        assert sim.key(self.SALT) != sweep.key(self.SALT)

    def test_trace_alone_is_no_identity(self, tiny_config):
        """A trace is an execution shortcut, never a key: a task built
        from one alone is refused, so two ad-hoc traces cannot share a
        cache entry."""
        from repro.trace.trace import CTATrace, KernelTrace, OP_LOAD

        program = [(OP_LOAD, (0,)), (OP_LOAD, (128,))]
        k = KernelTrace(name="unit", ctas=[CTATrace(warps=[program])])
        with pytest.raises(ValueError, match="benchmark name or a scenario"):
            Task(kind="simulate", trace=k, config=tiny_config)


class TestCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert cache.hits == 1 and cache.puts == 1

    def test_missing_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" * 32) is MISS
        assert cache.misses == 1

    @pytest.mark.parametrize(
        "corruption",
        [
            lambda blob: b"garbage",                 # wrong magic
            lambda blob: blob[: len(blob) // 2],     # truncated mid-body
            lambda blob: blob[:8],                   # truncated header
            lambda blob: blob[:-4] + b"\x00\x00\x00\x00",  # bit-rot in body
            lambda blob: b"",                        # empty file
        ],
    )
    def test_corrupted_entries_are_misses(self, tmp_path, corruption):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, [1, 2, 3])
        path = cache.path_for(key)
        rotten = corruption(path.read_bytes())
        path.write_bytes(rotten)
        assert cache.get(key) is MISS
        assert cache.corrupt == 1
        # The rotten bytes are evidence: moved to quarantine/, counted,
        # never silently unlinked.
        assert not path.exists(), "corrupt entry should leave its slot"
        assert cache.quarantined == 1
        assert cache.quarantine_path_for(key).read_bytes() == rotten
        # The slot is reusable afterwards.
        cache.put(key, [4])
        assert cache.get(key) == [4]

    def test_quarantine_is_outside_the_entry_namespace(self, tmp_path):
        """Quarantined files never shadow live entries: len() ignores
        them and invalidate() never counts them as removed entries —
        though it does sweep them, so --invalidate clears the full
        on-disk footprint (stale evidence included)."""
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, [1])
        cache.path_for(key).write_bytes(b"rot")
        assert cache.get(key) is MISS
        assert len(cache) == 0
        assert cache.counter_snapshot()["quarantined"] == 1
        assert cache.quarantine_path_for(key).exists()
        assert cache.invalidate() == 0  # no live entries removed...
        assert not cache.quarantine_path_for(key).exists()  # ...rot swept

    def test_corrupt_entry_reexecutes(self, tmp_path):
        """End-to-end: a damaged file means the engine quarantines the
        entry and recomputes — never crashes, never serves rot."""
        task = Task(kind="simulate", benchmark="SD1", design="bs", scale=0.05,
                    fidelity="functional")
        engine = CampaignEngine(jobs=1, cache=ResultCache(tmp_path))
        first = engine.run_one(task)
        key = task.key(engine.salt)
        path = engine.cache.path_for(key)
        path.write_bytes(b"not a cache entry")
        second = engine.run_one(task)
        assert second.l1.snapshot() == first.l1.snapshot()
        assert engine.counters.cache_misses == 2  # recomputed, not crashed
        assert engine.cache.quarantined == 1
        assert engine.cache.quarantine_path_for(key).read_bytes() == b"not a cache entry"
        assert engine.metrics_snapshot()["campaign.cache.quarantined"] == 1
        # The recompute rewrote a clean entry in the original slot.
        third = CampaignEngine(jobs=1, cache=ResultCache(tmp_path)).run_one(task)
        assert third.l1.snapshot() == first.l1.snapshot()

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(5):
            cache.put(f"{i:02d}" + "0" * 62, list(range(i)))
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []

    def test_invalidate_single_and_all(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = ["aa" * 32, "bb" * 32, "cc" * 32]
        for key in keys:
            cache.put(key, key)
        assert len(cache) == 3
        assert cache.invalidate(keys[0]) == 1
        assert cache.get(keys[0]) is MISS
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_readonly_serves_but_never_writes(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.put("dd" * 32, 42)
        ro = ResultCache(tmp_path, readonly=True)
        assert ro.get("dd" * 32) == 42
        ro.put("ee" * 32, 43)
        assert writer.get("ee" * 32) is MISS


class TestNoCachePath:
    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResultCache(None)
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) is MISS
        assert not any(tmp_path.iterdir())

    def test_engine_without_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        engine = CampaignEngine(jobs=1, cache=None)
        engine.run_one(
            Task(kind="simulate", benchmark="SD1", design="bs", scale=0.05,
                 fidelity="functional")
        )
        assert not any(tmp_path.iterdir())
        assert engine.counters.cache_misses == 1

    def test_no_cache_bypasses_reads_too(self, tmp_path):
        """--no-cache must not serve stale hits even when entries exist."""
        task = Task(kind="simulate", benchmark="SD1", design="bs", scale=0.05,
                    fidelity="functional")
        warm = CampaignEngine(jobs=1, cache=ResultCache(tmp_path))
        warm.run_one(task)
        cold = CampaignEngine(jobs=1, cache=None)
        cold.run_one(task)
        assert cold.counters.cache_hits == 0
        assert cold.counters.cache_misses == 1


class TestEngineDedup:
    def test_duplicate_tasks_execute_once(self):
        task = Task(kind="simulate", benchmark="SD1", design="bs", scale=0.05,
                    fidelity="functional")
        engine = CampaignEngine(jobs=1, cache=None)
        a, b = engine.run([task, task])
        assert a is b
        assert engine.counters.executed == 1
        assert engine.counters.tasks == 2


class TestManifestMetrics:
    def test_simulate_tasks_embed_metrics(self, tiny_config, tmp_path):
        engine = CampaignEngine(jobs=1, cache=ResultCache(tmp_path / "cache"))
        task = Task(kind="simulate", benchmark="SD1", design="bs", scale=0.05,
                    config=tiny_config)
        engine.run([task])
        manifest = engine.manifest()
        (entry,) = manifest["tasks"]
        assert entry["cached"] is False
        assert entry["metrics"]["l1.loads"] > 0
        assert "core.instructions" in entry["metrics"]

    def test_cache_hit_recovers_metrics_from_payload(self, tiny_config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = Task(kind="simulate", benchmark="SD1", design="bs", scale=0.05,
                    config=tiny_config)
        CampaignEngine(jobs=1, cache=cache).run([task])
        engine = CampaignEngine(jobs=1, cache=cache)
        engine.run([task])
        (entry,) = engine.manifest()["tasks"]
        assert entry["cached"] is True
        assert entry["metrics"]["l1.loads"] > 0

    def test_metricless_payload_yields_none(self):
        engine = CampaignEngine(jobs=1)
        task = Task(kind="pd-sweep", benchmark="SD1", scale=0.05,
                    pd_candidates=(1, 2))
        engine.run([task])
        (entry,) = engine.manifest()["tasks"]
        assert entry["metrics"] is None

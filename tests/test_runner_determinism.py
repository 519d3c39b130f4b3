"""Golden determinism tests for the campaign engine.

The engine's contract is that parallel execution can never change
reproduced numbers: ``jobs=4`` must produce *identical* ``RunResult``
counters to ``jobs=1``, and serving a result from the persistent cache
must be byte-identical to computing it.  These tests lock that in for a
3-benchmark x 3-design slice of the paper campaign.
"""

from __future__ import annotations

import functools
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.common import EvalSuite
from repro.faults import FaultPlan
from repro.runner import CampaignEngine, ResultCache, Task

SLICE_BENCHMARKS = ("SPMV", "BFS", "SD1")
SLICE_DESIGNS = ("bs", "bs-s", "gc")
SCALE = 0.05
SEED = 0


def signature(result):
    """Every counter a RunResult carries, as plain comparable data."""
    return {
        "benchmark": result.benchmark,
        "design": result.design,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": result.ipc,
        "l1": result.l1.snapshot(),
        "l1_reuse": result.l1.reuse.as_dict(),
        "l2": result.l2.snapshot(),
        "l2_reuse": result.l2.reuse.as_dict(),
        "avg_load_latency": result.avg_load_latency,
        "dram_requests": result.dram_requests,
        "dram_row_hit_rate": result.dram_row_hit_rate,
    }


def run_slice(jobs, cache_dir=None):
    suite = EvalSuite(
        benchmarks=SLICE_BENCHMARKS,
        scale=SCALE,
        seed=SEED,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return suite, suite.run_matrix(SLICE_DESIGNS)


class TestParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_slice(jobs=1)[1]

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_slice(jobs=4)[1]

    def test_same_grid(self, serial, parallel):
        assert set(serial) == set(parallel) == {
            (b, d) for b in SLICE_BENCHMARKS for d in SLICE_DESIGNS
        }

    def test_identical_counters(self, serial, parallel):
        for point in serial:
            assert signature(parallel[point]) == signature(serial[point]), point

    def test_parallel_engine_really_forked(self):
        """Guard the fixture: jobs=4 must take the pool path for batches."""
        engine = CampaignEngine(jobs=4)
        assert engine.jobs == 4


class TestCachedRunsAreByteIdentical:
    def test_consecutive_cached_runs(self, tmp_path):
        cache_dir = tmp_path / "cache"

        suite1, first = run_slice(jobs=2, cache_dir=str(cache_dir))
        keys = {t.key for t in suite1.engine.counters.timings}
        assert keys, "first run recorded no tasks"
        blobs_after_first = {
            key: suite1.engine.cache.get_bytes(key) for key in keys
        }
        assert all(blob is not None for blob in blobs_after_first.values())

        suite2, second = run_slice(jobs=2, cache_dir=str(cache_dir))
        # Every task of the second run is served from the cache...
        assert suite2.engine.counters.cache_misses == 0
        assert suite2.engine.counters.cache_hits == len(
            suite2.engine.counters.timings
        )
        # ...from byte-identical entries...
        blobs_after_second = {
            key: suite2.engine.cache.get_bytes(key) for key in keys
        }
        assert blobs_after_second == blobs_after_first
        # ...decoding to identical counters.
        for point in first:
            assert signature(second[point]) == signature(first[point]), point

    def test_cached_equals_uncached(self, tmp_path):
        """A cache round-trip must not perturb any counter."""
        _, uncached = run_slice(jobs=1)
        _, cached = run_slice(jobs=1, cache_dir=str(tmp_path / "cache"))
        for point in uncached:
            assert signature(cached[point]) == signature(uncached[point]), point


class TestSingleTaskPath:
    def test_run_one_matches_batch(self, tmp_path):
        """The inline single-task shortcut returns the same payload as a
        pooled batch for the same key."""
        task = Task(kind="simulate", benchmark="SPMV", design="gc", scale=SCALE)
        inline = CampaignEngine(jobs=1).run_one(task)
        pooled = CampaignEngine(jobs=2).run(
            [task, Task(kind="simulate", benchmark="SD1", design="bs", scale=SCALE)]
        )[0]
        assert signature(inline) == signature(pooled)


# ----------------------------------------------------------------------
# Chaos determinism: faults never change reproduced numbers
# ----------------------------------------------------------------------
CHAOS_BENCHMARKS = ("SD1", "SPMV")


def chaos_tasks(benchmarks=CHAOS_BENCHMARKS):
    return [
        Task(kind="simulate", benchmark=b, design="bs", scale=SCALE,
             fidelity="functional")
        for b in benchmarks
    ]


def replay_signature(results):
    return [
        {"l1": r.l1.snapshot(), "reuse": r.l1.reuse.as_dict()} for r in results
    ]


@functools.lru_cache(maxsize=1)
def fault_free_signature():
    return tuple(
        map(repr, replay_signature(CampaignEngine(jobs=1).run(chaos_tasks())))
    )


class TestChaosDeterminism:
    """Satellite: random seeded fault schedules over a small campaign
    always complete, with result counters bit-identical to the
    fault-free run.

    Completion is guaranteed by construction — ``max_faults_per_task``
    (2) is below the retry budget (4) — and Hypothesis hunts for any
    schedule where a recovery path (retry, serial crash surface, hang,
    backoff, cache corruption) perturbs a counter.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        crash=st.floats(min_value=0.0, max_value=1.0),
        hang=st.floats(min_value=0.0, max_value=1.0),
        transient=st.floats(min_value=0.0, max_value=1.0),
        corrupt=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_schedule_converges_to_fault_free(
        self, seed, crash, hang, transient, corrupt
    ):
        # Rates are scaled onto the cumulative ladder (sum <= 1).
        total = max(crash + hang + transient, 1.0)
        plan = FaultPlan(
            seed=seed,
            crash_rate=crash / total,
            hang_rate=hang / total,
            transient_rate=transient / total,
            corrupt_rate=corrupt,
            hang_seconds=0.01,
            max_faults_per_task=2,
        )
        with tempfile.TemporaryDirectory() as tmp:
            engine = CampaignEngine(
                jobs=1,
                cache=ResultCache(Path(tmp) / "cache"),
                retries=4,
                backoff_base=0.0,
                faults=plan,
            )
            out = engine.run(chaos_tasks())
        assert tuple(map(repr, replay_signature(out))) == fault_free_signature()
        assert engine.counters.failed == 0
        assert len(out) == len(CHAOS_BENCHMARKS)

    def test_builtin_chaos_schedule_pool(self):
        """Acceptance criterion: under the built-in chaos schedule (every
        fault kind at >= 10%, seed-pinned) a small pooled campaign
        completes with counters bit-identical to the fault-free run."""
        tasks = [
            Task(kind="simulate", benchmark=b, design=d, scale=SCALE)
            for b, d in (("SD1", "bs"), ("SPMV", "gc"), ("BFS", "bs-s"))
        ]
        baseline = CampaignEngine(jobs=2).run(tasks)

        engine = CampaignEngine(jobs=2, retries=6, backoff_base=0.0,
                                task_timeout=30.0)
        keys = [t.key(engine.salt) for t in tasks]
        # First pinned seed whose schedule actually faults some first
        # attempt — deterministic (pure function of the task keys), and
        # robust to future key-scheme changes.
        seed = next(
            s for s in range(64)
            if any(
                FaultPlan.chaos(seed=s, rate=0.25).decide(k, 0) for k in keys
            )
        )
        engine.faults = FaultPlan.chaos(seed=seed, rate=0.25, hang_seconds=0.05)
        out = engine.run(tasks)

        assert [signature(r) for r in out] == [signature(r) for r in baseline]
        assert engine.counters.failed == 0
        assert engine.counters.retries >= 1

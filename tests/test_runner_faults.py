"""Unit and integration tests for the fault injector and engine recovery.

Covers the contracts the chaos layer builds on:

* fault decisions are pure functions of the plan (stable across calls
  and processes) and honor the per-task fault cap,
* a transiently failing task retries with bounded, deterministic
  backoff and converges to the fault-free payload,
* a task that exhausts its retry budget surfaces a
  :class:`CampaignTaskError` naming the task and carrying the full
  attempt history — never a bare exception out of the pool,
* ``keep_going`` records the failure, fills the payload slot with
  ``FAILED`` and completes the rest of the campaign,
* pool-mode recovery: worker crashes (``os._exit``) rebuild the pool;
  hung workers are reclaimed by ``task_timeout``; results stay
  bit-identical to fault-free runs throughout,
* injected cache corruption is detected by checksum, quarantined,
  counted and transparently recomputed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.faults import (
    FaultPlan,
    HangFault,
    TransientFault,
    WorkerCrashFault,
    corrupt_file,
    inject,
)
from repro.runner import (
    FAILED,
    CampaignEngine,
    CampaignTaskError,
    ResultCache,
    Task,
)

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def replay_task(benchmark: str = "SD1") -> Task:
    return Task(kind="simulate", benchmark=benchmark, design="bs", scale=0.05,
                fidelity="functional")


def l1_signature(results):
    return [r.l1.snapshot() for r in results]


# ----------------------------------------------------------------------
# FaultPlan decisions
# ----------------------------------------------------------------------
class TestFaultPlanDecisions:
    def test_no_rates_no_faults(self):
        plan = FaultPlan(seed=1)
        assert all(plan.decide("k" * 64, a) is None for a in range(20))

    def test_decisions_are_stable(self):
        plan = FaultPlan(seed=9, crash_rate=0.2, hang_rate=0.2,
                         transient_rate=0.2)
        first = [plan.decide("ab" * 32, a) for a in range(50)]
        second = [plan.decide("ab" * 32, a) for a in range(50)]
        assert first == second

    def test_decisions_stable_across_processes(self):
        """Workers must reach the same verdicts as the parent."""
        plan = FaultPlan(seed=9, crash_rate=0.3, transient_rate=0.3)
        code = (
            "from repro.faults import FaultPlan\n"
            "plan = FaultPlan(seed=9, crash_rate=0.3, transient_rate=0.3)\n"
            "print([plan.decide('cd' * 32, a) for a in range(20)], end='')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT)
        env["PYTHONHASHSEED"] = "999"
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env, check=True)
        assert out.stdout == str([plan.decide("cd" * 32, a) for a in range(20)])

    def test_rate_one_always_fires(self):
        plan = FaultPlan(seed=0, transient_rate=1.0, max_faults_per_task=10 ** 6)
        assert all(
            plan.decide("ef" * 32, a) == "transient" for a in range(100)
        )

    def test_fault_cap_bounds_injections(self):
        """After max_faults_per_task firings, every attempt is clean —
        the property that guarantees chaos campaigns terminate."""
        plan = FaultPlan(seed=0, transient_rate=1.0, max_faults_per_task=3)
        decisions = [plan.decide("aa" * 32, a) for a in range(50)]
        assert decisions[:3] == ["transient"] * 3
        assert decisions[3:] == [None] * 47

    def test_at_most_one_kind_per_attempt(self):
        plan = FaultPlan(seed=4, crash_rate=0.4, hang_rate=0.4,
                         transient_rate=0.2, max_faults_per_task=10 ** 6)
        kinds = {plan.decide("bb" * 32, a) for a in range(200)}
        assert kinds <= {None, "crash", "hang", "transient"}

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_faults_per_task=-1)

    def test_corrupt_decision_keyed_per_task(self):
        plan = FaultPlan(seed=2, corrupt_rate=0.5)
        verdicts = [plan.decide_corrupt(f"{i:064d}") for i in range(100)]
        assert any(verdicts) and not all(verdicts)
        assert verdicts == [plan.decide_corrupt(f"{i:064d}") for i in range(100)]

    def test_chaos_schedule_arms_every_kind(self):
        plan = FaultPlan.chaos(seed=1, rate=0.25)
        assert plan.crash_rate == plan.hang_rate == 0.25
        assert plan.transient_rate == plan.corrupt_rate == 0.25


class TestFaultPlanEnv:
    def test_absent_env_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None

    def test_env_round_trip(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULTS", '{"seed": 7, "transient_rate": 0.5}'
        )
        plan = FaultPlan.from_env()
        assert plan.seed == 7 and plan.transient_rate == 0.5

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "not json")
        with pytest.raises(ValueError):
            FaultPlan.from_env()
        monkeypatch.setenv("REPRO_FAULTS", '{"bogus_field": 1}')
        with pytest.raises(ValueError):
            FaultPlan.from_env()


class TestInject:
    def test_clean_attempt_is_noop(self):
        inject(None, "aa" * 32, 0)
        inject(FaultPlan(seed=0), "aa" * 32, 0)

    def test_transient_raises(self):
        plan = FaultPlan(seed=0, transient_rate=1.0)
        with pytest.raises(TransientFault):
            inject(plan, "aa" * 32, 0)

    def test_crash_in_process_degrades_to_exception(self):
        """In the parent process an injected crash must not kill the
        interpreter — it surfaces as WorkerCrashFault instead."""
        plan = FaultPlan(seed=0, crash_rate=1.0)
        with pytest.raises(WorkerCrashFault):
            inject(plan, "aa" * 32, 0)

    def test_hang_sleeps_then_raises(self):
        plan = FaultPlan(seed=0, hang_rate=1.0, hang_seconds=0.01)
        with pytest.raises(HangFault):
            inject(plan, "aa" * 32, 0)

    def test_corrupt_file_flips_deterministically(self, tmp_path):
        victim = tmp_path / "entry.pkl"
        victim.write_bytes(b"A" * 100)
        assert corrupt_file(victim, seed=5)
        first = victim.read_bytes()
        assert first != b"A" * 100
        victim.write_bytes(b"A" * 100)
        corrupt_file(victim, seed=5)
        assert victim.read_bytes() == first

    def test_corrupt_file_tolerates_missing(self, tmp_path):
        assert corrupt_file(tmp_path / "nope.pkl") is False


# ----------------------------------------------------------------------
# Retry / backoff determinism (satellite: bounded, attributed failure)
# ----------------------------------------------------------------------
class TestRetryBounded:
    def test_transient_then_success(self):
        baseline = CampaignEngine(jobs=1).run_one(replay_task())
        plan = FaultPlan(seed=1, transient_rate=1.0, max_faults_per_task=2)
        engine = CampaignEngine(jobs=1, retries=3, backoff_base=0.0, faults=plan)
        result = engine.run_one(replay_task())
        assert result.l1.snapshot() == baseline.l1.snapshot()
        assert engine.counters.retries == 2
        timing = engine.counters.timings[-1]
        assert timing.attempts == 3 and timing.failed is False

    def test_exhausted_task_surfaces_original_error_and_history(self):
        plan = FaultPlan(seed=1, transient_rate=1.0, max_faults_per_task=10 ** 6)
        engine = CampaignEngine(jobs=1, retries=2, backoff_base=0.0, faults=plan)
        task = replay_task()
        with pytest.raises(CampaignTaskError) as excinfo:
            engine.run_one(task)
        err = excinfo.value
        message = str(err)
        # The failure must be attributable from the message alone: task
        # id, attempt count, and the per-attempt history.
        assert task.label in message
        assert "3 attempt" in message
        assert "TransientFault" in message
        assert err.key == task.key(engine.salt)
        assert [h["attempt"] for h in err.history] == [0, 1, 2]
        assert all(h["kind"] == "transient" for h in err.history)

    def test_retry_counters_are_deterministic(self):
        plan = FaultPlan(seed=12, transient_rate=0.5, max_faults_per_task=2)
        runs = []
        for _ in range(2):
            engine = CampaignEngine(jobs=1, retries=4, backoff_base=0.0,
                                    faults=plan)
            engine.run([replay_task("SD1"), replay_task("SPMV")])
            runs.append((engine.counters.retries,
                         [t.attempts for t in engine.counters.timings]))
        assert runs[0] == runs[1]

    def test_backoff_is_exponential_and_capped(self):
        engine = CampaignEngine(jobs=1, retries=10, backoff_base=0.1,
                                backoff_cap=0.4)
        delays = [
            min(engine.backoff_cap, engine.backoff_base * 2 ** (n - 1))
            for n in range(1, 6)
        ]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_zero_retries_fails_on_first_fault(self):
        plan = FaultPlan(seed=1, transient_rate=1.0)
        engine = CampaignEngine(jobs=1, retries=0, backoff_base=0.0, faults=plan)
        with pytest.raises(CampaignTaskError):
            engine.run_one(replay_task())


class TestKeepGoing:
    def test_failed_slot_and_campaign_completion(self):
        """One poisoned task must not take down its batch."""
        baseline = CampaignEngine(jobs=1).run([replay_task("SPMV")])
        plan = FaultPlan(seed=1, transient_rate=1.0, max_faults_per_task=10 ** 6)
        engine = CampaignEngine(jobs=1, retries=1, backoff_base=0.0, faults=plan,
                                keep_going=True)
        out = engine.run([replay_task("SD1"), replay_task("SPMV")])
        assert out[0] is FAILED and out[1] is FAILED
        assert len(engine.failures) == 2
        assert engine.counters.failed == 2
        assert all(isinstance(f, CampaignTaskError) for f in engine.failures)
        # A fresh unfaulted engine still computes the real payloads.
        clean = CampaignEngine(jobs=1).run([replay_task("SPMV")])
        assert l1_signature(clean) == l1_signature(baseline)

    def test_keep_going_mixed_success_and_failure(self, tmp_path):
        """Tasks whose faults stay under budget succeed; the campaign
        records only the genuinely exhausted ones."""
        plan = FaultPlan(seed=3, transient_rate=1.0, max_faults_per_task=1)
        engine = CampaignEngine(jobs=1, retries=3, backoff_base=0.0,
                                faults=plan, keep_going=True)
        out = engine.run([replay_task("SD1"), replay_task("SPMV")])
        assert engine.failures == []
        assert all(p is not FAILED for p in out)


# ----------------------------------------------------------------------
# Pool-mode recovery (crash, hang, timeout)
# ----------------------------------------------------------------------
BENCH_POOL = ("SD1", "SPMV", "BFS", "KMN")


def pool_tasks():
    return [replay_task(b) for b in BENCH_POOL]


def seed_firing(kind: str, rate: float, salt: str, **plan_kwargs) -> FaultPlan:
    """First seed whose schedule fires ``kind`` on some first attempt —
    keeps these tests meaningful for any future key-scheme change."""
    keys = [t.key(salt) for t in pool_tasks()]
    for seed in range(64):
        plan = FaultPlan(seed=seed, max_faults_per_task=1,
                         **{f"{kind}_rate": rate}, **plan_kwargs)
        if any(plan.decide(k, 0) == kind for k in keys):
            return plan
    raise AssertionError(f"no seed fires {kind} at rate {rate}")


@pytest.fixture(scope="module")
def pool_baseline():
    return CampaignEngine(jobs=2).run(pool_tasks())


class TestPoolRecovery:
    def test_worker_crash_rebuilds_pool(self, pool_baseline):
        engine = CampaignEngine(jobs=2, retries=8, backoff_base=0.0)
        plan = seed_firing("crash", 0.5, engine.salt)
        engine.faults = plan
        out = engine.run(pool_tasks())
        assert l1_signature(out) == l1_signature(pool_baseline)
        assert engine.counters.pool_rebuilds >= 1
        assert any(t.attempts > 1 for t in engine.counters.timings)

    def test_hung_worker_reclaimed_by_timeout(self, pool_baseline):
        engine = CampaignEngine(jobs=2, retries=8, backoff_base=0.0,
                                task_timeout=1.0)
        plan = seed_firing("hang", 0.5, engine.salt, hang_seconds=30.0)
        engine.faults = plan
        out = engine.run(pool_tasks())
        assert l1_signature(out) == l1_signature(pool_baseline)
        assert engine.counters.timeouts >= 1
        assert engine.counters.pool_rebuilds >= 1

    def test_short_hang_completes_within_budget(self, pool_baseline):
        """A slow-but-finishing attempt under the deadline is not killed."""
        engine = CampaignEngine(jobs=2, retries=8, backoff_base=0.0,
                                task_timeout=30.0)
        plan = seed_firing("hang", 0.5, engine.salt, hang_seconds=0.05)
        engine.faults = plan
        out = engine.run(pool_tasks())
        assert l1_signature(out) == l1_signature(pool_baseline)
        assert engine.counters.timeouts == 0


# ----------------------------------------------------------------------
# Cache corruption -> quarantine -> recompute (satellite)
# ----------------------------------------------------------------------
class TestCorruptionQuarantine:
    def test_injected_corruption_quarantined_and_recomputed(self, tmp_path):
        tasks = [replay_task("SD1"), replay_task("SPMV")]
        baseline = CampaignEngine(jobs=1).run(tasks)

        cache_dir = tmp_path / "cache"
        writer = CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir),
            faults=FaultPlan(seed=11, corrupt_rate=1.0),
        )
        writer.run(tasks)

        reader = CampaignEngine(jobs=1, cache=ResultCache(cache_dir))
        out = reader.run(tasks)
        assert l1_signature(out) == l1_signature(baseline)
        # Detected, counted, quarantined (not silently unlinked), recomputed.
        assert reader.cache.corrupt == 2
        assert reader.cache.quarantined == 2
        assert reader.counters.executed == 2
        quarantined = sorted((cache_dir / "quarantine").glob("*.pkl"))
        assert len(quarantined) == 2
        assert reader.metrics_snapshot()["campaign.cache.quarantined"] == 2

    def test_quarantined_slot_is_rewritten_clean(self, tmp_path):
        task = replay_task("SD1")
        cache_dir = tmp_path / "cache"
        writer = CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir),
            faults=FaultPlan(seed=11, corrupt_rate=1.0),
        )
        writer.run_one(task)
        # Second faulted engine: detects rot, recomputes, re-corrupts; the
        # chain never serves a damaged payload.
        again = CampaignEngine(
            jobs=1, cache=ResultCache(cache_dir),
            faults=FaultPlan(seed=11, corrupt_rate=1.0),
        )
        again.run_one(task)
        assert again.cache.quarantined == 1
        # Clean engine: detects the re-corrupted entry, writes a clean one.
        clean = CampaignEngine(jobs=1, cache=ResultCache(cache_dir))
        clean.run_one(task)
        served = CampaignEngine(jobs=1, cache=ResultCache(cache_dir))
        served.run_one(task)
        assert served.cache.hits == 1 and served.cache.corrupt == 0

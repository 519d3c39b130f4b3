"""Trace groups: design-independent inputs built once per group.

The campaign engine runs the tasks of a batch that differ only in their
design as one group.  The group builds its trace, and for functional
simulations its coalesced column arrays, once; every design reuses
them.  These tests pin the build counts on both execution paths, and
that faults inside a group stay per task: a faulted design is retried
alone, its healthy siblings are untouched, and every payload equals the
one computed with nothing shared.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from collections import Counter

import pytest

import repro.runner.task as task_module
import repro.sim.functional.engine as functional_engine
import repro.trace.suite as suite
from repro.faults import FaultPlan
from repro.runner import FAILED, CampaignEngine, Task
from repro.runner.task import run_task

SCALE = 0.05
BENCHMARKS = ("SD1", "SPMV")
DESIGNS = ("bs", "gc", "dbp")
#: A non-first member of the SD1 group.
TARGET = "simulate[functional]:SD1/gc"

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the counting wrappers",
)


def batch():
    """Benchmark-major: each benchmark's designs are adjacent."""
    return [
        Task(kind="simulate", benchmark=b, design=d, scale=SCALE,
             fidelity="functional")
        for b in BENCHMARKS
        for d in DESIGNS
    ]


def signature(result):
    return (
        result.benchmark,
        result.design,
        result.cycles,
        result.instructions,
        tuple(sorted(result.l1.snapshot().items())),
        tuple(sorted(result.l2.snapshot().items())),
        result.extras,
    )


@pytest.fixture(scope="module")
def unshared():
    """Every task on its own: nothing built once, nothing shared."""
    return [signature(run_task(task)) for task in batch()]


@dataclasses.dataclass(frozen=True)
class FaultOn(FaultPlan):
    """Fault the first attempt of one task key and nothing else."""

    target: str = ""
    kind: str = "transient"

    def decide(self, key, attempt):
        return self.kind if key == self.target and attempt == 0 else None


def attempts_by_label(engine):
    return {t.label: t.attempts for t in engine.counters.timings}


# ----------------------------------------------------------------------
# Build counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_one_build_per_trace_group(jobs, tmp_path, monkeypatch, unshared):
    log = tmp_path / "builds.log"

    def counting(layer, fn, name):
        def wrapper(*args, **kwargs):
            # Appends survive the fork: pool workers write the same file.
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{layer} {name(args)}\n")
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(suite, "build_benchmark", counting(
        "trace", suite.build_benchmark, lambda args: args[0]))
    monkeypatch.setattr(functional_engine, "build_core_streams", counting(
        "streams", functional_engine.build_core_streams,
        lambda args: args[0].name))

    engine = CampaignEngine(jobs=jobs)
    out = engine.run(batch())

    assert [signature(r) for r in out] == unshared
    builds = Counter(log.read_text(encoding="utf-8").splitlines())
    assert builds == {f"{layer} {b}": 1 for layer in ("trace", "streams")
                      for b in BENCHMARKS}
    if jobs == 1:
        # In-process groups keep a benchmark-major batch's order.
        assert [t.label for t in engine.counters.timings] == [
            t.label for t in batch()]


@needs_fork
def test_small_batch_spreads_over_workers(tmp_path, monkeypatch):
    """One group on two workers is cut into even shares: no worker
    idles, and each share builds its inputs once."""
    log = tmp_path / "builds.log"
    real = suite.build_benchmark

    def counting(name, *args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{name}\n")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(suite, "build_benchmark", counting)
    CampaignEngine(jobs=2).run(batch()[:3])
    assert log.read_text(encoding="utf-8").splitlines() == ["SD1", "SD1"]


def test_retry_rebuilds_from_scratch(tmp_path, monkeypatch, unshared):
    """A retried task runs as a group of one, with fresh inputs."""
    built = []
    real = suite.build_benchmark

    def counting(name, *args, **kwargs):
        built.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(suite, "build_benchmark", counting)
    engine = CampaignEngine(jobs=1, retries=1, backoff_base=0.0)
    engine.faults = FaultOn(target=batch()[1].key(engine.salt))
    out = engine.run(batch())

    assert [signature(r) for r in out] == unshared
    assert Counter(built) == {"SD1": 2, "SPMV": 1}


# ----------------------------------------------------------------------
# Faults inside a group
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["transient", "crash", "hang"])
def test_fault_on_a_grouped_task(kind, jobs, unshared):
    # Serially a hang sleeps and raises; in a pool it outlives the
    # group's deadline and the pool is killed.
    pooled_hang = kind == "hang" and jobs > 1
    engine = CampaignEngine(
        jobs=jobs, retries=2, backoff_base=0.0,
        task_timeout=1.0 if pooled_hang else None,
    )
    key = next(t.key(engine.salt) for t in batch() if t.label == TARGET)
    engine.faults = FaultOn(target=key, kind=kind,
                            hang_seconds=30.0 if pooled_hang else 0.05)
    out = engine.run(batch())

    assert [signature(r) for r in out] == unshared
    assert engine.counters.failed == 0
    attempts = attempts_by_label(engine)
    assert attempts[TARGET] == 2
    if kind == "transient" or jobs == 1:
        # The fault stayed with its task: every sibling ran once.
        assert all(n == 1 for label, n in attempts.items() if label != TARGET)
    else:
        assert engine.counters.pool_rebuilds >= 1
    if pooled_hang:
        assert engine.counters.timeouts >= 1


@needs_fork
def test_retry_queued_behind_groups_keeps_its_deadline(monkeypatch):
    """A retried task is a group of one with a one-task deadline.  Its
    clock must not start while it waits behind whole groups for a
    worker, or a transient fault grows into timeouts and pool rebuilds.
    """
    step = 0.3  # seconds every attempt takes; well under the timeout
    real = task_module.run_task

    def slow(task):
        time.sleep(step)
        return real(task)

    monkeypatch.setattr(task_module, "run_task", slow)
    designs = {"SD1": DESIGNS, "SPMV": DESIGNS + ("pdp-8", "bs-s"),
               "BFS": DESIGNS}
    tasks = [Task(kind="simulate", benchmark=b, design=d, scale=SCALE,
                  fidelity="functional")
             for b, ds in designs.items() for d in ds]
    engine = CampaignEngine(jobs=2, retries=1, backoff_base=0.0,
                            task_timeout=0.8)
    engine.faults = FaultOn(target=tasks[1].key(engine.salt))
    out = engine.run(tasks)

    # SD1's retry is ready while SPMV still runs and BFS waits for a
    # worker: queued beside them it would wait two steps, not one.
    assert engine.counters.timeouts == 0
    assert engine.counters.pool_rebuilds == 0
    assert engine.counters.failed == 0
    assert [signature(r) for r in out] == [
        signature(run_task(t)) for t in tasks]
    attempts = attempts_by_label(engine)
    assert attempts.pop(tasks[1].label) == 2
    assert set(attempts.values()) == {1}


@needs_fork
def test_crash_without_retries_fails_its_whole_group():
    """With ``retries=0`` a worker crash fails every task of the group
    it was running, siblings that had already finished included: their
    results died with the worker."""
    engine = CampaignEngine(jobs=2, retries=0, keep_going=True)
    key = next(t.key(engine.salt) for t in batch() if t.label == TARGET)
    engine.faults = FaultOn(target=key, kind="crash")
    out = engine.run(batch())

    failed = {err.label for err in engine.failures}
    sd1 = {t.label for t in batch() if t.benchmark == "SD1"}
    assert sd1 <= failed  # SD1/bs ran before the crash and still failed
    assert all(h["kind"] == "worker-crash"
               for err in engine.failures for h in err.history)
    assert [r is FAILED for r in out] == [
        t.label in failed for t in batch()]

"""Parallel campaign engine with a persistent, content-addressed cache.

The paper's whole evaluation is one benchmark x design simulation
campaign; this package makes that campaign embarrassingly parallel and
incrementally re-runnable:

* :class:`Task` — a picklable, from-scratch-recomputable work unit
  (a timing or functional simulation, or an SPDP-B PD sweep);
* :class:`ResultCache` — an on-disk store keyed by a stable hash of the
  task's full inputs plus a code-version salt, with atomic writes and
  corruption-tolerant reads;
* :class:`CampaignEngine` — fans task batches out over a process pool
  (``jobs=1`` = serial fallback), probes/fills the cache, and emits a
  per-run manifest with wall-time and hit/miss counters.  It is the
  batch engine behind ``repro campaign``, ``repro scenario sweep`` and
  the figure pipeline; a batch runs to completion on the calling
  thread, and separate runs share only the cache and the journal.
  Execution is fault-tolerant: bounded retries with exponential backoff, per-task
  timeouts with hung-worker reclamation, worker-crash pool rebuilds,
  checksum quarantine of rotten cache entries, and a crash-safe
  :class:`CampaignJournal` that makes interrupted campaigns resumable
  (``resume=True``);
* :mod:`repro.faults` — a deterministic, seed-driven fault injector
  (``CampaignEngine(faults=FaultPlan.chaos(...))``) so every recovery
  path above is exercised by tests and CI, not just by bad days.

Quickstart::

    from repro.runner import CampaignEngine, ResultCache, Task

    engine = CampaignEngine(jobs=4, cache=ResultCache("~/.cache/repro"))
    tasks = [Task(kind="simulate", benchmark=b, design="gc", scale=0.25)
             for b in ("SPMV", "KMN", "SSC")]
    results = engine.run(tasks)          # list of RunResult
    print(engine.counters.render())      # hit/miss + timing summary

Results are bit-identical to serial runs by construction: each task is
executed from a self-contained description with fresh policy and
engine state, and the only inputs tasks share — one trace group's trace
and functional stream arrays — are design-independent and never written
after they are built; ``tests/test_runner_determinism.py`` and
``tests/test_runner_groups.py`` lock this in.
"""

from repro.runner.cache import (
    CACHE_SCHEMA,
    MISS,
    QUARANTINE_DIR,
    ResultCache,
    config_fingerprint,
    default_salt,
    stable_hash,
)
from repro.runner.engine import (
    FAILED,
    MANIFEST_SCHEMA_VERSION,
    CampaignEngine,
    CampaignTaskError,
    git_commit,
    run_campaign,
)
from repro.runner.journal import CampaignJournal, JournalLockedError
from repro.runner.task import PD_SWEEP, Task, run_task, sweep_optimal_pd

__all__ = [
    "CACHE_SCHEMA",
    "FAILED",
    "MANIFEST_SCHEMA_VERSION",
    "MISS",
    "PD_SWEEP",
    "QUARANTINE_DIR",
    "CampaignEngine",
    "CampaignJournal",
    "CampaignTaskError",
    "JournalLockedError",
    "ResultCache",
    "Task",
    "config_fingerprint",
    "default_salt",
    "git_commit",
    "run_campaign",
    "run_task",
    "stable_hash",
    "sweep_optimal_pd",
]

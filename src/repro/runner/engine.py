"""The campaign engine: fault-tolerant parallel execution behind the cache.

:class:`CampaignEngine` is the one place the repository fans simulation
work out over processes.  Given a batch of :class:`~repro.runner.task.Task`
objects it

1. computes each task's stable cache key, consults the campaign journal
   (``resume=True``) and probes the persistent
   :class:`~repro.runner.cache.ResultCache` (when one is attached),
2. deduplicates the remaining misses by key, groups them by trace (the
   task fingerprint minus the design fields) and executes each group
   through one routine, :func:`_run_group` — in-process for ``jobs=1``
   (also the fallback for single-task batches, where a pool would only
   add fork latency), or as ``ProcessPoolExecutor`` futures otherwise:
   one per group, cut so that no future holds more than an even share
   of the batch (``ceil(tasks / jobs)`` tasks), with at most one future
   per worker in flight,
3. survives partial failure: every attempt is covered by a bounded
   retry budget with exponential backoff, pool runs enforce a
   ``task_timeout`` per task of a group by killing and rebuilding the
   pool, and a worker crash (``BrokenProcessPool``) likewise rebuilds
   the pool and retries the interrupted tasks,
4. writes results back to the cache atomically, appends each completed
   key to the crash-safe :class:`~repro.runner.journal.CampaignJournal`,
   and records per-task wall times, attempts and hit/miss/retry
   counters (:class:`~repro.stats.campaign.CampaignCounters`),

and returns payloads aligned with the submitted batch.

An engine runs one batch at a time on the calling thread, and nothing
outside it pauses, cancels or observes a batch.  Separate runs share
only what they leave on disk: the result cache and the journal.

Within a group the design-independent inputs — the trace and, for
functional simulations, its coalesced column arrays — are built once
(:class:`~repro.runner.task.SharedInputs`) and only read afterwards.
Policy objects and engine state are built per task, and a retried task
runs as a group of one with fresh inputs.  Results are therefore
bit-identical regardless of ``jobs``, submission order, grouping, or
how many faults were recovered along the way — the property the
determinism and chaos test layers lock in.

Failure semantics
-----------------

A task *failure* is any exception from an attempt, an engine-enforced
timeout, or a pool break while the task was in flight (crashes cannot
be attributed to one future, so every in-flight task is charged — the
honest accounting, and still bounded).  A pool future returns its
tasks' results together, so a crash or a hang charges every task of
its future, siblings that had already finished in that worker
included; only exceptions stay with their own task.  A task whose failures exceed
``retries`` raises :class:`CampaignTaskError` carrying the task label,
key and full attempt history; with ``keep_going=True`` the error is
recorded, the payload slot gets the :data:`FAILED` sentinel, and the
rest of the campaign completes.  ``KeyboardInterrupt`` is never
retried: the journal is already flushed per task, a partial manifest
marked ``"interrupted": true`` is written (when ``manifest_path`` is
set), and the interrupt propagates.

Fault injection (:class:`repro.faults.FaultPlan`) threads through the
same worker entry point (:func:`repro.runner.task.run_task_armed`), so
every one of these recovery paths is deterministic, testable code.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.faults import FaultPlan, corrupt_file
from repro.runner.cache import MISS, ResultCache, default_salt, stable_hash
from repro.runner.journal import CampaignJournal
from repro.runner.task import SharedInputs, Task, run_task_armed
from repro.stats.campaign import CampaignCounters, TaskTiming

__all__ = [
    "FAILED",
    "MANIFEST_SCHEMA_VERSION",
    "CampaignEngine",
    "CampaignTaskError",
    "git_commit",
    "run_campaign",
]

#: How often (seconds) the pool loop wakes to check deadlines/backoffs.
_POLL_TICK = 0.05

#: Campaign-manifest schema version.  Bump on any change to the manifest
#: layout that ``repro.analysis`` consumers would need to branch on.
#: Version history: 1 = pre-analysis manifests (no version field);
#: 2 = adds ``schema_version``, ``git_commit`` and structured per-task
#: ``kind``/``benchmark``/``design`` fields.
MANIFEST_SCHEMA_VERSION = 2

_GIT_COMMIT_CACHE: List[Optional[str]] = []


def git_commit() -> Optional[str]:
    """Git commit hash of the source tree, or ``None`` outside a repo.

    Resolved once per process (manifests are written repeatedly) from
    the directory holding this file, so an installed-but-not-cloned
    tree, a missing ``git`` binary, or any git failure all degrade to
    ``None`` rather than an error — manifests must write anywhere.
    """
    if not _GIT_COMMIT_CACHE:
        commit: Optional[str] = None
        try:
            import subprocess

            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=10,
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip() or None
        except Exception:
            commit = None
        _GIT_COMMIT_CACHE.append(commit)
    return _GIT_COMMIT_CACHE[0]


class _FailedSentinel:
    """Payload slot for a task that exhausted its retries (keep_going)."""

    def __repr__(self) -> str:
        return "<FAILED>"


#: Sentinel payload returned for exhausted tasks under ``keep_going``.
FAILED = _FailedSentinel()


class CampaignTaskError(RuntimeError):
    """A task failed more than ``retries`` times; carries the evidence.

    Attributes:
        label: Human-readable task label (``simulate:SPMV/gc``).
        key: The task's cache key.
        history: One record per failed attempt:
            ``{"attempt": n, "kind": ..., "error": ..., "seconds": ...}``.
    """

    def __init__(self, label: str, key: str, history: List[Dict[str, Any]]) -> None:
        self.label = label
        self.key = key
        self.history = list(history)
        detail = "; ".join(
            f"attempt {h['attempt']}: [{h['kind']}] {h['error']}" for h in history
        )
        super().__init__(
            f"campaign task {label!r} (key {key[:12]}…) failed after "
            f"{len(history)} attempt(s): {detail}"
        )


class _PoolReset(Exception):
    """Internal: unwind the pool loop to kill and rebuild the pool."""


class _TaskState:
    """Mutable per-unique-task execution state within one ``run`` batch."""

    __slots__ = ("task", "key", "group", "history", "not_before", "done")

    def __init__(self, task: Task, key: str) -> None:
        self.task = task
        self.key = key
        self.group = _group_key(task)
        #: One record per failed attempt; ``len`` is also the next
        #: attempt index (and thus the fault-injection draw index).
        self.history: List[Dict[str, Any]] = []
        self.not_before = 0.0  # monotonic instant the next attempt may start
        self.done = False

    @property
    def attempt(self) -> int:
        return len(self.history)


#: Fingerprint fields that select the design, not the trace.
_DESIGN_FIELDS = ("design", "pd", "victim_share_factor")

#: One attempt's result as :func:`_run_group` reports it:
#: ``(payload, seconds, None)`` or ``(None, 0.0, (kind, error))``.
_Outcome = Tuple[Any, float, Optional[Tuple[str, str]]]


def _group_key(task: Task) -> str:
    """The task's design-independent identity (its trace group)."""
    fp = task.fingerprint()
    for name in _DESIGN_FIELDS:
        fp.pop(name, None)
    return stable_hash(fp)


def _units(
    states: Sequence[_TaskState], size: Optional[int] = None
) -> List[List[_TaskState]]:
    """Split first attempts into trace groups of at most ``size`` tasks
    (unbounded when ``None``); a retry runs alone.

    Units keep the order of their first member, and members keep batch
    order, so a benchmark-major batch executes in batch order.
    """
    open_units: Dict[str, List[_TaskState]] = {}
    units: List[List[_TaskState]] = []
    for state in states:
        if state.attempt:
            units.append([state])
            continue
        unit = open_units.get(state.group)
        if unit is None or (size is not None and len(unit) >= size):
            unit = open_units[state.group] = []
            units.append(unit)
        unit.append(state)
    return units


def _run_group(
    work: Sequence[Tuple[Task, str, int]], plan: Optional[FaultPlan]
) -> Iterator[_Outcome]:
    """Run one trace group's ``(task, key, attempt)`` triples in order.

    Every task gets the group's one :class:`SharedInputs`; each attempt
    goes through :func:`run_task_armed` (looked up at call time, so
    harnesses can wrap it), and a failing task does not stop its
    siblings.  Yields one :data:`_Outcome` per task as it finishes.
    """
    shared = SharedInputs()
    for task, key, attempt in work:
        try:
            payload, seconds = run_task_armed(
                dataclasses.replace(task, shared=shared), key, attempt, plan
            )
        except Exception as exc:
            yield None, 0.0, (_classify(exc), _describe(exc))
        else:
            yield payload, seconds, None


def _run_group_worker(
    work: Sequence[Tuple[Task, str, int]], plan: Optional[FaultPlan]
) -> List[_Outcome]:
    """Pool entry point: one group per future, one outcome per task."""
    return list(_run_group(work, plan))


def _payload_metrics(payload: Any) -> Optional[Dict[str, Any]]:
    """Pull the namespaced metrics snapshot out of a task payload.

    Simulation payloads are :class:`~repro.sim.simulator.RunResult`
    objects carrying ``extras["metrics"]``; cache entries written before
    the metrics registry existed (or non-simulation payloads) yield
    ``None``.  Duck-typed so the runner stays import-free of the sim.
    """
    extras = getattr(payload, "extras", None)
    if extras is None and isinstance(payload, dict):
        extras = payload
    if isinstance(extras, dict):
        metrics = extras.get("metrics")
        if isinstance(metrics, dict):
            return metrics
    return None


def _task_fields(task: Task) -> Dict[str, Optional[str]]:
    """Structured identity fields for a task's manifest/timing record."""
    return {
        "kind": task.kind,
        "benchmark": task.workload,
        "design": None if task.kind == "pd-sweep" else task.design,
    }


class CampaignEngine:
    """Executes campaign tasks in parallel, behind the persistent cache.

    ``repro campaign``, ``repro scenario sweep`` and the figure pipeline
    (:class:`~repro.experiments.common.EvalSuite`) all drive this class;
    each run's record is :meth:`manifest`.

    Args:
        jobs: Worker process count; ``None`` means ``os.cpu_count()``,
            ``1`` forces fully serial in-process execution.
        cache: Persistent result cache, or ``None`` to disable all reads
            and writes (the ``--no-cache`` path).  Without one, the
            engine keeps the payloads it computed in memory for its
            lifetime, so a later batch repeating a key is served from
            there (recorded as cached) instead of recomputing it.
        salt: Code-version salt folded into every key; defaults to
            :func:`repro.runner.cache.default_salt`.
        retries: Failures tolerated per task before it is declared
            failed (``0`` = one attempt, no retry — the old behavior).
        task_timeout: Per-attempt wall-clock budget in seconds.
            Enforced preemptively in pool mode (the hung worker's pool
            is killed and rebuilt), where a future running several
            tasks of a trace group gets this budget once per task;
            serial in-process attempts cannot be preempted, so the
            timeout only applies under ``jobs >= 2``.
        backoff_base: First retry delay; doubles per failure of that
            task (``base * 2**(failures-1)``), capped at
            ``backoff_cap``.  Deterministic — no jitter.
        backoff_cap: Upper bound on any single backoff delay.
        keep_going: Record exhausted tasks (payload = :data:`FAILED`)
            and finish the campaign instead of raising on first failure.
        journal: Campaign journal path (or a
            :class:`~repro.runner.journal.CampaignJournal`); every
            completed task key is appended and fsync'd immediately.
        resume: Serve tasks recorded in the journal from the cache and
            execute only the remainder.  Requires ``journal``; tasks
            journaled but missing (or quarantined) from the cache are
            transparently recomputed.
        faults: Optional :class:`repro.faults.FaultPlan` — deterministic
            fault injection for chaos testing.  ``None`` (production)
            costs one attribute check per task.
        manifest_path: When set, an interrupt (Ctrl-C) writes a partial
            manifest here, marked ``"interrupted": true``, before the
            ``KeyboardInterrupt`` propagates.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        salt: Optional[str] = None,
        *,
        retries: int = 0,
        task_timeout: Optional[float] = None,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        keep_going: bool = False,
        journal: Optional[Union[str, os.PathLike, CampaignJournal]] = None,
        resume: bool = False,
        faults: Optional[FaultPlan] = None,
        manifest_path: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        if resume and journal is None:
            raise ValueError("resume=True requires a journal")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.salt = salt if salt is not None else default_salt()
        self.retries = retries
        self.task_timeout = task_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.keep_going = keep_going
        if journal is not None and not isinstance(journal, CampaignJournal):
            journal = CampaignJournal(journal)
        self.journal = journal
        self.resume = resume
        self.faults = faults
        self.manifest_path = Path(manifest_path) if manifest_path is not None else None
        self.counters = CampaignCounters()
        #: Final :class:`CampaignTaskError` per exhausted task (keep_going).
        self.failures: List[CampaignTaskError] = []
        self.interrupted = False
        self._journaled_keys: Dict[str, Dict[str, Any]] = {}
        self._completions = 0  # executed completions (interrupt_after hook)
        #: Payloads computed here, by key, when there is no cache.
        self._computed: Dict[str, Any] = {}
        if self.resume:
            self._journaled_keys = self.journal.load()
            self.journal.seen(self._journaled_keys)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute a batch; returns payloads in submission order.

        Duplicate tasks (same cache key) within a batch execute once and
        share the payload.  Exhausted tasks raise
        :class:`CampaignTaskError` — or, under ``keep_going``, yield the
        :data:`FAILED` sentinel in their payload slots.
        """
        try:
            return self._run(tasks)
        except KeyboardInterrupt:
            self._on_interrupt()
            raise
        finally:
            # Release the journal's single-writer lock between batches:
            # every record is already fsync'd, and a sequential engine
            # (e.g. a --resume rerun in the same process) must be able
            # to claim it.  Appends re-open lazily.
            if self.journal is not None:
                self.journal.close()

    def _run(self, tasks: Sequence[Task]) -> List[Any]:
        t0 = time.perf_counter()
        keys = [task.key(self.salt) for task in tasks]
        self.counters.tasks += len(tasks)

        payloads: Dict[str, Any] = {}
        pending: List[Task] = []
        pending_keys: List[str] = []  # batch order
        queued: set = set()  # the same keys, for O(1) dedup
        for task, key in zip(tasks, keys):
            if key in payloads or key in queued:
                continue
            resumed = self.resume and key in self._journaled_keys
            if self.cache is not None:
                hit = self.cache.get(key)
            else:
                hit = self._computed.get(key, MISS)
            if hit is not MISS:
                payloads[key] = hit
                if resumed:
                    self.counters.resumed += 1
                self._record_done(
                    TaskTiming(label=task.label, key=key, cached=True,
                               seconds=0.0, metrics=_payload_metrics(hit),
                               fidelity=task.fidelity, **_task_fields(task))
                )
            else:
                # A journaled key that misses the cache (entry evicted or
                # quarantined) falls through to recomputation.
                pending.append(task)
                pending_keys.append(key)
                queued.add(key)

        if pending:
            self._dispatch(pending, pending_keys, payloads)

        self.counters.elapsed_seconds += time.perf_counter() - t0
        return [payloads[key] for key in keys]

    def _dispatch(
        self, pending: List[Task], pending_keys: List[str], payloads: Dict[str, Any]
    ) -> None:
        if self.jobs == 1 or len(pending) == 1:
            self._run_serial(pending, pending_keys, payloads)
        else:
            self._run_pool(pending, pending_keys, payloads)

    # -- serial path ----------------------------------------------------
    def _run_serial(
        self, pending: List[Task], pending_keys: List[str], payloads: Dict[str, Any]
    ) -> None:
        """Run each group in-process, settling every task as it finishes.

        A group's failed tasks retry after the group, each as a group of
        one once its backoff has passed, so at most one group's inputs
        are alive at a time.
        """
        for group in _units(
            [_TaskState(task, key) for task, key in zip(pending, pending_keys)]
        ):
            self._run_serial_group(group, payloads)
            for state in group:
                while not state.done:
                    delay = state.not_before - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    self._run_serial_group([state], payloads)

    def _run_serial_group(
        self, group: List[_TaskState], payloads: Dict[str, Any]
    ) -> None:
        work = [(s.task, s.key, s.attempt) for s in group]
        for state, outcome in zip(group, _run_group(work, self.faults)):
            self._settle(state, outcome, payloads)

    # -- pool path ------------------------------------------------------
    def _run_pool(
        self, pending: List[Task], pending_keys: List[str], payloads: Dict[str, Any]
    ) -> None:
        states = {
            key: _TaskState(task, key) for task, key in zip(pending, pending_keys)
        }
        # A future holds at most an even share of the batch, so a batch
        # with fewer trace groups than workers still spreads over all of
        # them, each piece of a group building its own inputs.
        share = -(-len(states) // self.jobs)
        while True:
            incomplete = [s for s in states.values() if not s.done]
            if not incomplete:
                return
            workers = min(self.jobs, len(_units(incomplete, share)))
            pool = ProcessPoolExecutor(max_workers=workers)
            try:
                self._pool_round(pool, workers, share, states, payloads)
                pool.shutdown()
                return
            except _PoolReset:
                self._kill_pool(pool)
                self.counters.pool_rebuilds += 1
            except BaseException:
                self._kill_pool(pool)
                raise

    def _pool_round(
        self,
        pool: ProcessPoolExecutor,
        workers: int,
        share: int,
        states: Dict[str, _TaskState],
        payloads: Dict[str, Any],
    ) -> None:
        """Drive one pool until the batch completes or the pool must die.

        Raises :class:`_PoolReset` after charging the affected tasks
        when a worker crashes (``BrokenProcessPool``) or a task overruns
        ``task_timeout`` — the caller kills this pool and builds a fresh
        one for whatever remains.
        """
        inflight: Dict[Any, List[str]] = {}  # future -> its group's keys
        started: Dict[Any, float] = {}  # future -> first-seen-running instant
        try:
            self._pool_loop(
                pool, workers, share, states, payloads, inflight, started
            )
        except _PoolResetTimeout as reset:
            # The overdue group's tasks get the timeout on their records;
            # everything else in flight is charged a preemption (the pool
            # must die, and blame cannot be split more finely than that).
            for key in reset.keys:
                self._charge(
                    states[key], "timeout",
                    f"exceeded task_timeout={self.task_timeout}s per task",
                    payloads,
                )
            for future, keys in inflight.items():
                if future is reset.future:
                    continue
                for key in keys:
                    if not states[key].done:
                        self._charge(
                            states[key], "preempted",
                            "pool killed while reclaiming a hung worker",
                            payloads,
                        )
            raise _PoolReset()
        except BrokenProcessPool:
            # A worker died (real crash or injected os._exit).  The pool
            # is unusable and the crash cannot be attributed to one
            # future, so every in-flight task is charged one failure.
            for key in [k for keys in inflight.values() for k in keys]:
                if not states[key].done:
                    self._charge(
                        states[key], "worker-crash",
                        "worker process died while task was in flight", payloads,
                    )
            raise _PoolReset()

    def _pool_loop(
        self,
        pool: ProcessPoolExecutor,
        workers: int,
        share: int,
        states: Dict[str, _TaskState],
        payloads: Dict[str, Any],
        inflight: Dict[Any, List[str]],
        started: Dict[Any, float],
    ) -> None:
        while True:
            now = time.monotonic()
            busy = {key for keys in inflight.values() for key in keys}
            ready = [
                s for s in states.values()
                if not s.done and s.key not in busy and s.not_before <= now
            ]
            # One future per worker: the executor marks a future running
            # once it is queued for a worker, so a deadline clock only
            # starts on a unit a worker is free to run.  The rest wait
            # here.
            for group in _units(ready, share)[: workers - len(inflight)]:
                future = pool.submit(
                    _run_group_worker,
                    [(s.task, s.key, s.attempt) for s in group],
                    self.faults,
                )
                inflight[future] = [s.key for s in group]
            if not inflight:
                waiting = [s.not_before for s in states.values() if not s.done]
                if not waiting:
                    return  # batch complete
                time.sleep(max(0.0, min(waiting) - time.monotonic()))
                continue

            # Poll when a deadline or a backoff needs watching; block
            # indefinitely otherwise (the common fault-free case).
            poll = (
                _POLL_TICK
                if self.task_timeout is not None
                or any(s.not_before > now for s in states.values() if not s.done)
                else None
            )
            done_set, _ = wait(
                set(inflight), timeout=poll, return_when=FIRST_COMPLETED
            )
            self._check_deadlines(inflight, started, done_set)
            for future in done_set:
                keys = inflight.pop(future)
                started.pop(future, None)
                try:
                    outcomes = future.result()
                except KeyboardInterrupt:
                    raise
                except BrokenProcessPool:
                    inflight[future] = keys  # restore: charged by the caller
                    raise
                except Exception as exc:
                    # The group's results never arrived (e.g. a payload
                    # that cannot be pickled): charge each of its tasks.
                    outcomes = [(None, 0.0, (_classify(exc), _describe(exc)))
                                for _ in keys]
                for key, outcome in zip(keys, outcomes):
                    self._settle(states[key], outcome, payloads)

    def _check_deadlines(
        self,
        inflight: Dict[Any, List[str]],
        started: Dict[Any, float],
        done_set,
    ) -> None:
        """Stamp run starts and enforce ``task_timeout`` on live futures.

        A future runs a whole group, so its deadline is ``task_timeout``
        times its task count.
        """
        if self.task_timeout is None:
            return
        now = time.monotonic()
        overdue = None
        for future, keys in inflight.items():
            if future in done_set:
                continue
            if future not in started:
                if future.running():
                    started[future] = now
            elif now - started[future] > self.task_timeout * len(keys):
                overdue = (future, keys)
                break
        if overdue is None:
            return
        # Kill the whole pool: a hung worker cannot be cancelled through
        # the executor API.  The overdue group's tasks are charged a
        # timeout; other in-flight tasks are charged a preemption
        # (attribution is impossible once the pool dies — bounded either
        # way).
        future, keys = overdue
        self.counters.timeouts += len(keys)
        raise _PoolResetTimeout(future, keys)

    # -- bookkeeping ----------------------------------------------------
    def _settle(
        self, state: _TaskState, outcome: _Outcome, payloads: Dict[str, Any]
    ) -> None:
        payload, seconds, failure = outcome
        if failure is None:
            self._complete(state, payload, seconds, payloads)
        else:
            self._charge(state, *failure, payloads)

    def _charge(
        self,
        state: _TaskState,
        kind: str,
        error: str,
        payloads: Dict[str, Any],
    ) -> None:
        """Record one failure; schedule a retry or finalize the task."""
        state.history.append(
            {"attempt": state.attempt, "kind": kind, "error": error}
        )
        if len(state.history) > self.retries:
            err = CampaignTaskError(state.task.label, state.key, state.history)
            state.done = True
            self.counters.failed += 1
            if not self.keep_going:
                raise err
            self.failures.append(err)
            payloads[state.key] = FAILED
            self._record_done(
                TaskTiming(label=state.task.label, key=state.key, cached=False,
                           seconds=0.0, metrics=None,
                           attempts=len(state.history), failed=True,
                           fidelity=state.task.fidelity,
                           **_task_fields(state.task))
            )
            return
        self.counters.retries += 1
        backoff = min(
            self.backoff_cap,
            self.backoff_base * (2 ** (len(state.history) - 1)),
        )
        state.not_before = time.monotonic() + backoff

    def _complete(
        self,
        state: _TaskState,
        payload: Any,
        seconds: float,
        payloads: Dict[str, Any],
    ) -> None:
        state.done = True
        payloads[state.key] = payload
        if self.cache is None:
            self._computed[state.key] = payload
        else:
            self.cache.put(state.key, payload)
            if (
                self.faults is not None
                and self.cache.enabled
                and self.faults.decide_corrupt(state.key)
            ):
                corrupt_file(self.cache.path_for(state.key), self.faults.seed)
        self._record_done(
            TaskTiming(label=state.task.label, key=state.key, cached=False,
                       seconds=seconds, metrics=_payload_metrics(payload),
                       attempts=state.attempt + 1,
                       fidelity=state.task.fidelity,
                       **_task_fields(state.task))
        )
        self._completions += 1
        if (
            self.faults is not None
            and self.faults.interrupt_after is not None
            and self._completions >= self.faults.interrupt_after
        ):
            raise KeyboardInterrupt(
                f"injected interrupt after {self._completions} completions"
            )

    def _record_done(self, timing: TaskTiming) -> None:
        self.counters.record(timing)
        if self.journal is not None and not timing.failed:
            self.journal.append(
                {
                    "key": timing.key,
                    "label": timing.label,
                    "cached": timing.cached,
                    "seconds": round(timing.seconds, 6),
                    "attempts": timing.attempts,
                    "fidelity": timing.fidelity,
                }
            )

    def _on_interrupt(self) -> None:
        """Ctrl-C landing spot: persist progress before propagating."""
        self.interrupted = True
        if self.journal is not None:
            self.journal.close()  # every record is already on disk
        if self.manifest_path is not None:
            try:
                self.write_manifest(self.manifest_path)
            except OSError:
                pass  # dying anyway; the journal is the source of truth

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even when workers are hung or dead.

        ``shutdown()`` alone would join hung workers forever, so worker
        processes are terminated first (via the executor's process map —
        private but stable across CPython 3.8-3.13).
        """
        processes = getattr(pool, "_processes", None) or {}
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass

    def run_one(self, task: Task) -> Any:
        """Convenience wrapper: execute a single task through the cache."""
        return self.run([task])[0]

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        """Everything a rerun needs to audit this campaign, as plain data."""
        cache_info: Dict[str, Any] = {"enabled": self.cache is not None}
        if self.cache is not None:
            cache_info.update(
                root=str(self.cache.root) if self.cache.enabled else None,
                **self.cache.counter_snapshot(),
            )
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "git_commit": git_commit(),
            "salt": self.salt,
            "jobs": self.jobs,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "interrupted": self.interrupted,
            "cache": cache_info,
            "counters": self.counters.snapshot(),
            "resilience": {
                "retries_budget": self.retries,
                "task_timeout": self.task_timeout,
                "keep_going": self.keep_going,
                "resume": self.resume,
                "journal": str(self.journal.path) if self.journal else None,
                "faults_armed": self.faults is not None,
                "failed_tasks": [
                    {"label": f.label, "key": f.key, "history": f.history}
                    for f in self.failures
                ],
            },
            "metrics": self.metrics_snapshot(),
            "tasks": [
                {
                    "label": t.label,
                    "kind": t.kind,
                    "benchmark": t.benchmark,
                    "design": t.design,
                    "key": t.key,
                    "cached": t.cached,
                    # Always false: perfbench/run.py indexes this key.
                    "coalesced": False,
                    "seconds": round(t.seconds, 6),
                    "attempts": t.attempts,
                    "failed": t.failed,
                    "fidelity": t.fidelity,
                    # Per-task metrics snapshot (repro.obs.metrics); None
                    # for payloads that carry none.
                    "metrics": t.metrics,
                }
                for t in self.counters.timings
            ],
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Campaign counters as a ``repro.obs`` metrics snapshot.

        Same flat-namespace shape as the per-run simulation metrics
        (``campaign.retries``, ``campaign.cache.quarantined``, …) so
        dashboards can treat campaign health like any other component.
        """
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry(prefix="campaign.")
        c = self.counters
        for name, value in (
            ("tasks", c.tasks),
            ("unique_tasks", c.unique_tasks),
            ("executed", c.executed),
            ("retries", c.retries),
            ("timeouts", c.timeouts),
            ("pool_rebuilds", c.pool_rebuilds),
            ("failed", c.failed),
            ("resumed", c.resumed),
            ("cache.hits", c.cache_hits),
            ("cache.misses", c.cache_misses),
        ):
            reg.counter(name).inc(value)
        if self.cache is not None:
            reg.counter("cache.quarantined").inc(self.cache.quarantined)
            reg.counter("cache.quarantine_dropped").inc(self.cache.quarantine_dropped)
            reg.counter("cache.corrupt").inc(self.cache.corrupt)
        reg.gauge("interrupted").set(int(self.interrupted))
        return reg.snapshot()

    def write_manifest(self, path: Union[str, os.PathLike]) -> Path:
        """Write the manifest as JSON (atomically); returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(self.manifest(), indent=2, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(blob + "\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cache = "on" if self.cache is not None else "off"
        return (
            f"<CampaignEngine jobs={self.jobs} cache={cache} "
            f"retries={self.retries}>"
        )


class _PoolResetTimeout(_PoolReset):
    """Pool reset triggered by a group deadline (carries the culprit)."""

    def __init__(self, future: Any, keys: List[str]) -> None:
        super().__init__()
        self.future = future
        self.keys = keys


def _classify(exc: Exception) -> str:
    """Failure-kind tag for the attempt history (stable, greppable)."""
    from repro import faults

    if isinstance(exc, faults.TransientFault):
        return "transient"
    if isinstance(exc, faults.HangFault):
        return "hang"
    if isinstance(exc, faults.WorkerCrashFault):
        return "worker-crash"
    return "error"


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_campaign(
    tasks: Sequence[Task],
    jobs: Optional[int] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    **engine_kwargs: Any,
) -> List[Any]:
    """One-shot helper: build an engine, run a batch, return payloads."""
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return CampaignEngine(jobs=jobs, cache=cache, **engine_kwargs).run(tasks)

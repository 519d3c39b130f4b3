"""Job management for the campaign daemon.

A *job* is one client-submitted campaign: a validated
:class:`JobSpec` (benchmark × design matrix plus knobs) executed by a
dedicated :class:`repro.runner.CampaignEngine` in a worker thread.  The
:class:`JobManager` owns the shared pieces:

* one :class:`repro.runner.InflightRegistry` across every job's engine,
  so identical in-flight task keys coalesce to a single execution no
  matter which client submitted them;
* one result-cache *root* (each engine gets its own counter-isolated
  :class:`~repro.runner.cache.ResultCache` view over it);
* a state directory persisting each job's spec, journal and manifest,
  which is what lets a killed daemon :meth:`~JobManager.recover` its
  unfinished jobs on restart (resume = journal + cache replay).

Per-job control is the engine's own :class:`repro.runner.EngineControl`
(pause/resume at task boundaries, cancel via
:class:`repro.runner.CampaignCancelled`), and per-job progress events
flow through a :class:`repro.service.events.JobEventBroker` to any
number of streaming subscribers.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.runner import (
    CampaignCancelled,
    CampaignEngine,
    EngineControl,
    InflightRegistry,
    ResultCache,
)
from repro.service.events import JobEventBroker
from repro.sim.config import GPUConfig
from repro.sim.designs import DESIGN_KEYS
from repro.sim.simulator import FIDELITIES
from repro.trace.suite import ALL_BENCHMARKS

__all__ = ["JOB_STATES", "Job", "JobManager", "JobSpec", "SpecError"]

#: Lifecycle states a job moves through (terminal: the last three).
JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")
TERMINAL_STATES = ("completed", "failed", "cancelled")


class SpecError(ValueError):
    """A submitted job spec failed validation (HTTP 400 material)."""


class JobSpec:
    """Validated description of one campaign job.

    Args:
        benchmarks: Benchmark subset; ``None`` means the full Table-1
            suite.
        designs: Design keys to evaluate (the matrix's other axis).
        scale: Trace scale factor.
        seed: Trace generation seed.
        fidelity: ``"timing"`` or ``"functional"`` for simulate tasks.
        l1_size: L1 capacity in bytes.
        scheduler: Warp scheduler key.
        retries: Per-task failure budget for the job's engine.
        task_timeout: Per-attempt wall-clock budget (pool mode only).
        keep_going: Record failed tasks and finish instead of aborting.
    """

    FIELDS = ("benchmarks", "designs", "scale", "seed", "fidelity", "l1_size",
              "scheduler", "retries", "task_timeout", "keep_going")

    def __init__(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        designs: Sequence[str] = ("bs", "gc"),
        scale: float = 1.0,
        seed: int = 0,
        fidelity: str = "timing",
        l1_size: int = 32 * 1024,
        scheduler: str = "lrr",
        retries: int = 2,
        task_timeout: Optional[float] = None,
        keep_going: bool = False,
    ) -> None:
        self.benchmarks = (
            [str(b).upper() for b in benchmarks] if benchmarks else None
        )
        self.designs = [str(d).lower() for d in designs]
        self.scale = float(scale)
        self.seed = int(seed)
        self.fidelity = str(fidelity)
        self.l1_size = int(l1_size)
        self.scheduler = str(scheduler)
        self.retries = int(retries)
        self.task_timeout = float(task_timeout) if task_timeout is not None else None
        self.keep_going = bool(keep_going)
        self._validate()

    def _validate(self) -> None:
        if self.benchmarks is not None:
            bad = [b for b in self.benchmarks if b not in ALL_BENCHMARKS]
            if bad:
                raise SpecError(
                    f"unknown benchmarks: {bad}; known: {list(ALL_BENCHMARKS)}"
                )
        if not self.designs:
            raise SpecError("designs must not be empty")
        bad = [d for d in self.designs if d not in DESIGN_KEYS]
        if bad:
            raise SpecError(f"unknown designs: {bad}; known: {list(DESIGN_KEYS)}")
        if self.fidelity not in FIDELITIES:
            raise SpecError(
                f"unknown fidelity {self.fidelity!r}; known: {list(FIDELITIES)}"
            )
        if not (0 < self.scale <= 4.0):
            raise SpecError(f"scale must be in (0, 4], got {self.scale}")
        if self.retries < 0:
            raise SpecError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise SpecError(f"task_timeout must be > 0, got {self.task_timeout}")
        try:
            self.config()
        except ValueError as exc:
            raise SpecError(f"invalid configuration: {exc}") from None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Build from a client JSON body, rejecting unknown fields."""
        if not isinstance(payload, dict):
            raise SpecError(f"job spec must be a JSON object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - set(cls.FIELDS))
        if unknown:
            raise SpecError(f"unknown spec fields: {unknown}; known: {list(cls.FIELDS)}")
        try:
            return cls(**payload)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid job spec: {exc}") from None

    def to_payload(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def config(self) -> GPUConfig:
        return GPUConfig(l1_size=self.l1_size, warp_scheduler=self.scheduler)

    def run(self, engine: CampaignEngine) -> None:
        """Execute the full matrix through ``engine`` (worker thread)."""
        from repro.experiments.common import EvalSuite

        suite = EvalSuite(
            config=self.config(),
            benchmarks=self.benchmarks,
            scale=self.scale,
            seed=self.seed,
            engine=engine,
            fidelity=self.fidelity,
        )
        suite.run_matrix(self.designs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        benches = ",".join(self.benchmarks) if self.benchmarks else "ALL"
        return f"<JobSpec {benches} x {','.join(self.designs)} @{self.scale}>"


class Job:
    """One submitted campaign and its runtime state."""

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        engine: CampaignEngine,
        broker: JobEventBroker,
        manifest_path: Optional[Path] = None,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.engine = engine
        self.control: EngineControl = engine.control
        self.broker = broker
        self.manifest_path = manifest_path
        self.state = "queued"
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        self.resumed = engine.resume

    @property
    def paused(self) -> bool:
        return self.control.paused

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view for ``/jobs`` responses and state files."""
        snap: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "paused": self.paused,
            "resumed": self.resumed,
            "spec": self.spec.to_payload(),
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "counters": self.engine.counters.snapshot(),
            "failed_tasks": len(self.engine.failures),
        }
        if self.engine.cache is not None:
            snap["cache"] = self.engine.cache.counter_snapshot()
        return snap


class JobManager:
    """Submits, supervises and recovers campaign jobs.

    Args:
        loop: asyncio loop for event fan-out; ``None`` disables live
            subscription (polling still works).
        cache_root: Shared result-cache directory (``None`` = no
            persistent cache — coalescing still deduplicates in-flight
            work, but finished results are not reusable).
        state_dir: Daemon state directory (job specs, journals,
            manifests).  ``None`` disables persistence and recovery.
        engine_jobs: Worker processes per job engine (1 = serial in the
            job's thread — the default; the daemon's parallelism then
            comes from running jobs concurrently).
        salt: Cache-key salt override (tests).
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        *,
        cache_root: Optional[Union[str, os.PathLike]] = None,
        state_dir: Optional[Union[str, os.PathLike]] = None,
        engine_jobs: int = 1,
        salt: Optional[str] = None,
    ) -> None:
        self.loop = loop
        self.cache_root = Path(cache_root) if cache_root is not None else None
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.engine_jobs = engine_jobs
        self.salt = salt
        self.inflight = InflightRegistry()
        self.started_at = time.time()
        self._jobs: Dict[str, Job] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _jobs_dir(self) -> Optional[Path]:
        return self.state_dir / "jobs" if self.state_dir is not None else None

    def _state_path(self, job_id: str) -> Optional[Path]:
        d = self._jobs_dir()
        return d / f"{job_id}.json" if d is not None else None

    def _journal_path(self, job_id: str) -> Optional[Path]:
        d = self._jobs_dir()
        return d / f"{job_id}.journal.jsonl" if d is not None else None

    def _manifest_path(self, job_id: str) -> Optional[Path]:
        d = self._jobs_dir()
        return d / f"{job_id}.manifest.json" if d is not None else None

    # ------------------------------------------------------------------
    # Submission / execution
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: JobSpec,
        job_id: Optional[str] = None,
        resume: bool = False,
    ) -> Job:
        """Queue ``spec`` as a new job and start its worker thread.

        ``job_id``/``resume`` are the recovery path: a restarted daemon
        resubmits a persisted spec under its original id, resuming from
        its journal.
        """
        job_id = job_id if job_id is not None else f"j-{uuid.uuid4().hex[:8]}"
        with self._lock:
            if job_id in self._jobs:
                raise ValueError(f"job id {job_id!r} already exists")
            journal = self._journal_path(job_id)
            resume = bool(resume and journal is not None and journal.exists())
            cache = (
                ResultCache(self.cache_root) if self.cache_root is not None else None
            )
            broker = JobEventBroker(self.loop)
            engine_kwargs: Dict[str, Any] = dict(
                jobs=self.engine_jobs,
                cache=cache,
                retries=spec.retries,
                task_timeout=spec.task_timeout,
                keep_going=spec.keep_going,
                journal=journal,
                resume=resume,
                control=EngineControl(),
                progress=broker.publish,
                inflight=self.inflight,
                client=job_id,
                manifest_path=self._manifest_path(job_id),
            )
            if self.salt is not None:
                engine_kwargs["salt"] = self.salt
            engine = CampaignEngine(**engine_kwargs)
            job = Job(job_id, spec, engine, broker,
                      manifest_path=self._manifest_path(job_id))
            self._jobs[job_id] = job
            self._persist(job)
            thread = threading.Thread(
                target=self._run_job, args=(job,), name=f"repro-job-{job_id}",
                daemon=True,
            )
            self._threads[job_id] = thread
        thread.start()
        return job

    def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.broker.publish({"event": "job_state", "job": job.id,
                            "state": "running", "resumed": job.resumed})
        try:
            job.spec.run(job.engine)
        except CampaignCancelled:
            job.state = "cancelled"
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        else:
            job.state = "failed" if job.engine.failures else "completed"
            if job.engine.failures:
                job.error = str(job.engine.failures[0])
        finally:
            job.finished_at = time.time()
            if job.manifest_path is not None:
                try:
                    job.engine.write_manifest(job.manifest_path)
                except OSError:
                    pass
            self._persist(job)
            job.broker.publish({
                "event": "job_state", "job": job.id, "state": job.state,
                "error": job.error,
                "counters": job.engine.counters.snapshot(),
            })
            job.broker.close()

    # ------------------------------------------------------------------
    # Control / introspection
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def pause(self, job_id: str) -> Job:
        job = self.job(job_id)
        if not job.done:
            job.control.pause()
            job.broker.publish({"event": "job_state", "job": job.id,
                                "state": job.state, "paused": True})
        return job

    def resume(self, job_id: str) -> Job:
        job = self.job(job_id)
        if not job.done:
            job.control.resume()
            job.broker.publish({"event": "job_state", "job": job.id,
                                "state": job.state, "paused": False})
        return job

    def cancel(self, job_id: str) -> Job:
        job = self.job(job_id)
        if not job.done:
            job.control.cancel()
        return job

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Join a job's worker thread (tests, synchronous clients)."""
        job = self.job(job_id)
        thread = self._threads.get(job_id)
        if thread is not None:
            thread.join(timeout)
        return job

    def wait_all(self, timeout: Optional[float] = None) -> None:
        deadline = time.monotonic() + timeout if timeout is not None else None
        for job_id in [j.id for j in self.jobs()]:
            left = None if deadline is None else max(0.0, deadline - time.monotonic())
            self.wait(job_id, left)

    def stats(self) -> Dict[str, Any]:
        """Aggregate service counters (the ``/stats`` payload)."""
        jobs = self.jobs()
        by_state: Dict[str, int] = {state: 0 for state in JOB_STATES}
        agg = {"tasks": 0, "unique_tasks": 0, "executed": 0, "cache_hits": 0,
               "coalesced": 0, "resumed": 0, "retries": 0, "failed": 0}
        for job in jobs:
            by_state[job.state] = by_state.get(job.state, 0) + 1
            c = job.engine.counters
            agg["tasks"] += c.tasks
            agg["unique_tasks"] += c.unique_tasks
            agg["executed"] += c.executed
            agg["cache_hits"] += c.cache_hits
            agg["coalesced"] += c.coalesced
            agg["resumed"] += c.resumed
            agg["retries"] += c.retries
            agg["failed"] += c.failed
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "jobs": by_state,
            "counters": agg,
            "inflight_keys": len(self.inflight),
            "coalesced_total": self.inflight.coalesced_total,
            "cache_root": str(self.cache_root) if self.cache_root else None,
            "state_dir": str(self.state_dir) if self.state_dir else None,
        }

    # ------------------------------------------------------------------
    # Persistence / recovery
    # ------------------------------------------------------------------
    def _persist(self, job: Job) -> None:
        """Write the job's state file atomically (no-op when stateless)."""
        path = self._state_path(job.id)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(
            {"id": job.id, "state": job.state, "spec": job.spec.to_payload(),
             "submitted_at": job.submitted_at, "error": job.error},
            indent=2, sort_keys=True,
        )
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

    def recover(self) -> List[Job]:
        """Resubmit every persisted job that never reached a terminal
        state — the daemon-restart path.

        Each recovered job resumes from its own journal: journaled
        tasks are served from the cache, only the remainder executes,
        so a kill -9 mid-job costs the in-flight attempt and nothing
        else.  Returns the recovered jobs (empty when stateless).
        """
        jobs_dir = self._jobs_dir()
        if jobs_dir is None or not jobs_dir.is_dir():
            return []
        recovered: List[Job] = []
        for state_file in sorted(jobs_dir.glob("j-*.json")):
            if state_file.name.endswith(".manifest.json"):
                continue
            try:
                record = json.loads(state_file.read_text())
            except (OSError, json.JSONDecodeError):
                continue  # torn state write: the journal is authoritative,
                # but without a spec there is nothing to resubmit
            if not isinstance(record, dict):
                continue
            if record.get("state") in TERMINAL_STATES:
                continue
            try:
                spec = JobSpec.from_payload(record.get("spec") or {})
            except SpecError:
                continue
            job_id = record.get("id") or state_file.stem
            with self._lock:
                known = job_id in self._jobs
            if known:
                continue
            recovered.append(self.submit(spec, job_id=job_id, resume=True))
        return recovered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<JobManager {len(self._jobs)} jobs, {len(self.inflight)} in flight>"

"""Campaign work units: self-contained, picklable task descriptions.

A :class:`Task` captures everything a worker process needs to recompute
one result from scratch — benchmark name (or scenario spec) + trace
parameters, design key + parameters, and the full :class:`GPUConfig` —
so the campaign engine can ship it across a ``ProcessPoolExecutor``
boundary and key its persistent cache entry by content
(:meth:`Task.fingerprint`).

Tasks whose fingerprints differ only in the design form a *trace group*.
The engine hands every task of a group one :class:`SharedInputs`, so
the trace and, for functional simulations, the coalesced column arrays
are built once per group instead of once per task.

Task kinds:

``simulate``
    One simulation at the task's fidelity; payload is a
    :class:`~repro.sim.simulator.RunResult`.
``pd-sweep``
    The SPDP-B offline protecting-distance sweep on the functional
    backend; payload is the best PD (``int``).  Defined here (rather
    than in ``repro.experiments``) so workers need no experiment-layer
    imports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec, make_design
from repro.sim.functional.engine import FunctionalEngine, build_run_arrays
from repro.sim.simulator import FIDELITIES, simulate
from repro.trace.trace import KernelTrace

from repro.runner.cache import config_fingerprint, stable_hash

__all__ = [
    "PD_SWEEP",
    "SharedInputs",
    "Task",
    "run_task",
    "run_task_armed",
    "sweep_optimal_pd",
]

#: Candidate protecting distances for the SPDP-B offline sweep
#: (canonical definition; re-exported by ``repro.experiments.common``).
PD_SWEEP: Tuple[int, ...] = (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 68, 96)

TASK_KINDS = ("simulate", "pd-sweep")

_DEFAULT_CONFIG = GPUConfig()


def _changed_fields(value: Any, default: Any, prefix: str = "") -> List[str]:
    """``name=value`` for each dataclass field that differs from
    ``default``, descending into nested dataclasses by dotted name."""
    changed: List[str] = []
    for f in dataclasses.fields(value):
        mine, base = getattr(value, f.name), getattr(default, f.name)
        if mine == base:
            continue
        if dataclasses.is_dataclass(mine):
            changed += _changed_fields(mine, base, f"{prefix}{f.name}.")
        else:
            changed.append(f"{prefix}{f.name}={mine}")
    return changed


def sweep_optimal_pd(
    trace: KernelTrace,
    config: GPUConfig,
    candidates: Sequence[int] = PD_SWEEP,
) -> int:
    """Offline per-benchmark PD sweep (defines SPDP-B, as in the paper).

    Replays every candidate on the functional backend over one ``lrr``
    array build and picks the PD with the lowest L1 miss rate; ties go
    to the smaller PD (cheaper hardware).  SPDP-B takes no L2 hints, so
    each candidate runs the PDP route's L1 half alone, and its L1
    counters equal the ``replay()`` oracle's L1-only run.
    """
    arrays = build_run_arrays(trace, config, "lrr")
    best_pd = candidates[0]
    best_miss = float("inf")
    for pd in candidates:
        engine = FunctionalEngine(config, make_design("spdp-b", pd=pd))
        engine.pdp_l1(arrays)
        accesses = engine.l1_loads + engine.l1_stores
        hits = engine.l1_load_hits + engine.l1_store_hits
        miss = (accesses - hits) / accesses if accesses else 0.0
        if miss < best_miss - 1e-9:
            best_miss = miss
            best_pd = pd
    return best_pd


class SharedInputs:
    """Design-independent inputs of one trace group, built on first use.

    A build runs inside the attempt of the task that first needs it, so
    that task's seconds and errors cover it.  A build that raises
    stores nothing; the next task of the group tries again.  Replays
    only read the arrays (their ``ensure_*`` columns are added lazily,
    never rewritten), so every design of the group may use them.
    """

    __slots__ = ("trace", "arrays")

    def __init__(self) -> None:
        self.trace: Optional[KernelTrace] = None
        self.arrays = None

    def trace_for(self, task: "Task") -> KernelTrace:
        if self.trace is None:
            self.trace = task.build_trace()
        return self.trace

    def arrays_for(self, task: "Task"):
        if self.arrays is None:
            # Exactly the cold-engine arrays simulate() would build.
            self.arrays = build_run_arrays(
                self.trace_for(task), task.config, task.config.warp_scheduler
            )
        return self.arrays


@dataclass
class Task:
    """One unit of campaign work.

    Args:
        kind: ``"simulate"`` or ``"pd-sweep"``.
        benchmark: Table-1 benchmark name, rebuilt in the worker via
            :func:`repro.trace.suite.build_benchmark` from
            ``(benchmark, scale, seed)``.
        design: Design key (ignored by ``pd-sweep``).
        pd: Protecting distance for ``spdp-b`` tasks.
        scale: Trace scale factor.
        seed: Trace generation seed.
        config: Full architectural configuration (hashed field-by-field
            into the cache key, so any change invalidates).
        victim_share_factor: ``S_v`` for victim-bit sharing runs.
        pd_candidates: Candidate PDs for ``pd-sweep`` tasks.
        fidelity: ``"timing"`` (cycle-accurate, the default) or
            ``"functional"`` (fast vectorized replay with estimated
            cycles) for ``simulate`` tasks.  Part of the cache key, so
            the two fidelities never alias each other's results.
        trace: Optional pre-built trace of the task's benchmark or
            scenario.  Only an execution shortcut: the cache key still
            uses benchmark (or scenario)/scale/seed.
        scenario: Declarative scenario spec document (a plain dict — it
            must cross the pickle boundary), built in the worker via
            :func:`repro.scenarios.build_scenario` with this task's
            ``scale``/``seed``.  The cache key is the content-addressed
            :func:`repro.scenarios.spec_digest` of the canonicalized
            spec, so editing any knob — or the schema defaults it
            inherits — invalidates exactly the affected entries.
        shared: Optional :class:`SharedInputs` of the task's trace
            group.  Like ``trace`` it is only an execution shortcut,
            never part of the key; the engine attaches it in the process
            that runs the group.
    """

    kind: str
    benchmark: Optional[str] = None
    design: str = "bs"
    pd: Optional[int] = None
    scale: float = 1.0
    seed: int = 0
    config: GPUConfig = field(default_factory=GPUConfig)
    victim_share_factor: int = 1
    pd_candidates: Tuple[int, ...] = PD_SWEEP
    trace: Optional[KernelTrace] = None
    fidelity: str = "timing"
    scenario: Optional[Dict[str, Any]] = None
    shared: Optional[SharedInputs] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; known: {TASK_KINDS}")
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; expected one of {FIDELITIES}"
            )
        if self.fidelity != "timing" and self.kind != "simulate":
            raise ValueError(
                f"fidelity={self.fidelity!r} only applies to simulate tasks, "
                f"not {self.kind!r}"
            )
        if self.benchmark is None and self.scenario is None:
            raise ValueError(
                "task needs a benchmark name or a scenario spec "
                "(a trace is only an execution shortcut)"
            )
        if self.benchmark is not None and self.scenario is not None:
            raise ValueError("benchmark and scenario are mutually exclusive")
        if self.kind == "simulate" and self.design == "spdp-b" and self.pd is None:
            raise ValueError("spdp-b simulate tasks need pd=...")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def workload(self) -> Optional[str]:
        """Benchmark name, else the scenario's name."""
        if self.benchmark is not None:
            return self.benchmark
        return self.scenario.get("name")

    @property
    def label(self) -> str:
        """Manifest label naming this task, e.g. ``simulate:SPMV/gc``.

        Non-default fidelities render inline
        (``simulate[functional]:SPMV/gc``).  Every keyed field that
        differs from its default follows an ``@``: ``GPUConfig`` fields
        (nested ``dram_timing`` ones by dotted name), then
        ``victim_share_factor`` or ``pd_candidates``, as in
        ``simulate:SPMV/gc@l1_size=65536``.  ``scale`` and ``seed`` are
        campaign-wide and stay out, as does ``pd``, which every
        producer derives from the pd-sweep of the same workload.
        """
        name = self.workload or "?"
        changed = (
            [] if self.config == _DEFAULT_CONFIG
            else _changed_fields(self.config, _DEFAULT_CONFIG)
        )
        if self.kind == "pd-sweep":
            label = f"pd-sweep:{name}"
            if tuple(self.pd_candidates) != PD_SWEEP:
                changed.append(
                    "pd_candidates=" + "-".join(map(str, self.pd_candidates))
                )
        else:
            kind = self.kind
            if self.fidelity != "timing":
                kind = f"{kind}[{self.fidelity}]"
            label = f"{kind}:{name}/{self.design}"
            if self.victim_share_factor != 1:
                changed.append(f"victim_share_factor={self.victim_share_factor}")
        return f"{label}@{','.join(changed)}" if changed else label

    def fingerprint(self) -> Dict[str, Any]:
        """Everything that determines this task's result, as plain data."""
        fp: Dict[str, Any] = {
            "kind": self.kind,
            "config": config_fingerprint(self.config),
        }
        if self.scenario is not None:
            from repro.scenarios import spec_digest

            # Content-addressed: the digest covers the canonical spec
            # with this task's scale/seed applied, so scale/seed need no
            # separate fingerprint entries.
            fp["scenario"] = spec_digest(
                self.scenario, scale=self.scale, seed=self.seed
            )
        else:
            fp["benchmark"] = self.benchmark
            fp["scale"] = self.scale
            fp["seed"] = self.seed
        if self.kind == "pd-sweep":
            fp["pd_candidates"] = list(self.pd_candidates)
        else:
            fp["design"] = self.design
            fp["pd"] = self.pd
            fp["victim_share_factor"] = self.victim_share_factor
        if self.kind == "simulate":
            fp["fidelity"] = self.fidelity
        return fp

    def key(self, salt: str) -> str:
        """Stable cache key: SHA-256 over fingerprint + code salt."""
        return stable_hash({"salt": salt, **self.fingerprint()})

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def build_trace(self) -> KernelTrace:
        if self.trace is not None:
            return self.trace
        if self.scenario is not None:
            from repro.scenarios import build_scenario

            return build_scenario(self.scenario, scale=self.scale, seed=self.seed)
        from repro.trace.suite import build_benchmark

        return build_benchmark(self.benchmark, scale=self.scale, seed=self.seed)

    def build_design(self) -> DesignSpec:
        return make_design(self.design, pd=self.pd)


def run_task(task: Task) -> Any:
    """Execute one task; the top-level worker entry point.

    Without :attr:`Task.shared` everything is built from scratch.  With
    it, the trace (and a functional simulation's arrays) come from the
    group's :class:`SharedInputs`, built there on first use.
    """
    shared = task.shared
    trace = task.build_trace() if shared is None else shared.trace_for(task)
    if task.kind == "simulate":
        arrays = None
        if shared is not None and task.fidelity == "functional":
            arrays = shared.arrays_for(task)
        return simulate(
            trace,
            task.config,
            task.build_design(),
            victim_share_factor=task.victim_share_factor,
            fidelity=task.fidelity,
            arrays=arrays,
        )
    return sweep_optimal_pd(trace, task.config, task.pd_candidates)


def run_task_armed(task: Task, key: str, attempt: int, plan=None) -> Tuple[Any, float]:
    """``(payload, wall_seconds)`` of one attempt, fault injection first.

    The seconds cover :func:`run_task` only, so they measure the
    attempt's own compute (including any shared-input build it
    triggered), not queueing.  With ``plan`` ``None`` (the production
    path) the injector costs one check.  With a
    :class:`repro.faults.FaultPlan` armed, the planned fault for
    ``(key, attempt)`` fires *before* any real work, so a faulted
    attempt never wastes simulation time and a retry recomputes,
    keeping payloads bit-identical to fault-free runs.
    """
    import time

    if plan is not None:
        from repro.faults import inject

        inject(plan, key, attempt)
    t0 = time.perf_counter()
    payload = run_task(task)
    return payload, time.perf_counter() - t0

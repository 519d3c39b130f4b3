"""Shared infrastructure for the paper-figure experiments.

:class:`EvalSuite` runs the benchmark x design matrix once and caches the
results, so Fig. 8 (speedups), Fig. 9 (miss rates) and Table 3 (bypass
ratios) are different views of the same runs — exactly as in the paper,
where they come from one simulation campaign.

Since the campaign engine refactor the suite is a thin veneer over
:class:`repro.runner.CampaignEngine`: every run is described as a
:class:`repro.runner.Task`, which gives the suite process-pool
parallelism (``jobs=...``), a persistent on-disk result cache
(``cache_dir=...``) and a per-run manifest for free, while results stay
bit-identical to the old serial in-memory path (each task re-executes
from a self-contained description).  :meth:`EvalSuite.run_matrix`
prefetches the whole campaign in two parallel waves (PD sweeps, then
simulations); individual :meth:`EvalSuite.run` calls stay lazily
memoized on top.

The SPDP-B design needs a per-benchmark *optimal* protecting distance
(the paper's Table 3 lists them).  We find it the way the authors did:
an offline sweep on the functional backend, minimizing L1 miss rate
(canonical implementation: :func:`repro.runner.task.sweep_optimal_pd`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.runner import CampaignEngine, ResultCache, Task
from repro.runner.task import PD_SWEEP, sweep_optimal_pd
from repro.sim.config import GPUConfig
from repro.sim.designs import DesignSpec, make_design
from repro.sim.simulator import RunResult
from repro.stats.report import geomean
from repro.trace.suite import (
    ALL_BENCHMARKS,
    CACHE_INSENSITIVE,
    CACHE_SENSITIVE,
    MODERATELY_SENSITIVE,
    build_benchmark,
)
from repro.trace.trace import KernelTrace

__all__ = [
    "PD_SWEEP",
    "PAPER_DESIGNS",
    "EvalSuite",
    "sweep_optimal_pd",
    "group_rows",
]

#: Designs evaluated in Figs. 8-10 (SPDP-B is parameterized separately).
PAPER_DESIGNS: Tuple[str, ...] = ("bs", "bs-s", "pdp-3", "pdp-8", "spdp-b", "gc")


class EvalSuite:
    """One simulation campaign: benchmarks x designs, lazily evaluated.

    Args:
        config: Architectural configuration (Table 2 default).
        benchmarks: Benchmark names; defaults to the full Table-1 suite.
        scale: Trace scale factor (1.0 = experiment size).
        seed: Trace generation seed.
        jobs: Worker processes for batch execution (1 = serial, the
            default; ``None`` = ``os.cpu_count()``).  Ignored when an
            explicit ``engine`` is supplied.
        cache_dir: Persistent result-cache directory; ``None`` disables
            on-disk caching (in-memory memoization always applies).
        retries: Failures tolerated per task before the campaign gives
            up on it (forwarded to the engine; ignored with ``engine=``).
        task_timeout: Per-attempt wall-clock budget in seconds, enforced
            under ``jobs >= 2`` (forwarded; ignored with ``engine=``).
        engine: Share a pre-built campaign engine (and thus its cache,
            journal, fault plan and counters) across several suites /
            harnesses.
        fidelity: Simulation fidelity for every simulate task in the
            suite: ``"timing"`` (cycle-accurate, default) or
            ``"functional"`` (fast vectorized replay; exact cache
            counters, estimated cycles).  PD sweeps are unaffected (they
            always run on the functional backend).
        scenarios: Declarative scenario spec documents
            (:mod:`repro.scenarios`).  Each is canonicalized with the
            suite's scale/seed and its name joins the workload matrix
            alongside ``benchmarks`` — every suite method (``run``,
            ``run_matrix``, ``speedup``, ...) accepts scenario names
            transparently.  When ``benchmarks`` is omitted and scenarios
            are given, the matrix is the scenarios alone (not Table 1 +
            scenarios).
    """

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        benchmarks: Optional[Sequence[str]] = None,
        scale: float = 1.0,
        seed: int = 0,
        jobs: Optional[int] = 1,
        cache_dir: Optional[str] = None,
        retries: int = 0,
        task_timeout: Optional[float] = None,
        engine: Optional[CampaignEngine] = None,
        fidelity: str = "timing",
        scenarios: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> None:
        self.config = config if config is not None else GPUConfig()
        if benchmarks:
            self.benchmarks = list(benchmarks)
        else:
            self.benchmarks = [] if scenarios else list(ALL_BENCHMARKS)
        self.scale = scale
        self.seed = seed
        self.fidelity = fidelity
        self._scenarios: Dict[str, Dict[str, Any]] = {}
        if scenarios:
            from repro.scenarios import canonical_spec

            for doc in scenarios:
                spec = canonical_spec(doc, scale=scale, seed=seed)
                name = spec["name"]
                if name in self._scenarios or name in self.benchmarks:
                    raise ValueError(
                        f"duplicate workload name {name!r} in the suite matrix"
                    )
                self._scenarios[name] = spec
                self.benchmarks.append(name)
        if engine is None:
            cache = ResultCache(cache_dir) if cache_dir is not None else None
            engine = CampaignEngine(
                jobs=jobs, cache=cache, retries=retries, task_timeout=task_timeout
            )
        self.engine = engine
        self._traces: Dict[str, KernelTrace] = {}
        self._results: Dict[Tuple[str, str], RunResult] = {}
        self._optimal_pds: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Task construction
    # ------------------------------------------------------------------
    def _sim_task(self, benchmark: str, design: str, inline: bool) -> Task:
        """Simulate-task for one grid point.

        ``inline`` attaches the memoized trace as an execution shortcut
        for serial in-process runs; the cache key is unaffected (it is
        always derived from ``(benchmark, scale, seed)``).
        """
        return Task(
            kind="simulate",
            design=design,
            pd=self.optimal_pd(benchmark) if design == "spdp-b" else None,
            scale=self.scale,
            seed=self.seed,
            config=self.config,
            trace=self._traces.get(benchmark) if inline else None,
            fidelity=self.fidelity,
            **self._workload_fields(benchmark),
        )

    def _pd_task(self, benchmark: str, inline: bool = False) -> Task:
        return Task(
            kind="pd-sweep",
            scale=self.scale,
            seed=self.seed,
            config=self.config,
            trace=self._traces.get(benchmark) if inline else None,
            **self._workload_fields(benchmark),
        )

    def _workload_fields(self, name: str) -> Dict[str, Any]:
        """Task identity for one matrix workload: benchmark or scenario."""
        if name in self._scenarios:
            return {"scenario": self._scenarios[name]}
        return {"benchmark": name}

    # ------------------------------------------------------------------
    # Lazily-built artefacts
    # ------------------------------------------------------------------
    def trace(self, benchmark: str) -> KernelTrace:
        """The workload's trace, memoized until released (see
        :meth:`_holding`)."""
        if benchmark not in self._traces:
            if benchmark in self._scenarios:
                from repro.scenarios import build_scenario

                # Canonical docs already carry the suite's scale/seed.
                self._traces[benchmark] = build_scenario(
                    self._scenarios[benchmark]
                )
            else:
                self._traces[benchmark] = build_benchmark(
                    benchmark, scale=self.scale, seed=self.seed
                )
        return self._traces[benchmark]

    @contextmanager
    def _holding(self, benchmark: str) -> Iterator[None]:
        """Memoize the workload's trace for the block, attached to its
        tasks as a shortcut, and release it after the outermost block:
        a campaign that runs one workload at a time then holds one
        trace at a time."""
        held = benchmark in self._traces
        self.trace(benchmark)
        try:
            yield
        finally:
            if not held:
                del self._traces[benchmark]

    def optimal_pd(self, benchmark: str) -> int:
        """The SPDP-B protecting distance for ``benchmark`` (Table 3)."""
        if benchmark not in self._optimal_pds:
            with self._holding(benchmark):
                self._optimal_pds[benchmark] = self.engine.run_one(
                    self._pd_task(benchmark, inline=True)
                )
        return self._optimal_pds[benchmark]

    def _design_for(self, key: str, benchmark: str) -> DesignSpec:
        if key == "spdp-b":
            return make_design("spdp-b", pd=self.optimal_pd(benchmark))
        return make_design(key)

    def run(self, benchmark: str, design: str) -> RunResult:
        """Simulate (benchmark, design) through the engine, memoized."""
        cache_key = (benchmark, design)
        if cache_key not in self._results:
            # An spdp-b task's PD sweep runs inside, on the same trace.
            with self._holding(benchmark):
                self._results[cache_key] = self.engine.run_one(
                    self._sim_task(benchmark, design, inline=True)
                )
        return self._results[cache_key]

    # ------------------------------------------------------------------
    # Campaign prefetch
    # ------------------------------------------------------------------
    def run_matrix(
        self,
        designs: Sequence[str] = PAPER_DESIGNS,
        benchmarks: Optional[Sequence[str]] = None,
    ) -> Dict[Tuple[str, str], RunResult]:
        """Run the whole benchmark x design matrix through the engine.

        Fans out in two waves so the engine can parallelize each: first
        the SPDP-B PD sweeps (they parameterize the spdp-b tasks), then
        every outstanding simulation.  Populates the same memo
        :meth:`run` uses, so figure renderers afterwards hit memory only.
        """
        benches = list(benchmarks) if benchmarks is not None else self.benchmarks
        if "spdp-b" in designs:
            missing = [b for b in benches if b not in self._optimal_pds]
            if missing:
                pds = self.engine.run([self._pd_task(b) for b in missing])
                self._optimal_pds.update(zip(missing, pds))
        grid = [
            (b, d) for b in benches for d in designs if (b, d) not in self._results
        ]
        if grid:
            results = self.engine.run(
                [self._sim_task(b, d, inline=False) for b, d in grid]
            )
            self._results.update(zip(grid, results))
        return {
            (b, d): self._results[(b, d)] for b in benches for d in designs
        }

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def speedup(self, benchmark: str, design: str) -> float:
        """IPC speedup of ``design`` over the baseline (BS)."""
        return self.run(benchmark, design).speedup_over(self.run(benchmark, "bs"))

    def speedup_gmean(self, benchmarks: Sequence[str], design: str) -> float:
        return geomean(self.speedup(b, design) for b in benchmarks)


def group_rows() -> List[Tuple[str, List[str]]]:
    """The paper's three benchmark groups, in Table-1 order."""
    return [
        ("Cache Sensitive", list(CACHE_SENSITIVE)),
        ("Moderately Sensitive", list(MODERATELY_SENSITIVE)),
        ("Cache Insensitive", list(CACHE_INSENSITIVE)),
    ]

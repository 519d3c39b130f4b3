"""End-to-end benchmark of the ``repro`` CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-functional --seed 0 \\
        --seconds 40 --trace 0

Each workload is a closed loop: one user runs one campaign, waits for
its manifest, and starts the next, until ``--seconds`` have passed.
Every campaign is a real ``python -m repro ...`` subprocess with a fresh
result cache, timed from launch until it exits after writing its
manifest.  After each campaign, outside the timed window, every task's
simulated counters are read back from the result cache and checked: the
same on every campaign of the run, equal to the pinned digests at seed
0, and, for a few seed-chosen functional tasks, equal to the scalar
``replay()`` oracle.

``--trace 1`` alternates an untraced campaign with one run under
``traced.py``, which records a span around each layer, and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import arith

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Functional tasks per run re-checked against the scalar oracle.
ORACLE_TASKS = 2

DESIGNS_ALL = ("bs", "gc", "dbp", "pdp-8")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Workload:
    invocations: Tuple[Tuple[str, ...], ...]
    scale: float
    #: Untimed invocation whose results seed every campaign's cache.
    precache: Optional[Tuple[str, ...]] = None
    #: Prefix length of ``generate_space()`` for scenario workloads.
    scenarios: Optional[int] = None


def _campaign(fidelity: str, designs: str, scale: float, jobs: int) -> Tuple[str, ...]:
    return ("campaign", "--fidelity", fidelity, "--designs", designs,
            "--scale", str(scale), "--jobs", str(jobs))


def _sweep(limit: int, scale: float) -> Tuple[str, ...]:
    return ("scenario", "sweep", "--designs", "bs,gc", "--limit", str(limit),
            "--scale", str(scale), "--jobs", "1")


WORKLOADS: Dict[str, Workload] = {
    # 17 Table-1 benchmarks x 4 designs on the functional backend.
    "campaign-functional": Workload(
        invocations=(_campaign("functional", ",".join(DESIGNS_ALL), 0.15, 1),),
        scale=0.15,
    ),
    # The same 17 x bs,gc at both fidelities against one cache.
    "paired-fidelity": Workload(
        invocations=(_campaign("timing", "bs,gc", 0.1, 2),
                     _campaign("functional", "bs,gc", 0.1, 2)),
        scale=0.1,
    ),
    # 32 generated scenarios x bs,gc; the first 16 are already cached.
    "scenario-sweep": Workload(
        invocations=(_sweep(32, 0.15),),
        precache=_sweep(16, 0.15),
        scale=0.15,
        scenarios=32,
    ),
}


# ---------------------------------------------------------------------------
# Running the CLI
# ---------------------------------------------------------------------------


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("REPRO_CACHE_DIR", "REPRO_FAULTS"):
        env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(cmd: List[str], log: Path, ok=(0,)) -> Tuple[float, float, float]:
    """Run ``cmd`` to completion; ``(launch, exit, peak RSS in MB)``.

    An exit code outside ``ok`` is a :class:`BenchError`.

    ``os.wait4`` reports the child's peak RSS, which on Linux is the
    largest of the child and every descendant it reaped (pool workers).
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in ok:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{_tail(log)}")
    return t0, t1, usage.ru_maxrss / 1024.0


def _tail(log: Path) -> str:
    return log.read_text(encoding="utf-8", errors="replace")[-2000:]


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    manifest: dict
    spans: Optional[List[dict]] = None
    main_pid: int = 0

    @property
    def jobs(self) -> int:
        return int(self.manifest["jobs"])

    @property
    def task_seconds(self) -> Dict[str, float]:
        return {rec["label"]: float(rec["seconds"]) for rec in self.manifest["tasks"]}


def _load_spans(path: Path, launch: float) -> Tuple[int, List[dict]]:
    """Main-process spans plus every worker's, parents re-indexed, with
    a ``python.startup`` span from launch to the script's first line."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    main_pid = doc["main_pid"]
    spans = [{"name": "python.startup", "start": launch, "end": doc["start"],
              "parent": None, "pid": main_pid}]

    def extend(batch: List[dict]) -> None:
        base = len(spans)
        for s in batch:
            if s["parent"] is not None:
                s["parent"] += base
            spans.append(s)

    extend(doc["spans"])
    for worker in sorted(path.parent.glob(path.name + ".*.jsonl")):
        for line in worker.read_text(encoding="utf-8").splitlines():
            extend(json.loads(line)["spans"])
    return main_pid, spans


def invoke(argv: Tuple[str, ...], cache: Path, seed: int, tag: str,
           traced: bool) -> Invocation:
    manifest = cache.parent / f"{tag}.manifest.json"
    # --keep-going: a failed task is recorded in the manifest and counted,
    # instead of aborting the campaign (exit code 1).
    args = [*argv, "--seed", str(seed), "--cache-dir", str(cache),
            "--manifest", str(manifest), "--keep-going"]
    spans_out = cache.parent / f"{tag}.spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced.py"), str(spans_out), "--", *args]
    else:
        cmd = [sys.executable, "-m", "repro", *args]
    log = cache.parent / f"{tag}.log"
    t0, t1, rss = _spawn(cmd, log, ok=(0, 1))
    if not manifest.exists():
        raise BenchError(f"{' '.join(cmd)} wrote no manifest:\n{_tail(log)}")
    inv = Invocation(t1 - t0, rss, json.loads(manifest.read_text(encoding="utf-8")))
    if traced:
        inv.main_pid, inv.spans = _load_spans(spans_out, t0)
    return inv


# ---------------------------------------------------------------------------
# One campaign of a workload
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    invocations: List[Invocation]
    payloads: Dict[str, tuple] = field(default_factory=dict)
    digests: Dict[str, Optional[str]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invocations)

    @property
    def setup_s(self) -> float:
        return sum(arith.setup_seconds(i.wall_s, i.manifest) for i in self.invocations)

    @property
    def rss_mb(self) -> float:
        return max(i.rss_mb for i in self.invocations)

    @property
    def tasks(self) -> int:
        return sum(i.manifest["counters"]["tasks"] for i in self.invocations)

    @property
    def failed_labels(self) -> set:
        return {rec["label"] for i in self.invocations
                for rec in i.manifest["tasks"] if rec["failed"]}

    def executed_instructions(self) -> int:
        return sum(
            payload.instructions for rec, payload in self.payloads.values()
            if payload is not None and not rec["cached"] and not rec["coalesced"]
        )


def run_iteration(wl: Workload, seed: int, work: Path, n: int,
                  traced: bool) -> Iteration:
    import check

    it_dir = work / f"it{n}"
    cache = it_dir / "cache"
    if wl.precache is not None:
        shutil.copytree(work / "precache", cache)
    else:
        cache.mkdir(parents=True)
    it = Iteration([invoke(argv, cache, seed, f"inv{k}", traced)
                    for k, argv in enumerate(wl.invocations)])
    for inv in it.invocations:
        it.payloads.update(check.load_payloads(cache, inv.manifest))
    it.digests = check.digests(it.payloads)
    shutil.rmtree(it_dir)
    return it


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(its: List[Iteration]) -> Tuple[Dict[str, float], Dict[str, List[float]]]:
    """The reported end-to-end metrics, and each campaign's own figures.

    ``wall_s`` is :func:`arith.undisturbed_wall` of each invocation,
    summed; ``sim_kinst_per_s`` divides by it.  ``setup_s`` and
    ``peak_rss_mb`` are medians over the campaigns.
    """
    wall = sum(
        arith.undisturbed_wall([(it.invocations[k].wall_s, it.invocations[k].jobs,
                                 it.invocations[k].task_seconds) for it in its])
        for k in range(len(its[0].invocations)))
    kinst = [it.executed_instructions() / 1000.0 for it in its]
    samples = {
        "wall_s": [it.wall_s for it in its],
        "setup_s": [it.setup_s for it in its],
        "sim_kinst_per_s": [k / it.wall_s for k, it in zip(kinst, its)],
        "peak_rss_mb": [it.rss_mb for it in its],
    }
    reported = {
        "wall_s": wall,
        "setup_s": statistics.median(samples["setup_s"]),
        "sim_kinst_per_s": statistics.median(kinst) / wall,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    return reported, samples


def _speedups(it: Iteration, fidelity: str) -> Dict[str, float]:
    ipc: Dict[Tuple[str, str], float] = {}
    for rec, payload in it.payloads.values():
        if rec["fidelity"] == fidelity and payload is not None:
            ipc[(rec["benchmark"], rec["design"])] = payload.ipc
    return {b: ipc[(b, "gc")] / ipc[(b, "bs")]
            for (b, d) in ipc if d == "bs" and (b, "gc") in ipc}


def accuracy(it: Iteration) -> Optional[Dict[str, float]]:
    """Functional-vs-timing verdict agreement, if both fidelities ran."""
    reference, estimated = _speedups(it, "timing"), _speedups(it, "functional")
    if not (set(reference) & set(estimated)):
        return None
    return arith.estimator_accuracy(reference, estimated)


def model_guards(it: Iteration) -> Dict[str, float]:
    """Aggregate miss and bypass rates per design (functional tasks)."""
    sums: Dict[str, List[int]] = {}
    for rec, payload in it.payloads.values():
        if rec["fidelity"] != "functional" or payload is None:
            continue
        s = sums.setdefault(rec["design"], [0, 0, 0, 0, 0])
        s[0] += payload.l1.misses
        s[1] += payload.l1.accesses
        s[2] += payload.l2.misses
        s[3] += payload.l2.accesses
        s[4] += payload.l1.bypasses
    out: Dict[str, float] = {}
    for d in DESIGNS_ALL:
        m1, a1, m2, a2, byp = sums.get(d, [0, 0, 0, 0, 0])
        out[f"model.l1_miss_rate.{d}"] = m1 / a1 if a1 else 0.0
        out[f"model.l2_miss_rate.{d}"] = m2 / a2 if a2 else 0.0
        if d == "gc":
            out["model.l1_bypass_frac.gc"] = byp / a1 if a1 else 0.0
    return out


def runner_metrics(it: Iteration) -> Dict[str, float]:
    """From an untraced campaign's manifests."""
    task_s = elapsed = capacity = overhead = 0.0
    by_fidelity = {"timing": 0.0, "functional": 0.0}
    for inv in it.invocations:
        c = inv.manifest["counters"]
        task_s += c["task_seconds"]
        elapsed += c["elapsed_seconds"]
        capacity += c["elapsed_seconds"] * inv.jobs
        overhead += c["elapsed_seconds"] - c["task_seconds"] / inv.jobs
        for rec in inv.manifest["tasks"]:
            by_fidelity[rec["fidelity"]] += rec["seconds"]
    return {
        "runner.task_s": task_s,
        "runner.overhead_s": overhead,
        "runner.pool_util": task_s / capacity if capacity else 0.0,
        "fidelity_speedup": (by_fidelity["timing"] / by_fidelity["functional"]
                             if by_fidelity["timing"] else 0.0),
    }


def layer_metrics(it: Iteration) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign."""
    shares: Dict[str, float] = {}
    for inv in it.invocations:
        for name, t in arith.layer_wall(inv.spans, inv.main_pid).items():
            shares[name] = shares.get(name, 0.0) + t
    spans = [s for inv in it.invocations for s in inv.spans]
    selfs = [t for inv in it.invocations for t in arith.self_times(inv.spans)]

    def named(name: str) -> List[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str, attr: str) -> float:
        return sum(s[attr] for s in named(name))

    def busy(name: str, design: Optional[str] = None) -> float:
        """Self time summed over every process, optionally for one design."""
        return sum(t for s, t in zip(spans, selfs) if s["name"] == name
                   and (design is None or s["design"] == design))

    m: Dict[str, float] = {}
    builds = named("trace.build")
    m["trace.build_s"] = busy("trace.build")
    m["trace.builds"] = len(builds)
    m["trace.ops"] = total("trace.build", "ops")
    m["trace.builds_per_trace"] = arith.builds_per_trace(
        tuple(s["trace"]) for s in builds)
    m["streams.build_s"] = busy("streams.build")
    m["streams.builds"] = len(named("streams.build"))
    m["streams.txns"] = total("streams.build", "txns")
    m["arrays.build_s"] = busy("arrays.build")
    replay_s = busy("functional.replay")
    m["functional.replay_s"] = replay_s
    for d in DESIGNS_ALL:
        m[f"functional.replay_s.{d}"] = busy("functional.replay", d)
    m["functional.burst_s"] = total("functional.replay", "burst")
    m["functional.probe_s"] = total("functional.replay", "probe")
    m["functional.scalar_s"] = total("functional.replay", "scalar_event")
    m["functional.txns_per_s"] = (total("functional.replay", "txns") / replay_s
                                  if replay_s else 0.0)
    sim_s = busy("timing.simulate")
    accesses = total("timing.simulate", "l1_accesses")
    m["timing.simulate_s"] = sim_s
    for d in ("bs", "gc"):
        m[f"timing.simulate_s.{d}"] = busy("timing.simulate", d)
    m["timing.cycles"] = total("timing.simulate", "cycles")
    m["timing.l1_accesses"] = accesses
    m["timing.ns_per_l1_access"] = sim_s * 1e9 / accesses if accesses else 0.0
    m["sim.dispatch_s"] = busy("sim.simulate")
    # In a pooled campaign the engine's own span is mostly waiting on
    # workers, which layer_wall hands to the workers' layers.
    m["runner.self_s"] = shares.get("runner.run", 0.0) + busy("runner.task")
    gets = named("cache.get")
    m["cache.get_s"] = busy("cache.get")
    m["cache.hits"] = sum(1 for s in gets if s["hit"])
    m["cache.put_s"] = busy("cache.put")
    m["cache.puts"] = len(named("cache.put"))
    m["cache.put_bytes"] = total("cache.put", "bytes")
    m["journal.append_s"] = busy("journal.append")
    m["cli.setup_s"] = sum(shares.get(n, 0.0)
                           for n in ("python.startup", "cli.import", "cli.main"))
    attributed = sum(shares.values())
    m["traced.wall_s"] = it.wall_s
    m["tracing.unattributed_s"] = it.wall_s - attributed
    m["tracing.attributed_frac"] = attributed / it.wall_s
    return m


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _prepare(name: str, wl: Workload, seed: int) -> Path:
    """Fresh work directory, compiled imports and the precached results."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Compile bytecode once, so no campaign pays for it.
    _spawn([sys.executable, "-c", "import repro.cli, repro.scenarios, "
            "repro.sim.functional"], work / "warmup.log")
    if wl.precache is not None:
        cache = work / "precache"
        args = [*wl.precache, "--seed", str(seed), "--cache-dir", str(cache)]
        _spawn([sys.executable, "-m", "repro", *args], work / "precache.log")
        (cache / "journal.jsonl").unlink(missing_ok=True)
    return work


def _print_table(rows: List[Tuple[str, str, str, float, List[float]]]) -> None:
    print(f"{'metric':<26} {'reported':>12} {'min':>12} {'median':>12} "
          f"{'max':>12} {'n':>3}  unit, polarity")
    for name, unit, better, value, values in rows:
        print(f"{name:<26} {value:>12.6g} {min(values):>12.6g} "
              f"{statistics.median(values):>12.6g} {max(values):>12.6g} "
              f"{len(values):>3}  {unit}, {better} is better")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="write this run's task digests as the pinned "
                             "ones (seed 0 only)")
    args = parser.parse_args(argv)
    if args.pin and args.seed != 0:
        parser.error("--pin needs --seed 0")

    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        work = _prepare(args.workload, wl, args.seed)
        sys.path.insert(0, str(SRC))
        import check

        pin = None if args.pin or args.seed != 0 else check.pinned(args.workload)
        if args.seed == 0 and not args.pin and pin is None:
            raise BenchError(f"no pinned digests for {args.workload}")

        untraced: List[Iteration] = []
        traced: List[Iteration] = []
        attempted = failed = 0
        first: Optional[Dict[str, Optional[str]]] = None
        batch = [False, True] if args.trace else [False]
        t_start = time.perf_counter()
        longest = 0.0  # the longest pass so far, checks included
        while not untraced or time.perf_counter() - t_start + longest <= args.seconds:
            t_pass = time.perf_counter()
            for is_traced in batch:
                n = len(untraced) + len(traced)
                it = run_iteration(wl, args.seed, work, n, is_traced)
                (traced if is_traced else untraced).append(it)
                first = first if first is not None else it.digests
                wrong = it.failed_labels | {
                    label for label, d in it.digests.items()
                    if d is None or d != first.get(label)
                    or (pin is not None and d != pin.get(label))}
                if pin is not None:
                    wrong |= set(pin) - set(it.digests)
                attempted += it.tasks
                failed += len(wrong)
                print(f"[{args.workload}] campaign {n}{' traced' if is_traced else ''}: "
                      f"wall {it.wall_s:.3f}s, {it.tasks} tasks, "
                      f"{len(wrong)} failing the check", file=sys.stderr)
            longest = max(longest, time.perf_counter() - t_pass)

        last = untraced[-1]
        chosen, bad = check.oracle_mismatches(
            last.payloads, last.invocations[0].manifest["salt"],
            scale=wl.scale, seed=args.seed, scenarios=wl.scenarios,
            count=ORACLE_TASKS)
        failed += len(bad)
        print(f"[{args.workload}] oracle cross-check: {len(chosen) - len(bad)}"
              f"/{len(chosen)} tasks match replay()", file=sys.stderr)
        if args.pin:
            check.write_pin(args.workload, first)
        shutil.rmtree(work)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    acc = accuracy(last)
    if args.trace:
        per = [dict(layer_metrics(it), **model_guards(it)) for it in traced]
        runner = [runner_metrics(it) for it in untraced]
        values = {name: [p[name] for p in per] for name in per[0]}
        for name in runner[0]:
            values[name] = [r[name] for r in runner]
        for name in ("verdict_agree", "speedup_err_max", "speedup_err_mean"):
            values[name] = [acc[name] if acc else 0.0]
        values["tracing.overhead_s"] = [
            statistics.median([it.wall_s for it in traced])
            - statistics.median([it.wall_s for it in untraced])]
        report = {name: statistics.median(v) for name, v in values.items()}
    else:
        report, values = end_to_end(untraced)
    if set(values) != set(declared):
        print(f"benchmark error: metrics {sorted(set(values) ^ set(declared))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 2
    _print_table([(name, declared[name]["unit"], declared[name]["better"],
                   report[name], v) for name, v in values.items()])
    if acc:
        print(f"estimator vs timing over {acc['pairs']} benchmarks: verdicts agree "
              f"{acc['verdict_agree']:.4f}, speedup error max "
              f"{acc['speedup_err_max']:.4f} mean {acc['speedup_err_mean']:.4f}")
    metrics = {
        name: {"value": report[name], "unit": declared[name]["unit"]}
        for name in values
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

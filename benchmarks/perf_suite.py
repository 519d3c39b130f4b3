#!/usr/bin/env python3
"""Perf-gate benchmark suite: simulator throughput across kernels/designs.

Times full kernel simulations (trace build excluded) for the seed kernel
set across cache-management designs and reports, per (benchmark, design):

* ``runs_per_sec``    — whole simulations per second (best-of-N),
* ``cycles_per_sec``  — simulated core cycles per wall-clock second,
* ``peak_rss_kb``     — subprocess peak resident set size,
* ``normalized_cost`` — wall time divided by a machine calibration loop,
  a dimensionless cost that transfers across machines of different speed
  (the committed baseline in ``benchmarks/BENCH_4.json`` stores it).

Every measurement runs in a fresh subprocess with ``PYTHONPATH`` pointed
at the tree under test, one warmup run, then best-of-``--repeats`` timed
runs (minimum-of-N filters scheduler noise; the minimum approaches the
true cost).  The same harness backs ``benchmarks/overhead_check.py``.

Usage::

    # Absolute timing of the current tree, table to stdout
    python benchmarks/perf_suite.py

    # Refresh the committed baseline
    python benchmarks/perf_suite.py --write-baseline

    # CI gate A: head vs base checkout, same machine (preferred, robust)
    python benchmarks/perf_suite.py --base base/src --threshold 1.10

    # Gate B (advisory): head vs committed BENCH_4.json via calibration
    # (use a looser threshold on shared/throttled hosts)
    python benchmarks/perf_suite.py --check --threshold 1.5

    # Functional-fidelity gate: the vectorized replay backend must beat
    # the timing engine by >= 8x on the design-sweep workload
    python benchmarks/perf_suite.py --functional-gate

    # ...against a base checkout on the same machine: base timing over
    # head functional >= 8x, and the head's functional sweep no more
    # than --threshold (1.10) x the base's
    python benchmarks/perf_suite.py --functional-gate --base base/src

    # ...with a per-benchmark burst/scalar phase breakdown
    python benchmarks/perf_suite.py --functional-gate --profile-phases
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(HERE, "BENCH_4.json")

#: Baseline-blob schema: 1 = bare {"records": [...]}; 2 adds the
#: top-level "schema_version" stamp (readers accept both).
BENCH_SCHEMA_VERSION = 2

#: Seed kernel set for the gate: SPMV (irregular sparse algebra) and BFS
#: (graph traversal) are the paper's cache-sensitive extremes and the two
#: kernels the hot-path overhaul targets.
BENCHMARKS = ["SPMV", "BFS"]
#: Baseline cache (LRU, no management) and the paper's G-Cache.
DESIGNS = ["bs", "gc"]

#: Functional-gate workload: a design sweep (the backend's intended use —
#: streams/arrays are design-independent, so one stream build amortizes
#: over the whole sweep) across three management-model families.
FUNCTIONAL_BENCHMARKS = ["SPMV", "BFS", "KMN"]
FUNCTIONAL_DESIGNS = ["bs", "gc", "dbp"]

# The in-subprocess workload.  Calibration is a fixed pure-Python
# integer/list loop: it scales with interpreter speed the same way the
# simulator's hot loops do, so cost = run_seconds / calib_seconds is
# comparable across machines.  Peak RSS comes from the stdlib resource
# module (ru_maxrss is KB on Linux, bytes on macOS — normalised to KB).
_WORKLOAD = r"""
import json, resource, sys, time

def _calibrate():
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        acc, xs = 0, list(range(256))
        for i in range(200000):
            acc += xs[i & 255]
            if acc & 1:
                acc ^= i
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best

calib = _calibrate()

from repro.sim.config import GPUConfig
from repro.sim.designs import make_design
from repro.sim.simulator import simulate
from repro.trace.suite import build_benchmark

benchmark, design, scale, repeats, seed = (
    {benchmark!r}, {design!r}, {scale!r}, {repeats!r}, {seed!r}
)
config = GPUConfig()
trace = build_benchmark(benchmark, scale=scale, seed=seed)
spec = make_design(design)

result = simulate(trace, config, spec)  # warmup: imports, allocator, caches
best = None
for _ in range(repeats):
    t0 = time.perf_counter()
    result = simulate(trace, config, spec)
    dt = time.perf_counter() - t0
    best = dt if best is None or dt < best else best

rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    rss //= 1024
print(json.dumps({{
    "best_seconds": best,
    "calib_seconds": calib,
    "cycles": result.cycles,
    "instructions": result.instructions,
    "peak_rss_kb": rss,
}}))
"""


# Functional-vs-timing sweep workload.  Both sides run the same design
# sweep over the same trace in one subprocess, interleaved round by round
# (timing, then functional), so slow host drift hits both sides equally
# and the speedup ratio stays stable on noisy runners.  The functional
# side pays its real costs: stream + array construction is timed inside
# every functional round.
_FUNCTIONAL_WORKLOAD = r"""
import json, resource, sys, time

def _calibrate():
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        acc, xs = 0, list(range(256))
        for i in range(200000):
            acc += xs[i & 255]
            if acc & 1:
                acc ^= i
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best

calib = _calibrate()

from repro.sim.config import GPUConfig
from repro.sim.designs import make_design
from repro.sim.functional import (
    FunctionalEngine, build_core_arrays, functional_replay,
)
from repro.sim.replay import build_core_streams
from repro.sim.simulator import simulate
from repro.trace.suite import build_benchmark

benchmark, designs, scale, repeats, seed, profile = (
    {benchmark!r}, {designs!r}, {scale!r}, {repeats!r}, {seed!r}, {profile!r}
)
config = GPUConfig()
trace = build_benchmark(benchmark, scale=scale, seed=seed)
specs = [make_design(d) for d in designs]

def timing_sweep():
    return [simulate(trace, config, s) for s in specs]

phase_totals = {{"burst": 0.0, "probe": 0.0, "scalar_event": 0.0}}

def functional_sweep():
    streams = build_core_streams(trace, config)
    arrays = build_core_arrays(streams, config)
    if not profile:
        return [
            functional_replay(trace, config, s, streams=streams, arrays=arrays)
            for s in specs
        ]
    out = []
    for s in specs:
        eng = FunctionalEngine(config, s, profile=True)
        eng.run(trace, streams=streams, arrays=arrays)
        for k, v in eng.phase_seconds.items():
            phase_totals[k] += v
        out.append(eng.result(benchmark=trace.name))
    return out

timing_sweep()      # warmup: imports, allocator, caches
functional_sweep()
for k in phase_totals:   # profile the measured rounds only
    phase_totals[k] = 0.0
timing_rounds, functional_rounds = [], []
for _ in range(repeats):
    t0 = time.perf_counter()
    timing_sweep()
    timing_rounds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    functional_sweep()
    functional_rounds.append(time.perf_counter() - t0)

rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.platform == "darwin":
    rss //= 1024
print(json.dumps({{
    "timing_rounds": timing_rounds,
    "functional_rounds": functional_rounds,
    "phase_seconds": phase_totals if profile else None,
    "calib_seconds": calib,
    "peak_rss_kb": rss,
}}))
"""


def time_functional_sweep(
    src: str,
    benchmark: str,
    designs: Optional[List[str]] = None,
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 0,
    profile_phases: bool = False,
) -> Dict[str, object]:
    """Time the design sweep under both fidelities in one subprocess.

    With ``profile_phases`` the functional engines run with wall-clock
    phase instrumentation and the record gains ``phase_seconds`` /
    ``phase_split``: time inside the vectorized burst kernels and the
    scalar walks and event loops, summed over all measured rounds
    (uninstrumented residue — stream/array construction, state
    writeback — is the remainder against ``functional_seconds``).  The
    engine's ``probe`` phase is kept in the record and always reads 0.
    """
    designs = designs or FUNCTIONAL_DESIGNS
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = _FUNCTIONAL_WORKLOAD.format(
        benchmark=benchmark, designs=designs, scale=scale,
        repeats=repeats, seed=seed, profile=profile_phases,
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    raw = json.loads(out.splitlines()[-1])
    timing_rounds = [float(t) for t in raw["timing_rounds"]]
    functional_rounds = [float(f) for f in raw["functional_rounds"]]
    timing = min(timing_rounds)
    functional = min(functional_rounds)
    round_ratios = [t / f for t, f in zip(timing_rounds, functional_rounds)]
    calib = float(raw["calib_seconds"])
    rec: Dict[str, object] = {
        "benchmark": benchmark,
        "design": "functional",
        "mode": "functional",
        "sweep_designs": list(designs),
        "scale": scale,
        "repeats": repeats,
        "seed": seed,
        "timing_seconds": round(timing, 6),
        "functional_seconds": round(functional, 6),
        "speedup": round(timing / functional, 4),
        # Every round's seconds beside the best-of-N values: a FAIL then
        # shows whether the timing side sped up or the functional side
        # slowed down, and how far the ratio swings within one run.
        "timing_rounds": [round(t, 6) for t in timing_rounds],
        "functional_rounds": [round(f, 6) for f in functional_rounds],
        "round_speedup_min": round(min(round_ratios), 4),
        "round_speedup_max": round(max(round_ratios), 4),
        "peak_rss_kb": raw["peak_rss_kb"],
        "calib_seconds": round(calib, 6),
        "normalized_cost": round(functional / calib, 4),
    }
    phases = raw.get("phase_seconds")
    if phases:
        total = sum(phases.values()) or 1.0
        rec["phase_seconds"] = {
            k: round(float(v), 6) for k, v in sorted(phases.items())
        }
        rec["phase_split"] = {
            k: round(float(v) / total, 4) for k, v in sorted(phases.items())
        }
    return rec


def _rounds_text(timing_rounds: List[float],
                 functional_rounds: List[float]) -> str:
    """Per-round seconds and the min-max per-round speedup, for a gate line."""
    ratios = [t / f for t, f in zip(timing_rounds, functional_rounds)]
    return (
        "rounds timing " + "/".join(f"{t:.3f}" for t in timing_rounds)
        + "s functional " + "/".join(f"{f:.3f}" for f in functional_rounds)
        + f"s ratio {min(ratios):.2f}-{max(ratios):.2f}x"
    )


def functional_gate(
    src: str,
    threshold: float,
    benchmarks: Optional[List[str]] = None,
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 0,
    profile_phases: bool = False,
    ledger: Optional[str] = None,
    ledger_suite: str = "functional-gate",
    base: Optional[str] = None,
    slowdown: float = 1.10,
) -> int:
    """Fail (return 1) unless the functional backend beats the timing
    engine by at least ``threshold``x across the sweep suite and, with
    a ``base`` tree, runs no more than ``slowdown``x the base's time.

    With ``base`` (the ``src/`` of a baseline checkout), each benchmark
    times the sweep on both trees on the same runner, and the ratio
    divides the *base* tree's timing seconds by the head's functional
    seconds: a timing-engine change cannot move it within one change.
    The head's functional sweep also fails past ``slowdown``x the
    base's.  The head's own timing/functional ratio (the gate without a
    base) prints beside it.

    Gated on suite totals (sum of per-benchmark best times): one
    kernel's subprocess landing on a noisy core shifts its own ratio by
    ~15%, but the total — three subprocesses, interleaved fidelities
    inside each — stays put.  Per-benchmark ratios print as advisory.
    Each per-benchmark line and record, and the TOTAL line, also carry
    every round's timing and functional seconds and the min-max
    per-round ratio, so a FAIL shows which side moved.

    ``profile_phases`` adds a per-benchmark breakdown of where the
    functional side's time goes (burst kernels vs scalar walks and
    event loops); ``ledger`` appends the head's per-benchmark records —
    with the breakdown when profiled — to the perf/accuracy ledger.
    """
    print(f"-- functional gate (design sweep: {', '.join(FUNCTIONAL_DESIGNS)}) --")
    total_timing = total_functional = 0.0
    base_timing = base_functional = 0.0
    round_timing = [0.0] * repeats
    round_functional = [0.0] * repeats
    records: List[Dict[str, object]] = []
    for i, benchmark in enumerate(benchmarks or FUNCTIONAL_BENCHMARKS):
        def sweep(tree, profile=False):
            return time_functional_sweep(
                tree, benchmark, None, scale, repeats, seed,
                profile_phases=profile,
            )

        if base is not None:
            # Alternate which tree goes first, so drift hits both.
            if i % 2:
                ref, rec = sweep(base), sweep(src, profile_phases)
            else:
                rec, ref = sweep(src, profile_phases), sweep(base)
            base_timing += ref["timing_seconds"]
            base_functional += ref["functional_seconds"]
        else:
            rec = sweep(src, profile_phases)
        records.append(rec)
        total_timing += rec["timing_seconds"]
        total_functional += rec["functional_seconds"]
        for r in range(repeats):
            round_timing[r] += rec["timing_rounds"][r]
            round_functional[r] += rec["functional_rounds"][r]
        line = (
            f"{benchmark:<6} timing {rec['timing_seconds']:.3f}s  "
            f"functional {rec['functional_seconds']:.3f}s  "
            f"speedup {rec['speedup']:.2f}x  "
        )
        if base is not None:
            line += (
                f"base timing {ref['timing_seconds']:.3f}s  functional "
                f"{ref['functional_seconds']:.3f}s  "
            )
        print(line + _rounds_text(rec["timing_rounds"],
                                  rec["functional_rounds"]))
        if "phase_split" in rec:
            split = rec["phase_split"]
            instrumented = sum(rec["phase_seconds"].values())
            print(
                "       phases: "
                + "  ".join(
                    f"{k} {split[k]:.0%}" for k in sorted(split)
                )
                + f"  (instrumented {instrumented:.3f}s over "
                f"{repeats} rounds)"
            )
    if ledger is not None:
        # The ledger lives in the analysis package of the tree under
        # test; mirror the import dance of the perf-gate path.
        sys.path.insert(0, os.path.abspath(src))
        from repro.analysis import Ledger, record_from_bench

        record = record_from_bench(
            {"schema_version": BENCH_SCHEMA_VERSION, "records": records},
            suite=ledger_suite,
        )
        Ledger(ledger).append(record)
        print(f"[ledger] appended {ledger_suite} record "
              f"({len(record['metrics'])} metrics) -> {ledger}")
    own = total_timing / total_functional
    print(
        f"TOTAL  timing {total_timing:.3f}s  "
        f"functional {total_functional:.3f}s  "
        f"speedup {own:.2f}x  "
        + _rounds_text(round_timing, round_functional)
    )
    failures = []
    if base is None:
        speedup = own
        label = "head timing / head functional"
    else:
        speedup = base_timing / total_functional
        label = "base timing / head functional"
        ratio = total_functional / base_functional
        verdict = "OK" if ratio <= slowdown else "FAIL"
        print(
            f"BASE   timing {base_timing:.3f}s  "
            f"functional {base_functional:.3f}s  "
            f"head/base functional {ratio:.3f} (<= {slowdown:.2f}) {verdict}"
        )
        if ratio > slowdown:
            failures.append(
                f"functional sweep {ratio:.3f}x the base's "
                f"(> {slowdown:.2f}x)"
            )
    verdict = "OK" if speedup >= threshold else "FAIL"
    print(f"GATE   {label} {speedup:.2f}x (>= {threshold:.1f}x) {verdict}")
    if speedup < threshold:
        failures.append(f"functional backend under {threshold:.1f}x overall")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK: functional backend >= {threshold:.1f}x overall")
    return 0


def time_workload(
    src: str,
    benchmark: str,
    design: str = "gc",
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 0,
) -> Dict[str, object]:
    """Time one (benchmark, design) simulation in a fresh subprocess.

    Returns the measurement record; ``src`` is the ``src/`` directory of
    the tree under test (placed on the subprocess ``PYTHONPATH``).
    """
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = _WORKLOAD.format(
        benchmark=benchmark, design=design, scale=scale, repeats=repeats, seed=seed
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    raw = json.loads(out.splitlines()[-1])
    best = float(raw["best_seconds"])
    calib = float(raw["calib_seconds"])
    return {
        "benchmark": benchmark,
        "design": design,
        "scale": scale,
        "repeats": repeats,
        "seed": seed,
        "best_seconds": round(best, 6),
        "runs_per_sec": round(1.0 / best, 4),
        "cycles": raw["cycles"],
        "cycles_per_sec": round(raw["cycles"] / best, 1),
        "instructions": raw["instructions"],
        "peak_rss_kb": raw["peak_rss_kb"],
        "calib_seconds": round(calib, 6),
        "normalized_cost": round(best / calib, 4),
    }


def run_suite(
    src: str,
    benchmarks: Optional[List[str]] = None,
    designs: Optional[List[str]] = None,
    scale: float = 0.1,
    repeats: int = 3,
    seed: int = 0,
    samples: int = 1,
) -> List[Dict[str, object]]:
    """Run the full timing matrix against one source tree.

    ``samples > 1`` measures the whole matrix that many times (fresh
    subprocess each) and keeps, per kernel/design, the record with the
    median ``normalized_cost``.  Best-of-``repeats`` inside one
    subprocess filters scheduler jitter; the across-subprocess median
    additionally filters slow host-speed drift (frequency scaling,
    noisy neighbours), which matters when writing a baseline that later
    runs will be compared against.
    """
    rounds: List[List[Dict[str, object]]] = []
    for _ in range(max(1, samples)):
        records = []
        for benchmark in benchmarks or BENCHMARKS:
            for design in designs or DESIGNS:
                records.append(
                    time_workload(src, benchmark, design, scale, repeats, seed)
                )
        rounds.append(records)
    if len(rounds) == 1:
        return rounds[0]
    merged = []
    for i in range(len(rounds[0])):
        candidates = sorted(
            (rnd[i] for rnd in rounds),
            key=lambda rec: rec["normalized_cost"],
        )
        merged.append(candidates[len(candidates) // 2])
    return merged


def _key(rec: Dict[str, object]) -> str:
    return f"{rec['benchmark']}/{rec['design']}"


def _print_table(records: List[Dict[str, object]], label: str) -> None:
    print(f"-- {label} --")
    print(f"{'kernel/design':<16} {'runs/s':>8} {'Mcycles/s':>10} "
          f"{'RSS MB':>8} {'norm cost':>10}")
    for rec in records:
        print(
            f"{_key(rec):<16} {rec['runs_per_sec']:>8.2f} "
            f"{rec['cycles_per_sec'] / 1e6:>10.2f} "
            f"{rec['peak_rss_kb'] / 1024:>8.1f} {rec['normalized_cost']:>10.2f}"
        )


def _gate(
    head: List[Dict[str, object]],
    base_costs: Dict[str, float],
    threshold: float,
    metric_name: str,
) -> int:
    """Fail (return 1) when any head entry is > threshold x its base cost."""
    failed = False
    for rec in head:
        key = _key(rec)
        if key not in base_costs:
            print(f"{key}: no baseline entry — skipped")
            continue
        ratio = rec[metric_name] / base_costs[key]
        verdict = "OK" if ratio <= threshold else "FAIL"
        print(f"{key}: {metric_name} ratio {ratio:.3f} "
              f"(threshold {threshold:.2f}) {verdict}")
        failed |= ratio > threshold
    if failed:
        print(
            f"FAIL: throughput regressed more than "
            f"{100 * (threshold - 1):.0f}% on at least one kernel/design",
            file=sys.stderr,
        )
        return 1
    print("OK: no perf regression beyond threshold")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                        help="src/ of the tree under test")
    parser.add_argument("--base", default=None,
                        help="src/ of a baseline checkout to gate against")
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed baseline JSON "
                             "(normalized_cost comparison)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline JSON path (default BENCH_4.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the measurements to --baseline")
    parser.add_argument("--benchmarks", nargs="*", default=None)
    parser.add_argument("--designs", nargs="*", default=None)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=None,
                        help="suite passes; keeps the per-key median "
                             "(default 1, or 3 with --write-baseline)")
    parser.add_argument("--threshold", type=float, default=1.10,
                        help="max allowed head/base cost ratio (with "
                             "--functional-gate: of the functional sweep)")
    parser.add_argument("--functional-gate", action="store_true",
                        help="assert the functional backend beats the "
                             "timing engine on the design-sweep workload")
    parser.add_argument("--functional-threshold", type=float, default=8.0,
                        help="min functional/timing speedup for the gate")
    parser.add_argument("--profile-phases", action="store_true",
                        help="with --functional-gate: report the time "
                             "split between burst kernels and scalar "
                             "walks/event loops per benchmark")
    parser.add_argument("--ledger", default=None, metavar="PATH",
                        help="append this run's measurements to the "
                             "perf/accuracy ledger (repro.analysis JSONL)")
    parser.add_argument("--ledger-suite", default="perf-gate",
                        help="suite name for the ledger record")
    args = parser.parse_args()
    if args.samples is None:
        args.samples = 3 if args.write_baseline else 1

    if args.functional_gate:
        return functional_gate(
            args.src, args.functional_threshold, args.benchmarks,
            args.scale, args.repeats, args.seed,
            profile_phases=args.profile_phases,
            ledger=args.ledger,
            ledger_suite=(
                args.ledger_suite if args.ledger_suite != "perf-gate"
                else "functional-gate"
            ),
            base=args.base,
            slowdown=args.threshold,
        )

    head = run_suite(
        args.src, args.benchmarks, args.designs,
        args.scale, args.repeats, args.seed, args.samples,
    )
    _print_table(head, f"head ({os.path.abspath(args.src)})")

    if args.ledger is not None:
        # Record the measurement in the historical ledger regardless of
        # gate outcome — a regression is exactly what the trajectory
        # must remember.  The analysis package lives in the tree under
        # test, so put its src/ on the import path.
        sys.path.insert(0, os.path.abspath(args.src))
        from repro.analysis import Ledger, record_from_bench

        record = record_from_bench(
            {"schema_version": BENCH_SCHEMA_VERSION, "records": head},
            suite=args.ledger_suite,
        )
        Ledger(args.ledger).append(record)
        print(f"[ledger] appended {args.ledger_suite} record "
              f"({len(record['metrics'])} metrics) -> {args.ledger}")

    if args.write_baseline:
        # The committed baseline also records the functional-sweep
        # measurements (mode="functional"): the cross-machine --check
        # gate ignores them, but they document the expected speedup and
        # back local "has the functional backend slowed down?" checks.
        functional = [
            time_functional_sweep(
                args.src, b, None, args.scale, args.repeats, args.seed
            )
            for b in FUNCTIONAL_BENCHMARKS
        ]
        for rec in functional:
            print(f"{_key(rec):<18} functional speedup {rec['speedup']:.2f}x")
        with open(args.baseline, "w") as fh:
            json.dump(
                {"schema_version": BENCH_SCHEMA_VERSION,
                 "records": head + functional},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        print(f"baseline written to {args.baseline}")

    if args.base is not None:
        # Same machine: raw wall time is the fair comparison.  The base
        # matrix runs immediately after the head matrix; per-key the two
        # subprocesses are seconds apart, so slow host drift affects
        # both sides nearly equally (best-of-N inside each subprocess
        # already filters fast jitter).
        base = run_suite(
            args.base, args.benchmarks, args.designs,
            args.scale, args.repeats, args.seed, args.samples,
        )
        _print_table(base, f"base ({os.path.abspath(args.base)})")
        return _gate(
            head,
            {_key(r): float(r["best_seconds"]) for r in base},
            args.threshold,
            "best_seconds",
        )

    if args.check:
        with open(args.baseline) as fh:
            base_records = json.load(fh)["records"]
        # Cross-machine: compare calibration-normalized cost instead.
        return _gate(
            head,
            {_key(r): float(r["normalized_cost"]) for r in base_records},
            args.threshold,
            "normalized_cost",
        )

    return 0


if __name__ == "__main__":
    sys.exit(main())

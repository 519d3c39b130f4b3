"""Command-line interface: ``python -m repro``.

Subcommands:

* ``run`` — simulate one benchmark under one design and print a report.
* ``compare`` — run several designs on one benchmark side by side.
* ``campaign`` — run a benchmark x design matrix through the parallel
  campaign engine (``--jobs``) with the persistent result cache.
* ``trace`` — run one benchmark with event tracing and export a
  Perfetto/Chrome ``trace_event`` JSON (or JSONL) file.
* ``profile`` — run one benchmark with in-memory tracing and print the
  G-Cache convergence report plus the metrics snapshot; or summarise a
  previously exported JSONL trace (``--from-trace``).
* ``analyze`` — cross-campaign intelligence: diff two campaign
  manifests (``analyze compare``) or query/append the historical
  perf/accuracy ledger (``analyze ledger``).
* ``scenario`` — declarative workloads (``repro.scenarios``): validate
  a spec and build its trace (``scenario build``), run the generative
  workload space through the functional backend and report where each
  design wins/loses (``scenario sweep``), or print the primitive
  registry reference (``scenario primitives``).
* ``list`` — enumerate benchmarks and designs.

Examples::

    python -m repro list
    python -m repro run --benchmark SPMV --design gc --scale 0.5
    python -m repro run --benchmark SSC --trace ssc.json --timeline-csv ssc.csv
    python -m repro trace --benchmark SPMV --design gcache -o spmv.json
    python -m repro profile --benchmark SSC --scale 0.5
    python -m repro profile --from-trace spmv.jsonl
    python -m repro compare --benchmark SSC --designs bs,bs-s,gc
    python -m repro campaign --benchmarks SPMV,KMN,SSC --jobs 8 \\
        --cache-dir ~/.cache/repro --manifest run.json
    python -m repro campaign --jobs 8 --cache-dir ~/.cache/repro \\
        --retries 3 --task-timeout 600 --keep-going    # fault-tolerant
    python -m repro campaign --jobs 8 --cache-dir ~/.cache/repro --resume
    python -m repro analyze compare base.json cand.json --html report.html
    python -m repro scenario build --table1 SD1 -o sd1.json
    python -m repro scenario build myspec.json --spec-out canonical.json
    python -m repro scenario sweep --limit 20 --report wins.md \\
        --sweep-manifest sweep.json --jobs 8
    python -m repro scenario primitives
    python -m repro analyze ledger perf.jsonl --append-bench BENCH_4.json
    python -m repro analyze ledger perf.jsonl --check --suite perf-gate

``campaign`` and ``compare`` are fault-tolerant: per-task retries with
exponential backoff (``--retries``), hung-worker reclamation
(``--task-timeout``), ``--keep-going`` to survive individual task
failures, and a crash-safe journal enabling ``--resume`` after a crash
or Ctrl-C (see the resilience section of ``docs/api.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments.common import EvalSuite, sweep_optimal_pd
from repro.experiments.fig8_speedup import render_fig8
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.obs.events import EVENT_KINDS
from repro.runner import CampaignEngine, ResultCache
from repro.sim.config import WARP_SCHEDULERS, GPUConfig
from repro.sim.designs import DESIGN_KEYS, make_design
from repro.sim.simulator import FIDELITIES, simulate
from repro.stats.energy import EnergyModel
from repro.stats.report import Table, render_metrics
from repro.stats.timeline import Timeline
from repro.trace.suite import ALL_BENCHMARKS, build_benchmark, sensitivity_of

__all__ = ["main"]

#: Friendly aliases accepted anywhere a design key is (the paper's scheme
#: is widely called "G-Cache"; ``gcache`` reads better on the CLI).
DESIGN_ALIASES = {"gcache": "gc", "gcache-m": "gc-m", "baseline": "bs"}


def _design_key(name: str) -> str:
    """Normalise a ``--design`` argument, resolving friendly aliases."""
    key = name.strip().lower()
    return DESIGN_ALIASES.get(key, key)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", required=True,
                        type=lambda s: s.upper(), choices=ALL_BENCHMARKS)
    _add_knobs(parser)


def _add_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--l1-size", type=int, default=32 * 1024,
                        help="L1 capacity in bytes (Table 2: 32768)")
    parser.add_argument("--scheduler", default="lrr",
                        choices=WARP_SCHEDULERS)


def _add_fidelity(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fidelity", default="timing", choices=FIDELITIES,
                        help="simulation fidelity: 'timing' is "
                             "cycle-accurate; 'functional' replays the "
                             "coalesced streams vectorized (exact cache "
                             "counters, estimated cycles, much faster)")


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: all cores; 1 = serial)")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="persistent result-cache directory "
                             "(default: $REPRO_CACHE_DIR, else no cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent cache (no reads or writes)")
    parser.add_argument("--invalidate", action="store_true",
                        help="drop every cached entry before running")
    parser.add_argument("--manifest", type=Path, default=None,
                        help="write the run manifest JSON to this path "
                             "(also flushed, marked interrupted, on Ctrl-C)")
    parser.add_argument("--retries", type=int, default=2,
                        help="failures tolerated per task before it is "
                             "declared failed (default: 2; 0 = fail fast)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-attempt wall-clock budget; overruns kill "
                             "the hung worker and retry (pool mode only)")
    parser.add_argument("--journal", type=Path, default=None,
                        help="campaign journal (JSONL of completed task "
                             "keys; default: <cache-dir>/journal.jsonl)")
    parser.add_argument("--resume", action="store_true",
                        help="skip tasks the journal records as completed "
                             "(serving them from the cache) and run the rest")
    parser.add_argument("--keep-going", action="store_true",
                        help="on task failure, record it and finish the "
                             "campaign instead of aborting (exit code 1)")


def _config(args: argparse.Namespace) -> GPUConfig:
    return GPUConfig(l1_size=args.l1_size, warp_scheduler=args.scheduler)


def _engine(args: argparse.Namespace, default_jobs: Optional[int] = 1) -> CampaignEngine:
    """Campaign engine from the ``--jobs``/``--cache-dir``/``--no-cache``
    flags plus the resilience knobs.

    Interactive subcommands default to no persistent cache unless
    ``--cache-dir`` or ``$REPRO_CACHE_DIR`` names one; ``--no-cache``
    always wins.  A journal rides along whenever a cache directory is
    active (``<cache-dir>/journal.jsonl`` unless ``--journal`` names
    one); without ``--resume`` a stale journal is truncated, so each
    campaign's journal describes that campaign alone.  ``$REPRO_FAULTS``
    (JSON, see :meth:`repro.faults.FaultPlan.from_env`) arms the
    deterministic fault injector — the CI chaos-smoke hook.
    """
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir
        if cache_dir is None and os.environ.get("REPRO_CACHE_DIR"):
            cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
        if cache_dir is not None:
            cache = ResultCache(cache_dir)
            if args.invalidate:
                dropped = cache.invalidate()
                print(f"[cache] invalidated {dropped} entries under {cache_dir}")
    journal = args.journal
    if journal is None and cache is not None and cache.enabled:
        journal = cache.root / "journal.jsonl"
    if args.resume and journal is None:
        raise SystemExit("--resume needs a journal: pass --journal or --cache-dir")
    if not args.resume and journal is not None and journal.exists():
        journal.unlink()  # fresh campaign owns a fresh journal
    jobs = args.jobs if args.jobs is not None else default_jobs
    return CampaignEngine(
        jobs=jobs,
        cache=cache,
        retries=args.retries,
        task_timeout=args.task_timeout,
        keep_going=args.keep_going,
        journal=journal,
        resume=args.resume,
        faults=FaultPlan.from_env(),
        manifest_path=args.manifest,
    )


def _finish_campaign(engine: CampaignEngine, args: argparse.Namespace) -> int:
    """Print the summary (and failures), write the manifest; exit code."""
    if engine.counters.resumed:
        print(f"[resume] {engine.counters.resumed} tasks already complete "
              f"(journal: {engine.journal.path})")
    if engine.failures:
        table = Table(["task", "key", "attempts", "last error"],
                      title="Failed tasks")
        for err in engine.failures:
            table.row([err.label, err.key[:12] + "…",
                       str(len(err.history)), err.history[-1]["error"]])
        print(table.render())
        print()
    print(engine.counters.render())
    if args.manifest is not None:
        print(f"[manifest] {engine.write_manifest(args.manifest)}")
    return 1 if engine.failures else 0


def _design(key: str, trace, config):
    if key == "spdp-b":
        return make_design("spdp-b", pd=sweep_optimal_pd(trace, config))
    return make_design(key)


def cmd_list(_: argparse.Namespace) -> int:
    table = Table(["benchmark", "class", "suite"], title="Table-1 benchmarks")
    for name in ALL_BENCHMARKS:
        trace_cls = __import__("repro.trace.suite", fromlist=["GENERATORS"]).GENERATORS[name]
        table.row([name, sensitivity_of(name), trace_cls.suite])
    print(table.render())
    print()
    print("designs:", ", ".join(DESIGN_KEYS))
    return 0


def _trace_observability(path: Path, kinds=None) -> Observability:
    """Build the file-backed Observability for a ``--trace`` export.

    A ``.jsonl`` suffix selects the line-delimited stream; anything else
    gets the Perfetto/Chrome ``trace_event`` JSON.
    """
    if path.suffix == ".jsonl":
        return Observability.to_jsonl(path, kinds=kinds)
    return Observability.to_perfetto(path, kinds=kinds)


def cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.fidelity == "functional" and (
        args.timeline_csv is not None or args.trace is not None
    ):
        print("--fidelity functional has no cycle-level event stream; "
              "drop --timeline-csv/--trace or use --fidelity timing",
              file=sys.stderr)
        return 2
    trace = build_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    design = _design(args.design, trace, config)
    timeline = Timeline() if args.timeline_csv is not None else None
    obs = _trace_observability(args.trace) if args.trace is not None else None
    result = simulate(trace, config, design, timeline=timeline, obs=obs,
                      fidelity=args.fidelity)
    if args.fidelity == "functional":
        print("[fidelity] functional: cache counters exact, "
              "cycles/IPC estimated")
    if obs is not None:
        obs.close()
        print(f"[trace] {args.trace}")
    if timeline is not None:
        args.timeline_csv.write_text(timeline.to_csv() + "\n")
        print(f"[timeline] {args.timeline_csv} ({len(timeline.windows())} windows)")
    energy = EnergyModel().evaluate(result)

    print(f"{trace.name} on {config.describe()} under {design.label}")
    table = Table(["metric", "value"])
    table.row(["IPC", f"{result.ipc:.3f}"])
    table.row(["cycles", f"{result.cycles:,}"])
    table.row(["instructions", f"{result.instructions:,}"])
    table.row(["L1 miss rate", f"{result.l1.miss_rate:.1%}"])
    table.row(["L1 bypass ratio", f"{result.l1.bypass_ratio:.1%}"])
    table.row(["L2 miss rate", f"{result.l2.miss_rate:.1%}"])
    table.row(["avg load latency", f"{result.avg_load_latency:.0f} cycles"])
    table.row(["DRAM requests", f"{result.dram_requests:,}"])
    table.row(["DRAM row-hit rate", f"{result.dram_row_hit_rate:.1%}"])
    table.row(["energy / instruction", f"{energy.pj_per_instruction:.0f} pJ"])
    print(table.render())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    keys = [_design_key(k) for k in args.designs.split(",") if k.strip()]
    unknown = [k for k in keys if k not in DESIGN_KEYS]
    if unknown:
        print(f"unknown designs: {unknown}; known: {DESIGN_KEYS}", file=sys.stderr)
        return 2

    suite = EvalSuite(
        config=_config(args),
        benchmarks=[args.benchmark],
        scale=args.scale,
        seed=args.seed,
        engine=_engine(args),
        fidelity=args.fidelity,
    )
    matrix = suite.run_matrix(keys)
    results = {key: matrix[(args.benchmark, key)] for key in keys}
    base = results.get("bs") or results[keys[0]]

    table = Table(
        ["design", "IPC", "speedup", "L1 miss", "bypass", "rel. energy"],
        title=f"{args.benchmark}: design comparison",
    )
    model = EnergyModel()
    base_energy = model.evaluate(base)
    for key in keys:
        r = results[key]
        table.row([
            key.upper(),
            f"{r.ipc:.3f}",
            f"{r.speedup_over(base):.3f}",
            f"{r.l1.miss_rate:.1%}",
            f"{r.l1.bypass_ratio:.1%}",
            f"{model.evaluate(r).relative_to(base_energy):.3f}",
        ])
    print(table.render())
    if args.manifest is not None:
        print(f"[manifest] {suite.engine.write_manifest(args.manifest)}")
    return 1 if suite.engine.failures else 0


def cmd_trace(args: argparse.Namespace) -> int:
    config = _config(args)
    trace = build_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    design = _design(args.design, trace, config)
    kinds = None
    if args.kinds:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        unknown = [k for k in kinds if k not in EVENT_KINDS]
        if unknown:
            print(f"unknown event kinds: {unknown}; known: {list(EVENT_KINDS)}",
                  file=sys.stderr)
            return 2
    obs = _trace_observability(args.output, kinds=kinds)
    result = simulate(trace, config, design, obs=obs)
    try:
        obs.close()  # flushes the trace file; failures are user-visible
    except OSError as exc:
        print(f"cannot write trace {args.output}: {exc}", file=sys.stderr)
        return 2

    bus = obs.bus
    print(f"{trace.name} under {design.label}: "
          f"{bus.events_emitted:,} events -> {args.output}")
    if bus.events_dropped:
        print(f"[trace] {bus.events_dropped:,} events dropped by --kinds filter")
    print(f"IPC {result.ipc:.3f}, L1 miss {result.l1.miss_rate:.1%}, "
          f"{result.cycles:,} cycles")
    if args.output.suffix != ".jsonl":
        print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _profile_from_trace(path: Path, top: int) -> int:
    """Summarise a previously exported JSONL event trace.

    Exit code 2 on a missing, unreadable or unparseable trace — the
    offline half of ``profile`` must be honest about bad inputs, since
    it is the command people point at artifacts from other machines.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"cannot read trace {path}: {exc}", file=sys.stderr)
        return 2
    events = []
    bad_lines = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            bad_lines += 1
            continue
        if isinstance(record, dict) and "kind" in record and "cycle" in record:
            events.append(record)
        else:
            bad_lines += 1
    if not events:
        print(f"{path} holds no parseable trace events "
              f"({bad_lines} malformed lines) — is it a JSONL trace from "
              "'repro trace -o out.jsonl'?", file=sys.stderr)
        return 2

    by_kind: dict = {}
    by_src: dict = {}
    lo = hi = None
    for e in events:
        by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
        src = e.get("src", "?")
        by_src[src] = by_src.get(src, 0) + 1
        cycle = e["cycle"]
        if isinstance(cycle, (int, float)):
            lo = cycle if lo is None else min(lo, cycle)
            hi = cycle if hi is None else max(hi, cycle)
    print(f"{path}: {len(events):,} events, cycles {lo:,}..{hi:,}"
          + (f" ({bad_lines} malformed lines skipped)" if bad_lines else ""))
    table = Table(["event kind", "count", "share"], title="Events by kind")
    for kind in sorted(by_kind, key=lambda k: (-by_kind[k], k)):
        table.row([kind, f"{by_kind[kind]:,}",
                   f"{100.0 * by_kind[kind] / len(events):.1f}%"])
    print(table.render())
    print()
    table = Table(["source", "events"], title=f"Top {top} sources")
    for src in sorted(by_src, key=lambda s: (-by_src[s], str(s)))[:top]:
        table.row([str(src), f"{by_src[src]:,}"])
    print(table.render())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    if args.from_trace is not None:
        return _profile_from_trace(args.from_trace, top=args.top_sets)
    if args.benchmark is None:
        print("profile needs --benchmark (live run) or --from-trace PATH",
              file=sys.stderr)
        return 2
    config = _config(args)
    trace = build_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    design = _design(args.design, trace, config)
    obs = Observability.in_memory()
    result = simulate(trace, config, design, obs=obs)

    print(f"{trace.name} on {config.describe()} under {design.label}")
    print()
    diag = obs.diagnostics(end_cycle=result.cycles)
    print(diag.render(top_sets=args.top_sets))
    print()
    print(render_metrics(result.extras["metrics"], title="metrics snapshot"))
    obs.close()
    return 0


def cmd_analyze_compare(args: argparse.Namespace) -> int:
    """Diff two campaign manifests; optionally write report artifacts.

    Exit codes: 0 clean, 1 when ``--fail-on-regression`` is set and any
    counter regressed (or labels went missing), 2 on unreadable inputs.
    """
    from repro.analysis import AnalysisError, compare_manifests, load_manifest
    from repro.analysis.report import render_html, render_markdown

    try:
        a = load_manifest(args.baseline)
        b = load_manifest(args.candidate)
    except AnalysisError as exc:
        print(f"analyze compare: {exc}", file=sys.stderr)
        return 2
    cmp = compare_manifests(a, b, alpha=args.alpha)
    markdown = render_markdown(cmp, top=args.top,
                               include_unchanged=args.include_unchanged)
    if args.markdown is not None:
        args.markdown.write_text(markdown)
        print(f"[report] {args.markdown}")
    if args.html is not None:
        args.html.write_text(
            render_html(cmp, top=args.top,
                        include_unchanged=args.include_unchanged))
        print(f"[report] {args.html}")
    if args.markdown is None and args.html is None:
        print(markdown, end="")
    counts = cmp.verdict_counts()
    if args.markdown is not None or args.html is not None:
        print("verdicts: " + ", ".join(f"{counts[v]} {v}" for v in
                                       ("improved", "regressed", "changed",
                                        "unchanged", "new", "missing")))
    if args.fail_on_regression and (counts["regressed"] or counts["missing"]):
        print(f"FAIL: {counts['regressed']} regressed counters, "
              f"{counts['missing']} missing labels", file=sys.stderr)
        return 1
    return 0


def cmd_analyze_ledger(args: argparse.Namespace) -> int:
    """Append to / query / gate against the perf-accuracy ledger."""
    from repro.analysis import (AnalysisError, Ledger, record_from_bench,
                                record_from_manifest)

    ledger = Ledger(args.ledger)

    def _load_json(path: Path) -> dict:
        try:
            blob = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise AnalysisError(f"cannot read {path}: {exc}")
        if not isinstance(blob, dict):
            raise AnalysisError(f"{path} is not a JSON object")
        return blob

    try:
        if args.append_bench is not None:
            record = record_from_bench(_load_json(args.append_bench),
                                       suite=args.suite or "perf-gate")
            ledger.append(record)
            print(f"[ledger] appended {record['suite']} record "
                  f"({len(record['metrics'])} metrics) -> {ledger.path}")
        if args.append_manifest is not None:
            record = record_from_manifest(_load_json(args.append_manifest),
                                          suite=args.suite or "campaign")
            ledger.append(record)
            print(f"[ledger] appended {record['suite']} record "
                  f"({len(record['metrics'])} metrics) -> {ledger.path}")
    except AnalysisError as exc:
        print(f"analyze ledger: {exc}", file=sys.stderr)
        return 2

    if args.trend is not None:
        suite = args.suite
        if suite is None:
            suites = ledger.suites()
            if len(suites) != 1:
                print(f"--trend needs --suite (ledger holds {suites})",
                      file=sys.stderr)
                return 2
            suite = suites[0]
        print(ledger.render_trend(suite, args.trend, window=args.window))
    if args.check:
        result = ledger.check(suite=args.suite, window=args.window,
                              tolerance=args.tolerance)
        print(result.render())
        if not result.ok:
            return 1
    if (args.append_bench is None and args.append_manifest is None
            and args.trend is None and not args.check):
        records = ledger.records()
        print(f"{ledger.path}: {len(records)} records, "
              f"suites: {', '.join(ledger.suites()) or '(none)'}")
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    keys = [_design_key(k) for k in args.designs.split(",") if k.strip()]
    unknown = [k for k in keys if k not in DESIGN_KEYS]
    if unknown:
        print(f"unknown designs: {unknown}; known: {DESIGN_KEYS}", file=sys.stderr)
        return 2
    benches = (
        [b.strip().upper() for b in args.benchmarks.split(",") if b.strip()] or None
    )
    if benches:
        bad = [b for b in benches if b not in ALL_BENCHMARKS]
        if bad:
            print(f"unknown benchmarks: {bad}; known: {ALL_BENCHMARKS}", file=sys.stderr)
            return 2

    engine = _engine(args, default_jobs=None)  # campaign defaults to all cores
    suite = EvalSuite(
        config=_config(args),
        benchmarks=benches,
        scale=args.scale,
        seed=args.seed,
        engine=engine,
        fidelity=args.fidelity,
    )
    try:
        suite.run_matrix(keys)
    except KeyboardInterrupt:
        done = engine.counters.unique_tasks
        print(f"\n[interrupted] {done} tasks completed and journaled; "
              f"rerun with --resume to pick up the remainder", file=sys.stderr)
        if args.manifest is not None:
            print(f"[manifest] {args.manifest} (partial, interrupted=true)",
                  file=sys.stderr)
        return 130
    if not engine.failures:
        # Figure rendering walks every payload; skip it when some slots
        # hold the FAILED sentinel (--keep-going) and report instead.
        print(render_fig8(suite, designs=keys))
        print()
    return _finish_campaign(engine, args)


def cmd_scenario_build(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        SpecError,
        build_scenario,
        canonical_spec,
        load_spec,
        spec_digest,
        table1_spec,
    )
    from repro.trace.io import save_trace

    try:
        if args.table1:
            doc = table1_spec(args.table1.upper(), scale=args.scale,
                              seed=args.seed)
            spec = canonical_spec(doc)
        elif args.spec:
            spec = canonical_spec(load_spec(args.spec), scale=args.scale,
                                  seed=args.seed)
        else:
            print("scenario build needs a SPEC.json path or --table1 NAME",
                  file=sys.stderr)
            return 2
        trace = build_scenario(spec)
    except SpecError as exc:
        print(f"invalid scenario spec: {exc}", file=sys.stderr)
        return 2

    digest = spec_digest(spec)
    ops = sum(len(w) for cta in trace.ctas for w in cta.warps)
    print(f"scenario   {trace.name}")
    print(f"digest     {digest}")
    print(f"ctas       {len(trace.ctas)} x {len(trace.ctas[0].warps)} warps")
    print(f"ops        {ops}")
    if args.spec_out is not None:
        args.spec_out.write_text(
            json.dumps(spec, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"[spec] {args.spec_out}")
    if args.output is not None:
        save_trace(trace, args.output)
        print(f"[trace] {args.output}")
    return 0


def cmd_scenario_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios import (
        SpecError,
        generate_space,
        load_spec,
        canonical_spec,
        run_scenario_sweep,
    )

    keys = [_design_key(k) for k in args.designs.split(",") if k.strip()]
    unknown = [k for k in keys if k not in DESIGN_KEYS]
    if unknown:
        print(f"unknown designs: {unknown}; known: {DESIGN_KEYS}",
              file=sys.stderr)
        return 2
    try:
        if args.specs:
            specs = [canonical_spec(load_spec(p)) for p in args.specs]
        else:
            specs = generate_space(limit=args.limit)
    except SpecError as exc:
        print(f"invalid scenario spec: {exc}", file=sys.stderr)
        return 2

    engine = _engine(args, default_jobs=None)
    try:
        result = run_scenario_sweep(
            specs, designs=keys, scale=args.scale, seed=args.seed,
            engine=engine)
    except KeyboardInterrupt:
        print("\n[interrupted] rerun with --resume to pick up the remainder",
              file=sys.stderr)
        return 130

    report = result.report_markdown(design=keys[-1], baseline=keys[0])
    if args.report is not None:
        args.report.write_text(report, encoding="utf-8")
        print(f"[report] {args.report}")
    else:
        print(report)
    if args.sweep_manifest is not None:
        args.sweep_manifest.write_text(result.manifest_json(),
                                       encoding="utf-8")
        print(f"[sweep-manifest] {args.sweep_manifest}")
    return _finish_campaign(engine, args)


def cmd_scenario_primitives(_: argparse.Namespace) -> int:
    from repro.scenarios import PRIMITIVES
    from repro.scenarios.schema import STEP_FIELDS

    def field_rows(table: Table, fields) -> None:
        for fname, fld in fields.items():
            dflt = "(required)" if fld.required else repr(fld.default)
            bounds = ""
            if fld.lo is not None or fld.hi is not None:
                bounds = f"{fld.lo}..{fld.hi}"
            elif fld.choices:
                bounds = "|".join(str(c) for c in fld.choices)
            table.row([fname, fld.kind, dflt, bounds, fld.doc])

    for name in sorted(PRIMITIVES):
        prim = PRIMITIVES[name]
        print(f"{name} — {prim.doc}")
        table = Table(["param", "kind", "default", "range", "doc"])
        field_rows(table, prim.PARAMS)
        print(table.render())
        print()
    print("stream body step kinds:")
    for kind, fields in STEP_FIELDS.items():
        print(f"  {kind}:")
        if fields:
            table = Table(["field", "kind", "default", "range", "doc"])
            field_rows(table, fields)
            print("    " + table.render().replace("\n", "\n    "))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="G-Cache reproduction: GPU cache-management simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and designs")

    run_parser = sub.add_parser("run", help="simulate one benchmark/design")
    _add_common(run_parser)
    run_parser.add_argument("--design", default="gc", type=_design_key,
                            choices=DESIGN_KEYS)
    run_parser.add_argument("--timeline-csv", type=Path, default=None,
                            metavar="PATH",
                            help="write windowed IPC/miss/bypass rates as CSV")
    run_parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                            help="export an event trace (Perfetto JSON, or "
                                 "JSONL when PATH ends in .jsonl)")
    _add_fidelity(run_parser)

    trace_parser = sub.add_parser(
        "trace", help="run with event tracing and export a Perfetto/JSONL trace"
    )
    _add_common(trace_parser)
    trace_parser.add_argument("--design", default="gc", type=_design_key,
                              choices=DESIGN_KEYS)
    trace_parser.add_argument("-o", "--output", type=Path, required=True,
                              metavar="PATH",
                              help="trace file (Perfetto JSON, or JSONL when "
                                   "PATH ends in .jsonl)")
    trace_parser.add_argument("--kinds", default="",
                              help="comma-separated event-kind whitelist "
                                   "(default: record everything)")

    prof_parser = sub.add_parser(
        "profile", help="print the G-Cache convergence report and metrics"
    )
    prof_parser.add_argument("--benchmark", default=None,
                             type=lambda s: s.upper(), choices=ALL_BENCHMARKS,
                             help="benchmark to simulate and profile live "
                                  "(or use --from-trace for offline analysis)")
    _add_knobs(prof_parser)
    prof_parser.add_argument("--design", default="gc", type=_design_key,
                             choices=DESIGN_KEYS)
    prof_parser.add_argument("--top-sets", type=int, default=10,
                             help="per-set duty-cycle rows to print")
    prof_parser.add_argument("--from-trace", type=Path, default=None,
                             metavar="PATH",
                             help="summarise an exported JSONL event trace "
                                  "instead of running a simulation "
                                  "(exit 2 when missing or unparseable)")

    cmp_parser = sub.add_parser("compare", help="compare designs on one benchmark")
    _add_common(cmp_parser)
    cmp_parser.add_argument("--designs", default="bs,bs-s,gc")
    _add_fidelity(cmp_parser)
    _add_campaign_flags(cmp_parser)

    camp_parser = sub.add_parser(
        "campaign",
        help="run a benchmark x design matrix in parallel with result caching",
    )
    _add_knobs(camp_parser)
    camp_parser.add_argument("--benchmarks", default="",
                             help="comma-separated subset (default: all 17)")
    camp_parser.add_argument("--designs", default="bs,bs-s,spdp-b,gc")
    _add_fidelity(camp_parser)
    _add_campaign_flags(camp_parser)

    scen_parser = sub.add_parser(
        "scenario",
        help="declarative scenario specs: build traces, sweep the "
             "generative workload space, list primitives",
    )
    scen_sub = scen_parser.add_subparsers(dest="scenario_command",
                                          required=True)

    scen_build = scen_sub.add_parser(
        "build", help="validate a spec and build its kernel trace")
    scen_build.add_argument("spec", nargs="?", type=Path, default=None,
                            help="scenario spec JSON file")
    scen_build.add_argument("--table1", default=None, metavar="NAME",
                            help="use a pinned Table-1 spec "
                                 "(SD1, STL, WP, FWT) instead of a file")
    scen_build.add_argument("--scale", type=float, default=1.0)
    scen_build.add_argument("--seed", type=int, default=0)
    scen_build.add_argument("-o", "--output", type=Path, default=None,
                            help="save the built trace as repro-trace JSON")
    scen_build.add_argument("--spec-out", type=Path, default=None,
                            help="write the canonical (default-filled) "
                                 "spec JSON to this path")

    scen_sweep = scen_sub.add_parser(
        "sweep",
        help="run scenario specs through the functional backend and "
             "report where each design wins/loses")
    scen_sweep.add_argument("specs", nargs="*", type=Path,
                            help="spec JSON files (default: the built-in "
                                 "generative space)")
    scen_sweep.add_argument("--limit", type=int, default=None,
                            help="truncate the generated space to the "
                                 "first N workloads")
    scen_sweep.add_argument("--designs", default="bs,gc",
                            help="comma-separated design keys; first is "
                                 "the baseline, last is the candidate")
    scen_sweep.add_argument("--scale", type=float, default=1.0)
    scen_sweep.add_argument("--seed", type=int, default=0)
    scen_sweep.add_argument("--report", type=Path, default=None,
                            help="write the wins/losses markdown report "
                                 "here (default: stdout)")
    scen_sweep.add_argument("--sweep-manifest", type=Path, default=None,
                            help="write the deterministic sweep manifest "
                                 "(digests + counters, no wall-clock) here")
    _add_campaign_flags(scen_sweep)

    scen_sub.add_parser(
        "primitives",
        help="print the registered primitives and their parameter schema")

    ana_parser = sub.add_parser(
        "analyze",
        help="cross-campaign analysis: manifest diffs and the perf ledger",
    )
    ana_sub = ana_parser.add_subparsers(dest="analyze_command", required=True)

    diff_parser = ana_sub.add_parser(
        "compare",
        help="diff two campaign manifests with significance-tested verdicts",
    )
    diff_parser.add_argument("baseline", type=Path,
                             help="manifest A (the baseline)")
    diff_parser.add_argument("candidate", type=Path,
                             help="manifest B (the candidate)")
    diff_parser.add_argument("--markdown", type=Path, default=None,
                             metavar="PATH",
                             help="write the markdown report here "
                                  "(default: print it to stdout)")
    diff_parser.add_argument("--html", type=Path, default=None, metavar="PATH",
                             help="write a self-contained HTML report here")
    diff_parser.add_argument("--alpha", type=float, default=0.05,
                             help="significance level for the permutation "
                                  "test on repeated-run counters")
    diff_parser.add_argument("--top", type=int, default=10,
                             help="rows in the top-regressions table")
    diff_parser.add_argument("--include-unchanged", action="store_true",
                             help="list unchanged counters in per-label tables")
    diff_parser.add_argument("--fail-on-regression", action="store_true",
                             help="exit 1 when any counter regressed or any "
                                  "label went missing (CI gate mode)")

    ledger_parser = ana_sub.add_parser(
        "ledger",
        help="append to / query / gate against the perf-accuracy ledger",
    )
    ledger_parser.add_argument("ledger", type=Path,
                               help="ledger JSONL file (created on append)")
    ledger_parser.add_argument("--append-bench", type=Path, default=None,
                               metavar="BENCH.json",
                               help="append a perf-suite BENCH blob as one "
                                    "ledger record")
    ledger_parser.add_argument("--append-manifest", type=Path, default=None,
                               metavar="MANIFEST.json",
                               help="append a campaign manifest's accuracy "
                                    "metrics as one ledger record")
    ledger_parser.add_argument("--suite", default=None,
                               help="suite name to append under / filter by")
    ledger_parser.add_argument("--trend", default=None, metavar="METRIC",
                               help="print the metric's recent trajectory")
    ledger_parser.add_argument("--check", action="store_true",
                               help="gate the newest record against the "
                                    "rolling baseline (exit 1 on regression)")
    ledger_parser.add_argument("--window", type=int, default=10,
                               help="rolling-baseline window size")
    ledger_parser.add_argument("--tolerance", type=float, default=0.10,
                               help="relative drift tolerated before a "
                                    "metric fails the check")

    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "scenario":
        if args.scenario_command == "build":
            return cmd_scenario_build(args)
        if args.scenario_command == "sweep":
            return cmd_scenario_sweep(args)
        return cmd_scenario_primitives(args)
    if args.command == "analyze":
        if args.analyze_command == "compare":
            return cmd_analyze_compare(args)
        return cmd_analyze_ledger(args)
    return cmd_compare(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Regenerate every paper figure/table: ``python -m repro.experiments``.

Options:
    --scale S       trace scale factor (default 1.0; 0.25 for a quick pass)
    --seed N        trace seed (default 0)
    --only NAMES    comma-separated experiment subset, e.g. "fig8,table3"
    --benchmarks B  comma-separated benchmark subset
    --jobs N        worker processes for the campaign (default: all cores;
                    1 = serial)
    --cache-dir D   persistent result-cache directory (default:
                    $REPRO_CACHE_DIR or ~/.cache/repro)
    --no-cache      bypass the persistent cache entirely (no reads/writes)
    --invalidate    drop every cached entry before running
    --manifest P    also write the run manifest JSON to P (a manifest is
                    always written into the cache directory when caching)
    --retries N     failures tolerated per task before giving up (default 2)
    --task-timeout S  per-attempt wall-clock budget, enforced under jobs>=2
    --keep-going    record failed tasks and finish the campaign (exit 1)
    --resume        skip tasks the campaign journal marks completed
                    (journal: <cache-dir>/journal.jsonl; Ctrl-C flushes a
                    partial manifest so full-scale passes are resumable)
    --ledger P      append the campaign's accuracy metrics (miss rates,
                    IPC per experiment) to the perf/accuracy ledger at P
                    (``repro analyze ledger`` queries it; docs/analysis.md)

The full campaign fans out over a process pool and is served from the
content-addressed result cache on reruns — a warm rerun skips every
simulation and only re-renders the tables.  The printed campaign summary
reports cache hit/miss counts and wall time; the manifest records them
per task.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.experiments.common import EvalSuite
from repro.experiments.fig2_reuse import fig2_reuse_distribution, render_fig2
from repro.experiments.fig34_size_sensitivity import (
    render_fig3,
    render_fig4,
    size_sensitivity,
)
from repro.experiments.fig8_speedup import PAPER_DESIGNS, render_fig8
from repro.experiments.fig9_missrate import render_fig9
from repro.experiments.fig10_64kb import FIG10_DESIGNS, make_64kb_suite, render_fig10
from repro.experiments.table3_bypass import render_table3
from repro.runner import CampaignEngine, ResultCache
from repro.trace.suite import CACHE_SENSITIVE

ALL_EXPERIMENTS = ("fig2", "fig3", "fig4", "fig8", "fig9", "table3", "fig10")


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures and tables.",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", type=str, default=",".join(ALL_EXPERIMENTS))
    parser.add_argument("--benchmarks", type=str, default="")
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: all cores; 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache (no reads or writes)",
    )
    parser.add_argument(
        "--invalidate", action="store_true",
        help="drop every cached entry before running",
    )
    parser.add_argument(
        "--manifest", type=Path, default=None,
        help="write the run manifest JSON to this path",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="failures tolerated per task before giving up (default: 2)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget (enforced under --jobs >= 2)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="record failed tasks and finish the campaign (exit code 1)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip tasks the campaign journal records as completed",
    )
    parser.add_argument(
        "--ledger", type=Path, default=None, metavar="PATH",
        help="append this campaign's accuracy metrics to the "
             "perf/accuracy ledger (see docs/analysis.md)",
    )
    parser.add_argument(
        "--ledger-suite", default="experiments",
        help="suite name for the ledger record",
    )
    args = parser.parse_args(argv)

    wanted = [w.strip() for w in args.only.split(",") if w.strip()]
    unknown = set(wanted) - set(ALL_EXPERIMENTS)
    if unknown:
        parser.error(f"unknown experiments: {sorted(unknown)}")
    benches = (
        [b.strip().upper() for b in args.benchmarks.split(",") if b.strip()] or None
    )

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir if args.cache_dir is not None else default_cache_dir()
        cache = ResultCache(cache_dir)
        if args.invalidate:
            dropped = cache.invalidate()
            print(f"[cache] invalidated {dropped} entries under {cache_dir}")
    journal = None
    if cache is not None and cache.enabled:
        journal = cache.root / "journal.jsonl"
        if not args.resume and journal.exists():
            journal.unlink()  # fresh campaign owns a fresh journal
    if args.resume and journal is None:
        parser.error("--resume needs a journal; it lives in the cache "
                     "directory, so drop --no-cache")
    from repro.faults import FaultPlan

    engine = CampaignEngine(
        jobs=args.jobs,
        cache=cache,
        retries=args.retries,
        task_timeout=args.task_timeout,
        keep_going=args.keep_going,
        journal=journal,
        resume=args.resume,
        faults=FaultPlan.from_env(),
        manifest_path=args.manifest,
    )

    t0 = time.time()
    suite = EvalSuite(
        benchmarks=benches, scale=args.scale, seed=args.seed, engine=engine
    )

    try:
        if "fig2" in wanted:
            print(render_fig2(fig2_reuse_distribution(
                benches, scale=args.scale, seed=args.seed, engine=engine
            )))
            print()
        if "fig3" in wanted or "fig4" in wanted:
            # The size sweep covers only the cache-sensitive benchmarks.
            sized = [b for b in benches or CACHE_SENSITIVE if b in CACHE_SENSITIVE]
            if not sized:
                print("[skip] fig3/fig4: no cache-sensitive benchmark selected")
                print()
            else:
                data = size_sensitivity(
                    sized, scale=args.scale, seed=args.seed, engine=engine
                )
                if "fig3" in wanted:
                    print(render_fig3(data))
                    print()
                if "fig4" in wanted:
                    print(render_fig4(data))
                    print()
        if {"fig8", "fig9", "table3"} & set(wanted):
            suite.run_matrix(PAPER_DESIGNS)  # one parallel campaign, three views
        if "fig8" in wanted:
            print(render_fig8(suite))
            print()
        if "fig9" in wanted:
            print(render_fig9(suite))
            print()
        if "table3" in wanted:
            print(render_table3(suite))
            print()
        if "fig10" in wanted:
            suite64 = make_64kb_suite(
                benches, scale=args.scale, seed=args.seed, engine=engine
            )
            suite64.run_matrix(FIG10_DESIGNS)
            print(render_fig10(suite64))
            print()
    except KeyboardInterrupt:
        # The engine already flushed the journal and (with --manifest) a
        # partial manifest marked interrupted; tell the user how to go on.
        print(f"\n[interrupted] {engine.counters.unique_tasks} tasks completed "
              f"and journaled; rerun with --resume to finish", file=sys.stderr)
        return 130
    except Exception:
        if not engine.failures:
            raise
        # --keep-going: failed tasks leave FAILED payload slots the
        # figure renderers cannot tabulate; fall through and report.

    if engine.failures:
        print(f"[failed] {len(engine.failures)} tasks exhausted their "
              f"{args.retries} retries:")
        for err in engine.failures:
            print(f"  {err.label}: {err.history[-1]['error']}")

    print(engine.counters.render())
    if args.manifest is not None:
        print(f"[manifest] {engine.write_manifest(args.manifest)}")
    elif cache is not None and cache.enabled:
        print(f"[manifest] {engine.write_manifest(cache.root / 'manifest-latest.json')}")
    if args.ledger is not None:
        from repro.analysis import Ledger, record_from_manifest

        record = record_from_manifest(engine.manifest(),
                                      suite=args.ledger_suite)
        Ledger(args.ledger).append(record)
        print(f"[ledger] appended {args.ledger_suite} record "
              f"({len(record['metrics'])} metrics) -> {args.ledger}")
    print(f"[done in {time.time() - t0:.1f}s]")
    return 1 if engine.failures else 0


if __name__ == "__main__":
    sys.exit(main())

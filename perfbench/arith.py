"""The benchmark's own arithmetic, kept free of any ``repro`` import.

Everything here works on plain numbers, dicts and span records, so
``test_arith.py`` can check it on synthetic inputs without running a
simulation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Verdict thresholds on a G-Cache-over-baseline IPC ratio.  They are the
#: scenario sweep's published ones, fixed here so the benchmark's
#: definition does not move when the program's does.
WIN_THRESHOLD = 1.02
LOSS_THRESHOLD = 0.98


# ---------------------------------------------------------------------------
# Estimator accuracy
# ---------------------------------------------------------------------------


def verdict(speedup: float) -> str:
    """``win`` above 1.02, ``loss`` below 0.98, else ``draw``."""
    if speedup > WIN_THRESHOLD:
        return "win"
    if speedup < LOSS_THRESHOLD:
        return "loss"
    return "draw"


def speedup_error(estimated: float, reference: float) -> float:
    """``|estimated - reference| / reference``."""
    return abs(estimated - reference) / reference


def estimator_accuracy(
    reference: Mapping[str, float], estimated: Mapping[str, float]
) -> Dict[str, float]:
    """Compare per-benchmark speedups of two fidelities.

    Args:
        reference: benchmark -> timing-engine speedup (candidate over
            baseline IPC).
        estimated: benchmark -> functional (estimated-IPC) speedup.

    Returns ``verdict_agree`` (share of benchmarks with the same
    verdict), ``speedup_err_max`` and ``speedup_err_mean`` over the
    benchmarks both sides have, plus ``pairs`` (how many that is).
    """
    common = sorted(set(reference) & set(estimated))
    if not common:
        raise ValueError("no benchmark has both a reference and an estimate")
    agree = sum(verdict(reference[b]) == verdict(estimated[b]) for b in common)
    errors = [speedup_error(estimated[b], reference[b]) for b in common]
    return {
        "verdict_agree": agree / len(common),
        "speedup_err_max": max(errors),
        "speedup_err_mean": sum(errors) / len(errors),
        "pairs": len(common),
    }


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def setup_seconds(wall_s: float, manifest: Mapping) -> float:
    """Host time of one invocation outside the campaign engine's ``run()``.

    ``wall_s`` runs from launch to exit; the manifest's
    ``counters.elapsed_seconds`` is what ``CampaignEngine.run`` measured
    inside that window.
    """
    return wall_s - float(manifest["counters"]["elapsed_seconds"])


def undisturbed_wall(
    runs: Sequence[Tuple[float, int, Mapping[str, float]]]
) -> float:
    """Wall time of one invocation with host noise filtered per task.

    ``runs`` holds one ``(wall_s, jobs, {task label: seconds})`` per
    campaign, all of the same invocation.  The wall time splits into the
    tasks' share, ``sum(seconds) / jobs``, and the rest: start-up, task
    construction, pool imbalance, the report and the manifest.  Each task
    and the rest take their fastest reading over the campaigns, and the
    parts are added up again.  Noise on a shared host only slows a part
    down, and it comes in stretches shorter than a campaign, so the
    fastest reading of each part is the least disturbed one.  With one
    campaign this is its wall time.
    """
    if not runs:
        raise ValueError("no campaign to take the wall time of")
    jobs = {j for _, j, _ in runs}
    labels = {frozenset(tasks) for _, _, tasks in runs}
    if len(jobs) != 1 or len(labels) != 1:
        raise ValueError("campaigns of one invocation differ in jobs or tasks")
    (j,) = jobs
    rest = min(wall - sum(tasks.values()) / j for wall, _, tasks in runs)
    fastest = {label: min(tasks[label] for _, _, tasks in runs)
               for label in runs[0][2]}
    return rest + sum(fastest.values()) / j


def builds_per_trace(keys: Iterable) -> float:
    """Trace builds per distinct trace; 1.0 means no build was repeated."""
    keys = list(keys)
    if not keys:
        return 0.0
    return len(keys) / len(set(keys))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
#
# A span is a dict with ``name``, ``start``, ``end`` (seconds on one
# monotonic clock), ``parent`` (index of the enclosing span in the same
# list, or None) and ``pid``.


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Mapping]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"])
        - _covered(children.get(i, []), s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


def layer_wall(
    spans: Sequence[Mapping], main_pid: int, wait_span: str = "runner.run"
) -> Dict[str, float]:
    """Share of one process's wall time attributed to each span name.

    Spans of ``main_pid`` count their self time.  When pool workers
    recorded spans too, the main process's self time in ``wait_span``
    (dispatching to and waiting on the pool) is handed to the workers'
    layers in proportion to their self time, so the shares still add up
    to the main process's wall time rather than to the sum of the
    workers' busy time.
    """
    selfs = self_times(spans)
    worker_busy = sum(t for s, t in zip(spans, selfs) if s["pid"] != main_pid)
    waited = sum(
        t for s, t in zip(spans, selfs)
        if s["pid"] == main_pid and s["name"] == wait_span
    )
    scale = waited / worker_busy if worker_busy > 0 else 0.0
    out: Dict[str, float] = {}
    for s, t in zip(spans, selfs):
        if s["pid"] != main_pid:
            t *= scale
        elif worker_busy > 0 and s["name"] == wait_span:
            continue
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out

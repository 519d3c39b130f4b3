"""Diff two campaign manifests: per-benchmark counter deltas + verdicts.

The paper's headline claims are comparative (G-Cache vs BS/SRRIP/PDP
across 17 benchmarks), so the primitive this module provides is exactly
that shape: given manifest **A** (baseline) and manifest **B**
(candidate — another design set, another commit, another fidelity),
produce for every experiment label present in either a structured
verdict per counter:

``improved`` / ``regressed``
    The counter moved and the direction is meaningful for that counter
    (see :func:`counter_polarity`).
``changed``
    The counter moved but has no defined polarity (e.g. raw event
    counts, where more/less is neither good nor bad by itself).
``unchanged``
    Bit-identical values.
``new`` / ``missing``
    The counter (or whole label) exists on only one side.

Everything is deterministic: same two manifests → the same comparison
object → byte-identical rendered reports (:mod:`repro.analysis.report`),
regardless of dict ordering in the input files.  The module never
imports the simulator — analysis is read-only with respect to
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.loader import Manifest, TaskRecord
from repro.stats.report import geomean

__all__ = [
    "VERDICTS",
    "CounterDelta",
    "DesignSummary",
    "LabelComparison",
    "ManifestComparison",
    "compare_manifests",
    "counter_polarity",
]

#: Verdict vocabulary, in report order.
VERDICTS = ("regressed", "improved", "changed", "unchanged", "new", "missing")

#: Counter-name fragments whose metrics are better when *lower*.
_LOWER_IS_BETTER = (
    "miss_rate",
    "latency",
    "cycles",
    "stall",
    "seconds",
    "normalized_cost",
    "energy",
    "retries",
    "timeouts",
    "failed",
    "quarantined",
    "corrupt",
    "pool_rebuilds",
    "dropped",
)

#: Counter-name fragments whose metrics are better when *higher*.
_HIGHER_IS_BETTER = (
    "ipc",
    "speedup",
    "hit_rate",
    "row_hit_rate",
    "runs_per_sec",
    "instructions_per",
    "throughput",
)


def counter_polarity(name: str) -> int:
    """``+1`` higher-is-better, ``-1`` lower-is-better, ``0`` neutral.

    Matched on dotted-name fragments (``l1.miss_rate`` → ``-1``;
    ``core.instructions`` → ``0``).  Raw event counts are deliberately
    neutral: fewer ``l1.loads`` is not by itself an improvement, so such
    counters can only be ``changed``/``unchanged``, never ``regressed``.
    Higher-is-better fragments win ties (``hit_rate`` contains no
    lower-is-better fragment, but keep the precedence explicit).
    """
    lowered = name.lower()
    for fragment in _HIGHER_IS_BETTER:
        if fragment in lowered:
            return 1
    for fragment in _LOWER_IS_BETTER:
        if fragment in lowered:
            return -1
    return 0


@dataclass
class CounterDelta:
    """One counter's A-vs-B outcome within one experiment label.

    Attributes:
        name: Flattened counter name (``l1.miss_rate``).
        a: Manifest A's value (``None`` when absent or non-numeric).
        b: Manifest B's value (``None`` when absent or non-numeric).
        delta: ``b - a`` (``None`` unless both sides are numeric).
        rel_delta: ``delta / |a|`` (``None`` when ``a == 0`` or absent).
        verdict: One of :data:`VERDICTS`.
    """

    name: str
    a: Optional[float]
    b: Optional[float]
    delta: Optional[float]
    rel_delta: Optional[float]
    verdict: str


@dataclass
class LabelComparison:
    """All counter deltas for one experiment label (benchmark × design)."""

    label: str
    status: str  # "matched" | "new" | "missing"
    benchmark: Optional[str]
    design: Optional[str]
    fidelity: str
    deltas: List[CounterDelta] = field(default_factory=list)

    def by_verdict(self, verdict: str) -> List[CounterDelta]:
        return [d for d in self.deltas if d.verdict == verdict]


@dataclass
class DesignSummary:
    """Aggregate A→B movement for one design across benchmarks.

    ``ipc_ratio`` is the geometric mean over benchmarks of
    ``IPC_B / IPC_A`` (the paper's aggregation for speedups) — ``None``
    when IPC is unavailable (e.g. replay-only campaigns).
    ``miss_delta_pp`` is the arithmetic mean change of ``l1.miss_rate``
    in percentage points.
    """

    design: str
    benchmarks: int
    ipc_ratio: Optional[float]
    miss_delta_pp: Optional[float]


@dataclass
class ManifestComparison:
    """The full structured diff between two campaign manifests."""

    a: Manifest
    b: Manifest
    labels: List[LabelComparison] = field(default_factory=list)
    failed_a: List[str] = field(default_factory=list)
    failed_b: List[str] = field(default_factory=list)

    def verdict_counts(self) -> Dict[str, int]:
        """Counter-level verdict totals across all matched labels."""
        counts = {v: 0 for v in VERDICTS}
        for label in self.labels:
            if label.status == "new":
                counts["new"] += 1
                continue
            if label.status == "missing":
                counts["missing"] += 1
                continue
            for delta in label.deltas:
                counts[delta.verdict] += 1
        return counts

    def top_regressions(self, n: int = 10) -> List[Tuple[str, CounterDelta]]:
        """The ``n`` worst regressions by absolute relative delta."""
        regressions = [
            (label.label, delta)
            for label in self.labels
            for delta in label.deltas
            if delta.verdict == "regressed"
        ]
        regressions.sort(
            key=lambda pair: (
                -(abs(pair[1].rel_delta) if pair[1].rel_delta is not None else 0.0),
                pair[0],
                pair[1].name,
            )
        )
        return regressions[:n]

    def design_summaries(self) -> List[DesignSummary]:
        """Per-design speedup/miss-rate roll-up across matched labels."""
        by_design: Dict[str, List[LabelComparison]] = {}
        for label in self.labels:
            if label.status == "matched" and label.design:
                by_design.setdefault(label.design, []).append(label)
        summaries = []
        for design in sorted(by_design):
            ratios: List[float] = []
            miss_deltas: List[float] = []
            for label in by_design[design]:
                deltas = {d.name: d for d in label.deltas}
                ipc = deltas.get("ipc")
                if ipc and ipc.a and ipc.b and ipc.a > 0 and ipc.b > 0:
                    ratios.append(ipc.b / ipc.a)
                miss = deltas.get("l1.miss_rate")
                if miss and miss.delta is not None:
                    miss_deltas.append(100.0 * miss.delta)
            summaries.append(
                DesignSummary(
                    design=design,
                    benchmarks=len(by_design[design]),
                    ipc_ratio=geomean(ratios) if ratios else None,
                    miss_delta_pp=(
                        sum(miss_deltas) / len(miss_deltas) if miss_deltas else None
                    ),
                )
            )
        return summaries


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def augmented_metrics(task: TaskRecord) -> Dict[str, Any]:
    """A task's flattened metrics plus derived headline counters.

    IPC is the paper's headline metric but the metrics registry stores
    its ingredients (``core.instructions`` / ``core.cycles``); deriving
    it here keeps manifests untouched while giving comparisons, design
    summaries and the ledger the number people actually look at.
    """
    flat = task.flat_metrics()
    instructions = flat.get("core.instructions")
    cycles = flat.get("core.cycles")
    if _is_number(instructions) and _is_number(cycles) and cycles:
        flat["ipc"] = instructions / cycles
    return flat


def _compare_counter(
    name: str, metrics_a: Dict[str, Any], metrics_b: Dict[str, Any]
) -> CounterDelta:
    raw_a, raw_b = metrics_a.get(name), metrics_b.get(name)
    if not (_is_number(raw_a) and _is_number(raw_b)):
        # Non-numeric or one-sided counters: equality check only.
        if raw_a is None and raw_b is not None:
            verdict = "new"
        elif raw_a is not None and raw_b is None:
            verdict = "missing"
        else:
            verdict = "unchanged" if raw_a == raw_b else "changed"
        return CounterDelta(
            name=name,
            a=raw_a if _is_number(raw_a) else None,
            b=raw_b if _is_number(raw_b) else None,
            delta=None, rel_delta=None, verdict=verdict,
        )

    delta = raw_b - raw_a
    polarity = counter_polarity(name)
    if delta == 0:
        verdict = "unchanged"
    elif polarity == 0:
        verdict = "changed"
    elif delta * polarity > 0:
        verdict = "improved"
    else:
        verdict = "regressed"
    return CounterDelta(
        name=name, a=raw_a, b=raw_b, delta=delta,
        rel_delta=(delta / abs(raw_a)) if raw_a else None, verdict=verdict,
    )


def compare_manifests(a: Manifest, b: Manifest) -> ManifestComparison:
    """Diff two loaded manifests into a :class:`ManifestComparison`.

    Labels are matched exactly (kind, fidelity, benchmark, design and
    any non-default task field all live in the label), so a design
    renamed between runs shows up as one ``missing`` plus one ``new``
    label — the honest answer.  Each label names one task
    (:meth:`Manifest.groups`), so every counter verdict compares one
    value per side.

    Raises:
        AnalysisError: a manifest carries one label under two keys.
    """
    groups_a = a.groups()
    groups_b = b.groups()
    comparison = ManifestComparison(
        a=a, b=b, failed_a=a.failed_labels, failed_b=b.failed_labels,
    )
    for label in sorted(set(groups_a) | set(groups_b)):
        task_a = groups_a.get(label)
        task_b = groups_b.get(label)
        sample = task_a or task_b
        entry = LabelComparison(
            label=label,
            status="matched" if task_a and task_b
            else ("missing" if task_a else "new"),
            benchmark=sample.benchmark,
            design=sample.design,
            fidelity=sample.fidelity,
        )
        if entry.status == "matched":
            metrics_a = augmented_metrics(task_a)
            metrics_b = augmented_metrics(task_b)
            for name in sorted(metrics_a.keys() | metrics_b.keys()):
                entry.deltas.append(_compare_counter(name, metrics_a, metrics_b))
        comparison.labels.append(entry)
    return comparison

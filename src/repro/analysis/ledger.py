"""The historical perf/accuracy ledger: one JSONL line per measurement.

The CI perf gate used to be a single same-machine threshold; the ledger
turns it into a queryable trajectory.  Every perf-suite run and campaign
appends one schema-versioned record — keyed by commit, host fingerprint,
fidelity and suite — and :meth:`Ledger.check` gates the newest record
against a **rolling baseline** (median of the trailing window) with
MAD-calibrated drift detection, so one noisy historical run cannot
poison the gate the way one stale static threshold can.

Records are append-only and fsync'd per line (the
:class:`repro.runner.journal.CampaignJournal` durability discipline): a
ledger write is the commit point for "this measurement happened", and a
torn trailing line from a killed process is skipped on load, never
treated as corruption.

Record layout (schema 1)::

    {"schema_version": 1, "kind": "perf", "suite": "perf-gate",
     "commit": "ab12…" | null, "fidelity": "timing" | null,
     "timestamp": "2026-08-08T12:00:00+0000",
     "host": {"id": "9f3c01d2e4b5", "platform": ..., "machine": ...,
              "python": ..., "cpus": 8},
     "metrics": {"SPMV/gc.normalized_cost": 103.2, ...},
     "meta": {...}}

Metric polarity (is a bigger number worse?) comes from
:func:`repro.analysis.compare.counter_polarity` — the same vocabulary
the manifest diff uses, so ``…normalized_cost`` gates as
lower-is-better and ``…ipc`` as higher-is-better with no per-call
configuration.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.analysis.compare import augmented_metrics, counter_polarity
from repro.analysis.loader import AnalysisError, parse_manifest
from repro.runner.engine import git_commit
from repro.stats.report import Table

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "LedgerCheck",
    "host_fingerprint",
    "make_record",
    "record_from_bench",
    "record_from_manifest",
]

#: Ledger-record schema version; bump on layout changes.
LEDGER_SCHEMA_VERSION = 1

_HOST_CACHE: List[Dict[str, Any]] = []


def median(values: Iterable[float]) -> float:
    """Median of a non-empty iterable (even lengths average the pair)."""
    ordered: List[float] = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Iterable[float], center: Optional[float] = None) -> float:
    """Median absolute deviation — the rolling gate's robust noise estimate."""
    ordered = list(values)
    if not ordered:
        raise ValueError("MAD of an empty sequence")
    c = median(ordered) if center is None else center
    return median(abs(v - c) for v in ordered)


def host_fingerprint() -> Dict[str, Any]:
    """Stable identity of the measuring host (cached per process).

    The ``id`` field is a short digest of the descriptive fields —
    enough to ask "same kind of machine?" without recording hostnames.
    """
    if not _HOST_CACHE:
        import hashlib
        import platform

        info: Dict[str, Any] = {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "cpus": os.cpu_count() or 1,
        }
        digest = hashlib.sha256(
            repr(sorted(info.items())).encode()
        ).hexdigest()[:12]
        info["id"] = digest
        _HOST_CACHE.append(info)
    return dict(_HOST_CACHE[0])


def make_record(
    suite: str,
    metrics: Mapping[str, Any],
    *,
    kind: str = "perf",
    fidelity: Optional[str] = None,
    commit: Optional[str] = None,
    host: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
    timestamp: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one schema-versioned ledger record (plain data)."""
    if not suite or not isinstance(suite, str):
        raise AnalysisError(f"ledger record needs a non-empty suite, got {suite!r}")
    if not isinstance(metrics, Mapping) or not metrics:
        raise AnalysisError("ledger record needs a non-empty metrics mapping")
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "kind": kind,
        "suite": suite,
        "commit": commit if commit is not None else git_commit(),
        "fidelity": fidelity,
        "timestamp": timestamp
        if timestamp is not None
        else time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": dict(host) if host is not None else host_fingerprint(),
        "metrics": dict(metrics),
        "meta": dict(meta) if meta is not None else {},
    }


def record_from_bench(
    bench: Mapping[str, Any], suite: str = "perf-gate", **kw: Any
) -> Dict[str, Any]:
    """A ledger record from a ``BENCH_*.json``-shaped measurement blob.

    Keeps the machine-transferable numbers: ``normalized_cost`` per
    kernel/design (the calibrated metric the cross-machine gate uses)
    plus the functional-sweep speedups when present.
    """
    records = bench.get("records")
    if not isinstance(records, list) or not records:
        raise AnalysisError("bench blob has no 'records' array")
    metrics: Dict[str, Any] = {}
    for rec in records:
        key = f"{rec.get('benchmark')}/{rec.get('design')}"
        if "normalized_cost" in rec:
            metrics[f"{key}.normalized_cost"] = rec["normalized_cost"]
        if rec.get("mode") == "functional" and "speedup" in rec:
            metrics[f"{key}.speedup"] = rec["speedup"]
            phases = rec.get("phase_seconds")
            if isinstance(phases, Mapping):
                for phase, seconds in phases.items():
                    metrics[f"{key}.phase_seconds.{phase}"] = seconds
        if "best_seconds" in rec:
            metrics[f"{key}.best_seconds"] = rec["best_seconds"]
    return make_record(suite, metrics, kind="perf", **kw)


def record_from_manifest(
    manifest: Mapping[str, Any], suite: str = "campaign", **kw: Any
) -> Dict[str, Any]:
    """A ledger record from a campaign manifest dict.

    Captures the *accuracy* trajectory — per-experiment L1/L2 miss
    rates, bypass ratios and IPC — plus campaign health counters, so
    drift in simulated numbers across commits is as visible as drift in
    throughput.  Each label names one task (:meth:`Manifest.groups`):
    repeats of one key count once, and a label under two keys raises
    :class:`AnalysisError`.
    """
    loaded = parse_manifest(manifest)
    groups = loaded.groups()
    metrics: Dict[str, Any] = {}
    for label in sorted(groups):
        flat = augmented_metrics(groups[label])
        for name in (
            "dram.row_hit_rate", "ipc", "l1.bypass_ratio", "l1.miss_rate",
            "l2.miss_rate",
        ):
            value = flat.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[f"{label}.{name}"] = float(value)
    counters = manifest.get("counters")
    if isinstance(counters, Mapping):
        for name in ("task_seconds", "elapsed_seconds", "retries", "failed"):
            if name in counters:
                metrics[f"campaign.{name}"] = counters[name]
    if not metrics:
        raise AnalysisError("manifest carries no ledger-able metrics")
    fidelities = {t.fidelity for t in loaded.tasks}
    kw.setdefault("commit", manifest.get("git_commit"))
    return make_record(
        suite,
        metrics,
        kind="campaign",
        fidelity=sorted(fidelities)[0] if len(fidelities) == 1 else None,
        meta={"salt": manifest.get("salt"),
              "interrupted": bool(manifest.get("interrupted", False))},
        **kw,
    )


@dataclass
class LedgerCheck:
    """Outcome of gating one record against the rolling baseline."""

    suite: str
    window: int
    tolerance: float
    history: int
    checked: int = 0
    skipped: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        table = Table(
            ["metric", "value", "baseline", "ratio", "verdict"],
            title=f"Ledger check: suite {self.suite!r} "
            f"(window {self.window}, tolerance {self.tolerance:.0%})",
        )
        for f in self.failures:
            table.row([
                f["metric"], f"{f['value']:.6g}", f"{f['baseline']:.6g}",
                f"{f['ratio']:.3f}", "FAIL",
            ])
        lines = [table.render()] if self.failures else []
        status = "OK" if self.ok else "FAIL"
        lines.append(
            f"{status}: {self.checked} metrics checked against {self.history} "
            f"historical records, {len(self.failures)} regressed, "
            f"{self.skipped} skipped"
        )
        if self.note:
            lines.append(self.note)
        return "\n".join(lines)


class Ledger:
    """Append-only JSONL perf/accuracy ledger with trend queries."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record: Mapping[str, Any]) -> Dict[str, Any]:
        """Durably append one record; returns it as written.

        Open-append-fsync-close per record: appends are rare (one per
        CI run) and the ledger must survive the process dying on the
        next instruction.
        """
        if not isinstance(record, Mapping):
            raise AnalysisError(f"ledger record must be a mapping, got {type(record)}")
        if "schema_version" not in record or "suite" not in record:
            raise AnalysisError(
                "ledger record missing schema_version/suite — build it "
                "with make_record()/record_from_bench()/record_from_manifest()"
            )
        record = dict(record)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as fh:
            # A torn tail from a killed writer has no trailing newline;
            # terminate it first so the new record never glues onto it.
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write(json.dumps(record, sort_keys=True).encode() + b"\n")
            fh.flush()
            os.fsync(fh.fileno())
        return record

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def records(
        self,
        suite: Optional[str] = None,
        kind: Optional[str] = None,
        host_id: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """All parseable records, in append order, optionally filtered.

        A missing ledger file reads as empty (a fresh trajectory); a
        torn trailing line is skipped.
        """
        try:
            text = self.path.read_text()
        except OSError:
            return []
        out: List[Dict[str, Any]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed writer
            if not isinstance(record, dict) or "metrics" not in record:
                continue
            if suite is not None and record.get("suite") != suite:
                continue
            if kind is not None and record.get("kind") != kind:
                continue
            if host_id is not None:
                host = record.get("host")
                if not isinstance(host, dict) or host.get("id") != host_id:
                    continue
            out.append(record)
        return out

    def suites(self) -> List[str]:
        """Distinct suite names present in the ledger, sorted."""
        return sorted({
            r.get("suite") for r in self.records() if isinstance(r.get("suite"), str)
        })

    def trend(
        self,
        suite: str,
        metric: str,
        window: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """The metric's trajectory: one point per record carrying it.

        Each point: ``{"commit", "timestamp", "value", "baseline"}``
        where ``baseline`` is the rolling median of all *prior* points
        (``None`` for the first).  ``window`` limits to the trailing N.
        """
        points: List[Dict[str, Any]] = []
        values: List[float] = []
        for record in self.records(suite=suite):
            metrics = record.get("metrics", {})
            value = metrics.get(metric)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            points.append({
                "commit": record.get("commit"),
                "timestamp": record.get("timestamp"),
                "value": float(value),
                "baseline": median(values) if values else None,
            })
            values.append(float(value))
        if window is not None:
            points = points[-window:]
        return points

    # ------------------------------------------------------------------
    # Gating
    # ------------------------------------------------------------------
    def check(
        self,
        record: Optional[Mapping[str, Any]] = None,
        *,
        suite: Optional[str] = None,
        window: int = 10,
        tolerance: float = 0.10,
        min_history: int = 3,
        mad_gate: float = 3.0,
    ) -> LedgerCheck:
        """Gate a record against the rolling baseline of its suite.

        With no explicit ``record``, the newest record of ``suite`` (or
        of the whole ledger) is checked against the window *preceding*
        it.  For every directional metric (nonzero
        :func:`counter_polarity`) present in both the record and at
        least ``min_history`` baseline records, the metric **fails**
        when it is worse than the rolling median by more than
        ``tolerance`` relatively *and* by more than ``mad_gate`` median
        absolute deviations — the MAD term calibrates the gate to each
        metric's own historical noise, so a jittery metric needs a
        bigger excursion than a rock-stable one.

        Too little history is a pass with a note, never an error: a
        fresh trajectory must be able to start.
        """
        history = self.records(suite=suite)
        if record is None:
            if not history:
                return LedgerCheck(
                    suite=suite or "*", window=window, tolerance=tolerance,
                    history=0, note="empty ledger: nothing to check",
                )
            record, history = history[-1], history[:-1]
        else:
            if suite is None:
                suite = record.get("suite")
                history = self.records(suite=suite)
            # Never baseline a record against itself: drop one identical
            # trailing entry if the record was already appended.
            if history and history[-1] == dict(record):
                history = history[:-1]
        baseline_records = history[-window:]
        result = LedgerCheck(
            suite=suite or str(record.get("suite", "*")),
            window=window, tolerance=tolerance, history=len(baseline_records),
        )
        metrics = record.get("metrics", {})
        if not isinstance(metrics, Mapping):
            raise AnalysisError("checked record has no metrics mapping")
        for name in sorted(metrics):
            value = metrics[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            polarity = counter_polarity(name)
            if polarity == 0:
                result.skipped += 1
                continue
            samples = [
                float(r["metrics"][name])
                for r in baseline_records
                if isinstance(r.get("metrics"), Mapping)
                and isinstance(r["metrics"].get(name), (int, float))
                and not isinstance(r["metrics"].get(name), bool)
            ]
            if len(samples) < min_history:
                result.skipped += 1
                continue
            result.checked += 1
            base = median(samples)
            noise = mad(samples, center=base)
            # "Worse" follows polarity: higher cost, or lower IPC.
            excess = (float(value) - base) * (-polarity)
            rel_excess = excess / abs(base) if base else (1.0 if excess > 0 else 0.0)
            if excess > 0 and rel_excess > tolerance and excess > mad_gate * noise:
                result.failures.append({
                    "metric": name,
                    "value": float(value),
                    "baseline": base,
                    "ratio": float(value) / base if base else float("inf"),
                    "mad": noise,
                })
        if result.checked == 0 and not result.failures:
            result.note = (
                f"insufficient history (< {min_history} comparable records): "
                "pass by default while the trajectory warms up"
            )
        return result

    def render_trend(self, suite: str, metric: str, window: int = 20) -> str:
        """A text table of the metric's recent trajectory."""
        points = self.trend(suite, metric, window=window)
        table = Table(
            ["commit", "timestamp", "value", "rolling median", "drift"],
            title=f"{suite}: {metric}",
        )
        for p in points:
            drift = (
                f"{100.0 * (p['value'] - p['baseline']) / p['baseline']:+.1f}%"
                if p["baseline"] else "-"
            )
            table.row([
                (p["commit"] or "-")[:12],
                p["timestamp"] or "-",
                f"{p['value']:.6g}",
                f"{p['baseline']:.6g}" if p["baseline"] is not None else "-",
                drift,
            ])
        return table.render()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Ledger {self.path}>"


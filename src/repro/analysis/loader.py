"""Loading and validating campaign manifests for cross-run analysis.

Campaign manifests (:meth:`repro.runner.CampaignEngine.write_manifest`)
are the on-disk record of one evaluation campaign: engine counters,
resilience accounting, and one entry per task carrying the task's full
namespaced metrics snapshot.  This module turns a manifest file back
into typed objects the rest of :mod:`repro.analysis` can diff, without
ever importing the simulator — the analysis layer is strictly read-only
with respect to simulation.

Two manifest schema generations exist in the wild:

* **v1** (PRs 1–5): no ``schema_version`` field; task identity only in
  the ``label`` string (``simulate[functional]:SPMV/gc``).
* **v2**: adds ``schema_version``, ``git_commit`` and structured
  per-task ``kind``/``benchmark``/``design`` fields.

:func:`load_manifest` accepts both — v1 labels are parsed back into
structured fields, so comparisons across the schema boundary work.
Anything unreadable raises :class:`AnalysisError` with a message fit
for CLI consumption (the CLI maps it to a nonzero exit, never a
traceback).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.runner.engine import MANIFEST_SCHEMA_VERSION

__all__ = [
    "AnalysisError",
    "Manifest",
    "TaskRecord",
    "flatten_metrics",
    "load_manifest",
    "parse_label",
    "parse_manifest",
]


class AnalysisError(ValueError):
    """A manifest/ledger input could not be read or understood.

    Raised instead of bare ``OSError``/``JSONDecodeError`` so CLI entry
    points can catch one exception type and exit nonzero with the
    message — analysis error paths must never exit 0.
    """


def parse_label(label: str) -> Tuple[str, Optional[str], Optional[str], str]:
    """``(kind, benchmark, design, fidelity)`` from a v1 task label.

    Labels look like ``simulate:SPMV/gc``, ``simulate[functional]:X/gc``,
    ``pd-sweep:SPMV`` or, in manifests written before the ``replay``
    task kind was retired, ``replay:KMN/bs``.  A trailing ``@…``
    suffix (the task's non-default fields) is not part of any of the
    returned fields.  Unparseable labels degrade
    to ``(label, None, None, "timing")`` rather than erroring — an old
    or foreign manifest should still load, just with less structure.
    """
    kind, sep, rest = label.partition(":")
    if not sep:
        return label, None, None, "timing"
    fidelity = "timing"
    if kind.endswith("]") and "[" in kind:
        kind, _, fid = kind[:-1].partition("[")
        fidelity = fid or "timing"
    name, sep, design = rest.partition("@")[0].partition("/")
    return kind, name or None, (design if sep else None), fidelity


def flatten_metrics(metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """Flatten histogram sub-dicts into dotted scalar counters.

    Metrics snapshots are flat except for histograms, whose value is a
    summary dict (``{"count": ..., "mean": ..., ...}``).  Comparison
    wants one number per key, so ``core.load_latency`` becomes
    ``core.load_latency.count``, ``core.load_latency.mean``, ….  Scalar
    entries pass through bit-identically (no float formatting).
    """
    flat: Dict[str, Any] = {}
    for name in metrics:
        value = metrics[name]
        if isinstance(value, Mapping):
            for stat in value:
                flat[f"{name}.{stat}"] = value[stat]
        else:
            flat[name] = value
    return flat


@dataclass
class TaskRecord:
    """One task entry of a manifest, with structured identity fields."""

    label: str
    kind: str
    benchmark: Optional[str]
    design: Optional[str]
    fidelity: str
    key: str
    cached: bool
    seconds: float
    attempts: int
    failed: bool
    metrics: Optional[Dict[str, Any]] = None

    def flat_metrics(self) -> Dict[str, Any]:
        """Flattened metrics (see :func:`flatten_metrics`); ``{}`` if none."""
        if not self.metrics:
            return {}
        return flatten_metrics(self.metrics)


@dataclass
class Manifest:
    """A loaded campaign manifest, ready for comparison.

    Attributes:
        path: Source file, or ``None`` for in-memory manifests.
        raw: The manifest dict exactly as parsed (nothing dropped —
            round-tripping ``raw`` back to JSON preserves every byte of
            structure).
        schema_version: Declared version; ``1`` for pre-version files.
        git_commit: Commit recorded at campaign time, if any.
        salt: Code-version salt of the producing tree.
        generated_at: Manifest timestamp string.
        interrupted: The campaign was cut short (partial manifest).
        tasks: Per-task records in completion order.
    """

    path: Optional[Path]
    raw: Dict[str, Any]
    schema_version: int
    git_commit: Optional[str]
    salt: Optional[str]
    generated_at: Optional[str]
    interrupted: bool
    tasks: List[TaskRecord] = field(default_factory=list)

    @property
    def name(self) -> str:
        """Short human name for report headings (file stem or commit)."""
        if self.path is not None:
            return self.path.stem
        if self.git_commit:
            return self.git_commit[:12]
        return "<manifest>"

    @property
    def counters(self) -> Dict[str, Any]:
        """The campaign-level counter snapshot (``{}`` when absent)."""
        counters = self.raw.get("counters")
        return counters if isinstance(counters, dict) else {}

    @property
    def cache_counters(self) -> Dict[str, Any]:
        """The cache section, including quarantine accounting."""
        cache = self.raw.get("cache")
        return cache if isinstance(cache, dict) else {}

    def groups(self) -> Dict[str, TaskRecord]:
        """One completed task per label, insertion-ordered.

        A label names one task (see :attr:`repro.runner.Task.label`), so
        repeats of a label must repeat its key: the figure pipeline
        serves one cached task to several figures, and each serving
        leaves a record.  Those collapse into the first.  A label
        carried by two different keys means the labels do not tell the
        tasks apart, and raises :class:`AnalysisError` rather than mix
        their numbers.  Failed tasks are excluded (they carry no
        metrics); the comparison layer reports them separately via
        :attr:`failed_labels`.
        """
        by_label: Dict[str, TaskRecord] = {}
        for task in self.tasks:
            if task.failed:
                continue
            first = by_label.setdefault(task.label, task)
            if first.key != task.key:
                raise AnalysisError(
                    f"{self.name}: label {task.label!r} names two tasks, "
                    f"keys {first.key} and {task.key}"
                )
        return by_label

    @property
    def failed_labels(self) -> List[str]:
        """Labels of tasks that exhausted their retries, sorted."""
        return sorted({t.label for t in self.tasks if t.failed})


def _task_record(entry: Mapping[str, Any], index: int) -> TaskRecord:
    if not isinstance(entry, Mapping):
        raise AnalysisError(f"task #{index} is not an object: {entry!r:.100}")
    label = entry.get("label")
    if not isinstance(label, str):
        raise AnalysisError(f"task #{index} has no string 'label': {entry!r:.100}")
    p_kind, p_bench, p_design, p_fid = parse_label(label)
    metrics = entry.get("metrics")
    if metrics is not None and not isinstance(metrics, Mapping):
        raise AnalysisError(f"task {label!r} metrics is not an object")
    return TaskRecord(
        label=label,
        # v2 manifests carry structured fields; v1 falls back to the
        # parsed label so both schema generations compare identically.
        kind=entry.get("kind") or p_kind,
        benchmark=entry.get("benchmark") or p_bench,
        design=entry.get("design") if entry.get("design") is not None else p_design,
        fidelity=entry.get("fidelity") or p_fid,
        key=str(entry.get("key", "")),
        cached=bool(entry.get("cached", False)),
        seconds=float(entry.get("seconds", 0.0)),
        attempts=int(entry.get("attempts", 1)),
        failed=bool(entry.get("failed", False)),
        metrics=dict(metrics) if metrics is not None else None,
    )


def parse_manifest(
    raw: Any, path: Optional[Union[str, os.PathLike]] = None
) -> Manifest:
    """Validate a parsed manifest object; raises :class:`AnalysisError`."""
    where = str(path) if path is not None else "<in-memory manifest>"
    if not isinstance(raw, dict):
        raise AnalysisError(f"{where}: manifest root is not a JSON object")
    tasks = raw.get("tasks")
    if not isinstance(tasks, list):
        raise AnalysisError(
            f"{where}: no 'tasks' array — not a campaign manifest "
            f"(top-level keys: {sorted(raw)[:8]})"
        )
    version = raw.get("schema_version", 1)
    if not isinstance(version, int) or version < 1:
        raise AnalysisError(f"{where}: bad schema_version {version!r}")
    if version > MANIFEST_SCHEMA_VERSION:
        # Newer manifests stay loadable (unknown fields ride along in
        # ``raw``); the analysis just won't use fields it doesn't know.
        pass
    return Manifest(
        path=Path(path) if path is not None else None,
        raw=raw,
        schema_version=version,
        git_commit=raw.get("git_commit"),
        salt=raw.get("salt"),
        generated_at=raw.get("generated_at"),
        interrupted=bool(raw.get("interrupted", False)),
        tasks=[_task_record(t, i) for i, t in enumerate(tasks)],
    )


def load_manifest(path: Union[str, os.PathLike]) -> Manifest:
    """Load and validate a campaign manifest file.

    Raises:
        AnalysisError: missing file, unreadable file, syntactically
            invalid JSON, or a JSON document that is not a campaign
            manifest.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise AnalysisError(f"cannot read manifest {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"unparseable manifest {path}: {exc}") from exc
    return parse_manifest(raw, path)

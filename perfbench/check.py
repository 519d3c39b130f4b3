"""Output checks: per-task counter digests and the scalar oracle.

Imported only after ``src`` is on ``sys.path``; everything here runs
outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from repro.runner import ResultCache, Task
from repro.runner.cache import MISS
from repro.scenarios import generate_space
from repro.sim.config import GPUConfig
from repro.sim.replay import replay

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def load_payloads(cache_dir: Path, manifest: Mapping) -> Dict[str, Tuple[Mapping, object]]:
    """label -> (manifest task record, payload read back from the cache)."""
    cache = ResultCache(cache_dir, readonly=True)
    out: Dict[str, Tuple[Mapping, object]] = {}
    for rec in manifest["tasks"]:
        if rec["label"] in out:
            raise ValueError(f"duplicate task label {rec['label']!r}")
        payload = cache.get(rec["key"])
        out[rec["label"]] = (rec, None if payload is MISS else payload)
    return out


def counters(rec: Mapping, payload) -> Dict[str, object]:
    """Simulated counters a task's digest covers.

    Estimated cycles of functional tasks are left out, so refitting the
    timing estimator does not read as a wrong result.
    """
    out = {
        "l1": payload.l1.snapshot(),
        "l2": payload.l2.snapshot(),
        "instructions": payload.instructions,
    }
    if rec["fidelity"] == "timing":
        out["cycles"] = payload.cycles
    return out


def task_digest(rec: Mapping, payload) -> str:
    blob = json.dumps(counters(rec, payload), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def digests(payloads: Mapping[str, Tuple[Mapping, object]]) -> Dict[str, Optional[str]]:
    """label -> digest, or None where the cache holds no payload."""
    return {
        label: None if payload is None else task_digest(rec, payload)
        for label, (rec, payload) in payloads.items()
    }


def pinned(workload: str) -> Optional[Dict[str, str]]:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def write_pin(workload: str, table: Mapping[str, str]) -> None:
    doc = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    doc[workload] = dict(sorted(table.items()))
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


def _rebuild_task(rec: Mapping, scale: float, seed: int,
                  scenarios: Optional[int]) -> Task:
    """The Task a manifest record describes, as the CLI built it."""
    if scenarios is not None:
        docs = {doc["name"]: doc for doc in generate_space(limit=scenarios)}
        workload = {"scenario": docs[rec["benchmark"]]}
    else:
        workload = {"benchmark": rec["benchmark"]}
    return Task(kind="simulate", design=rec["design"], scale=scale, seed=seed,
                fidelity=rec["fidelity"], config=GPUConfig(), **workload)


def oracle_mismatches(
    payloads: Mapping[str, Tuple[Mapping, object]],
    salt: str,
    *,
    scale: float,
    seed: int,
    scenarios: Optional[int],
    count: int,
) -> Tuple[List[str], List[str]]:
    """Replay ``count`` seed-chosen functional tasks through ``replay()``.

    Tasks without a payload already count as failed and are skipped.
    Returns ``(checked labels, mismatching labels)``; the functional
    backend's L1/L2 counters must equal the scalar oracle's exactly.
    """
    labels = sorted(label for label, (rec, payload) in payloads.items()
                    if rec["fidelity"] == "functional" and payload is not None)
    chosen = random.Random(seed).sample(labels, min(count, len(labels)))
    bad = []
    for label in chosen:
        rec, payload = payloads[label]
        task = _rebuild_task(rec, scale, seed, scenarios)
        if task.key(salt) != rec["key"]:
            raise RuntimeError(f"cannot rebuild task {label}: key differs")
        ref = replay(task.build_trace(), task.config, task.build_design(),
                     scheduler=task.config.warp_scheduler)
        if not (
            payload.l1.snapshot() == ref.l1.snapshot()
            and payload.l2.snapshot() == ref.l2.snapshot()
            and payload.l1.reuse.as_dict() == ref.l1.reuse.as_dict()
            and payload.l2.reuse.as_dict() == ref.l2.reuse.as_dict()
        ):
            bad.append(label)
    return chosen, bad

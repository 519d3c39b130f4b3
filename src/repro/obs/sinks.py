"""Event sinks: ring buffer, JSONL stream, Perfetto/Chrome trace JSON.

Every sink implements ``write(event)`` and ``close()``; file-backed sinks
additionally expose ``flush()``.  Sinks never mutate events and may be
stacked on one bus (e.g. a ring buffer for diagnostics plus a Perfetto
file for offline inspection).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from pathlib import Path
from typing import Dict, List, Union

from repro.obs.events import EV_CTA_DONE, EV_CTA_LAUNCH, Event

__all__ = ["RingBufferSink", "JSONLSink", "PerfettoSink"]


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory.

    The workhorse for tests and for :class:`~repro.obs.diagnostics.
    GCacheDiagnostics`; with the default capacity it holds every event a
    small run emits, while bounding memory on long runs.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self.total_written = 0

    def write(self, event: Event) -> None:
        self._buffer.append(event)
        self.total_written += 1

    def events(self) -> List[Event]:
        """Buffered events in emission order."""
        return list(self._buffer)

    def counts_by_kind(self) -> Dict[str, int]:
        return dict(Counter(e.kind for e in self._buffer))

    @property
    def dropped(self) -> int:
        """Events that fell off the ring (written minus retained)."""
        return self.total_written - len(self._buffer)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._buffer)


class JSONLSink:
    """Streams events to a file, one JSON object per line.

    Writes are buffered and flushed every ``buffer_size`` events (bounded
    buffering: the buffer never holds more than ``buffer_size`` encoded
    lines), so a crashed run still leaves a mostly-complete trace.
    """

    def __init__(self, path: Union[str, Path], buffer_size: int = 4096) -> None:
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        self.path = Path(path)
        self.buffer_size = buffer_size
        self._buffer: List[str] = []
        self._fh = open(self.path, "w")
        self.events_written = 0
        self.flushes = 0

    def write(self, event: Event) -> None:
        self._buffer.append(json.dumps(event.as_dict(), sort_keys=True))
        self.events_written += 1
        if len(self._buffer) >= self.buffer_size:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
            self.flushes += 1
        self._fh.flush()

    def close(self) -> None:
        if self._fh.closed:
            return
        self.flush()
        self._fh.close()


#: Event kinds rendered as Perfetto *counter* tracks would go here; the
#: exporter keeps everything as instant events for simplicity, but a few
#: kinds get dedicated duration slices.
_SLICE_BEGIN = {EV_CTA_LAUNCH: "CTA"}
_SLICE_END = {EV_CTA_DONE: "CTA"}


class PerfettoSink:
    """Exports a Chrome ``trace_event`` JSON file loadable in Perfetto.

    The mapping:

    * every event becomes an *instant* event (``"ph": "i"``) on a track
      named after its source component (``pid`` = component family,
      ``tid`` = instance), with the simulated cycle as the timestamp
      (1 cycle = 1 µs, so Perfetto's time axis reads in cycles);
    * CTA launch/complete pairs additionally become async slices so core
      occupancy is visible at a glance;
    * the event payload lands in ``args`` for the detail pane.

    Events are accumulated in memory and written on :meth:`close` —
    the Chrome JSON array format is not streamable.
    """

    def __init__(self, path: Union[str, Path], max_events: int = 2_000_000) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.path = Path(path)
        self.max_events = max_events
        self._trace_events: List[Dict] = []
        self.events_written = 0
        self.events_dropped = 0
        self._pids: Dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    def _track(self, src: str) -> tuple:
        """(pid, tid) for a component name like ``L1[3]`` or ``noc``."""
        family, _, rest = src.partition("[")
        tid = int(rest[:-1]) if rest.endswith("]") and rest[:-1].isdigit() else 0
        pid = self._pids.setdefault(family, len(self._pids) + 1)
        return pid, tid

    def write(self, event: Event) -> None:
        if len(self._trace_events) >= self.max_events:
            self.events_dropped += 1
            return
        pid, tid = self._track(event.src)
        record: Dict = {
            "name": event.kind,
            "cat": event.kind.split(".", 1)[0],
            "ph": "i",
            "s": "t",
            "ts": event.cycle,
            "pid": pid,
            "tid": tid,
            "args": dict(event.args),
        }
        if event.kind in _SLICE_BEGIN or event.kind in _SLICE_END:
            # Async begin/end pair keyed by (core, cta slot) so Perfetto
            # draws CTA residency as a slice.
            record = dict(record)
            record["ph"] = "b" if event.kind in _SLICE_BEGIN else "e"
            record["name"] = _SLICE_BEGIN.get(event.kind) or _SLICE_END[event.kind]
            record["id"] = f"{event.src}:{event.args.get('slot', 0)}"
            record.pop("s", None)
        self._trace_events.append(record)
        self.events_written += 1

    def flush(self) -> None:
        pass  # array format: only writable as a whole on close

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": family or "sim"},
            }
            for family, pid in sorted(self._pids.items(), key=lambda kv: kv[1])
        ]
        blob = {
            "traceEvents": metadata + self._trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "events": self.events_written,
                "dropped": self.events_dropped,
            },
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as fh:
            json.dump(blob, fh)
            fh.write("\n")


def validate_trace_event_json(blob: Dict) -> List[str]:
    """Validate a Chrome ``trace_event`` JSON object; returns problems.

    Checks the subset of the schema Perfetto actually requires: a
    ``traceEvents`` array whose entries carry ``name``/``ph``/``pid``/
    ``tid`` and, for non-metadata phases, a numeric ``ts``.  Used by the
    CI trace-smoke job and the sink tests.
    """
    problems: List[str] = []
    events = blob.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph != "M" and not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"event {i}: non-numeric ts for ph={ph!r}")
        if ph in ("b", "e") and "id" not in ev:
            problems.append(f"event {i}: async event without id")
    return problems


__all__.append("validate_trace_event_json")

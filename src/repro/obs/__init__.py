"""repro.obs — simulation tracing and metrics.

The observability subsystem has three legs:

* **events** (:mod:`repro.obs.events`): a typed event bus threaded
  through the caches, G-Cache control loop, MSHRs, NoC, DRAM and SIMT
  cores.  Tracing is strictly opt-in: components carry ``obs = None``
  until :func:`wire` installs a bus, so a normal run pays one attribute
  check per emission site and nothing else.
* **sinks** (:mod:`repro.obs.sinks`): where events go — a bounded
  in-memory ring, a JSONL stream, or a Perfetto/Chrome ``trace_event``
  JSON file.
* **metrics** (:mod:`repro.obs.metrics`): a hierarchical registry of
  namespaced counters/gauges/histograms, snapshotted into
  ``RunResult.extras["metrics"]`` at the end of every run and surfaced
  through reports and campaign manifests.

Typical usage::

    from repro.obs import Observability
    from repro.sim.simulator import GPU

    obs = Observability.to_perfetto("trace.json")
    gpu = GPU(config, design, obs=obs)
    result = gpu.run(trace)
    obs.close()                      # writes trace.json

:class:`~repro.obs.diagnostics.GCacheDiagnostics` turns a recorded
stream into a convergence report (``python -m repro profile``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional, Union

from repro.obs.diagnostics import GCacheDiagnostics
from repro.obs.events import EVENT_KINDS, Event, EventBus
from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    collect_run_metrics,
)
from repro.obs.sinks import (
    JSONLSink,
    PerfettoSink,
    RingBufferSink,
    validate_trace_event_json,
)

__all__ = [
    "Event",
    "EventBus",
    "EVENT_KINDS",
    "RingBufferSink",
    "JSONLSink",
    "PerfettoSink",
    "validate_trace_event_json",
    "MetricsRegistry",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "collect_run_metrics",
    "GCacheDiagnostics",
    "Observability",
    "wire",
]


class Observability:
    """One run's observability context: an event bus plus a metrics registry.

    Args:
        sinks: Event sinks; an empty list still records bus counters.
        kinds: Optional whitelist of event kinds (see ``EVENT_KINDS``).
        metrics: Metrics registry; a fresh one is created by default.
    """

    def __init__(
        self,
        sinks: Optional[Iterable] = None,
        kinds: Optional[Iterable[str]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.bus = EventBus(sinks, kinds=kinds)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    # Constructors for the common sink setups
    # ------------------------------------------------------------------
    @classmethod
    def in_memory(cls, capacity: int = 1_000_000, **kw) -> "Observability":
        """Ring-buffer tracing (tests, diagnostics)."""
        return cls(sinks=[RingBufferSink(capacity)], **kw)

    @classmethod
    def to_perfetto(cls, path: Union[str, Path], **kw) -> "Observability":
        """Trace to a Perfetto-loadable Chrome JSON file."""
        return cls(sinks=[PerfettoSink(path)], **kw)

    @classmethod
    def to_jsonl(cls, path: Union[str, Path], **kw) -> "Observability":
        """Trace to a JSONL stream with bounded buffering."""
        return cls(sinks=[JSONLSink(path)], **kw)

    # ------------------------------------------------------------------
    def ring(self) -> Optional[RingBufferSink]:
        """The first ring-buffer sink, if one is attached."""
        for sink in self.bus.sinks:
            if isinstance(sink, RingBufferSink):
                return sink
        return None

    def diagnostics(self, end_cycle: Optional[int] = None) -> GCacheDiagnostics:
        """Build a convergence analyzer from the attached ring buffer."""
        ring = self.ring()
        if ring is None:
            raise ValueError(
                "diagnostics need a RingBufferSink on the bus "
                "(use Observability.in_memory())"
            )
        return GCacheDiagnostics(ring.events(), end_cycle=end_cycle)

    def close(self) -> None:
        self.bus.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Observability bus={self.bus!r}>"


def wire(gpu, obs: Observability) -> None:
    """Install ``obs``'s event bus on every instrumented component of a GPU.

    Components default to ``obs = None`` (tracing disabled); this sets
    the attribute on the memory system, every cache and its management
    policy, the NoC, the memory controllers and the SIMT cores.  Called
    by ``GPU.__init__`` when constructed with ``obs=``; callers wiring a
    bare :class:`~repro.sim.memory_system.MemorySystem` can pass any
    object with ``memory``/``cores`` attributes.
    """
    bus = obs.bus
    memory = gpu.memory
    memory.obs = bus
    for cache in memory.l1s:
        cache.obs = bus
        cache.mgmt.obs = bus
    for bank in memory.l2_banks:
        bank.obs = bus
    memory.noc.obs = bus
    for mc in memory.mcs:
        mc.obs = bus
    for core in getattr(gpu, "cores", []):
        core.obs = bus

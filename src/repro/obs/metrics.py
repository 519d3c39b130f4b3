"""Hierarchical per-component metrics registry.

Components publish namespaced counters/gauges/histograms into one
:class:`MetricsRegistry` per run; the registry's flat :meth:`snapshot`
is what ``RunResult.extras["metrics"]`` carries, what
:func:`repro.stats.report.render_metrics` tabulates, and what campaign
manifests embed per task — replacing the previous ad-hoc pattern of
reaching into component attributes from the simulator.

Names are dot-separated paths, most-significant first, e.g.
``l1.loads``, ``gcache.switch.activations``, ``dram.0.row_hits``.
Convention: ``<component>[.<instance>].<metric>``; aggregated (summed
across instances) metrics omit the instance segment.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["CounterMetric", "GaugeMetric", "HistogramMetric", "MetricsRegistry"]

Number = Union[int, float]


class CounterMetric:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"{self.name}: counters only go up (inc {n})")
        self.value += n

    def snapshot(self) -> Number:
        return self.value

    def merge(self, other: "CounterMetric") -> None:
        self.value += other.value


class GaugeMetric:
    """Point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Number:
        return self.value

    def merge(self, other: "GaugeMetric") -> None:
        self.value = other.value


class HistogramMetric:
    """Streaming summary (count / sum / min / max) of observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
        }

    def merge(self, other: "HistogramMetric") -> None:
        self.count += other.count
        self.total += other.total
        for bound in ("min", "max"):
            theirs = getattr(other, bound)
            if theirs is None:
                continue
            mine = getattr(self, bound)
            if mine is None or (theirs < mine if bound == "min" else theirs > mine):
                setattr(self, bound, theirs)


class MetricsRegistry:
    """Get-or-create registry of namespaced metrics.

    >>> reg = MetricsRegistry()
    >>> reg.counter("l1.loads").inc(3)
    >>> reg.scope("noc").counter("packets").inc()
    >>> reg.snapshot()["l1.loads"], reg.snapshot()["noc.packets"]
    (3, 1)
    """

    def __init__(self, prefix: str = "") -> None:
        self._metrics: Dict[str, object] = {}
        self._prefix = prefix

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------
    def _get(self, name: str, cls):
        if not name:
            raise ValueError("metric name cannot be empty")
        full = f"{self._prefix}{name}"
        metric = self._metrics.get(full)
        if metric is None:
            metric = cls(full)
            self._metrics[full] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {full!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> CounterMetric:
        return self._get(name, CounterMetric)

    def gauge(self, name: str) -> GaugeMetric:
        return self._get(name, GaugeMetric)

    def histogram(self, name: str) -> HistogramMetric:
        return self._get(name, HistogramMetric)

    def scope(self, prefix: str) -> "MetricsRegistry":
        """A view of this registry that prepends ``prefix.`` to names.

        Scoped views share the parent's storage, so a component can be
        handed ``registry.scope("l1.3")`` and stay ignorant of the
        hierarchy above it.
        """
        view = MetricsRegistry.__new__(MetricsRegistry)
        view._metrics = self._metrics
        view._prefix = f"{self._prefix}{prefix}."
        return view

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __iter__(self) -> Iterator[Tuple[str, object]]:
        return iter(sorted(self._metrics.items()))

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, object]:
        """Flat ``{name: value}`` dict; histograms expand to summaries."""
        return {name: m.snapshot() for name, m in sorted(self._metrics.items())}

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry (same-name metrics must agree in kind)."""
        for name, theirs in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                mine = type(theirs)(name)
                self._metrics[name] = mine
            elif type(mine) is not type(theirs):
                raise TypeError(
                    f"cannot merge {name!r}: {mine.kind} vs {theirs.kind}"
                )
            mine.merge(theirs)

    def set_many(self, values: Dict[str, Number], kind: str = "gauge") -> None:
        """Bulk-load plain values (used when importing legacy snapshots)."""
        for name, value in values.items():
            if kind == "counter":
                self.counter(name).inc(int(value))
            else:
                self.gauge(name).set(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MetricsRegistry {len(self._metrics)} metrics prefix={self._prefix!r}>"


def _collect_cache_stats(scope: MetricsRegistry, stats) -> None:
    scope.counter("loads").inc(stats.loads)
    scope.counter("stores").inc(stats.stores)
    scope.counter("load_hits").inc(stats.load_hits)
    scope.counter("store_hits").inc(stats.store_hits)
    scope.counter("mshr_merges").inc(stats.mshr_merges)
    scope.counter("fills").inc(stats.fills)
    scope.counter("bypasses").inc(stats.bypasses)
    scope.counter("evictions").inc(stats.evictions)
    scope.counter("writebacks").inc(stats.writebacks)
    scope.gauge("miss_rate").set(stats.miss_rate)
    scope.gauge("bypass_ratio").set(stats.bypass_ratio)


def collect_run_metrics(gpu, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Populate a registry from a finished :class:`~repro.sim.simulator.GPU`.

    One end-of-run pass over the component tree — the cost is independent
    of trace length, so it runs for every simulation, traced or not.
    All components are accessed duck-typed; design-specific metrics
    (G-Cache switches, victim directory) appear only when present.
    """
    reg = registry if registry is not None else MetricsRegistry()
    mem = gpu.memory

    _collect_cache_stats(reg.scope("l1"), mem.l1_stats())
    _collect_cache_stats(reg.scope("l2"), mem.l2_stats())

    mshr = reg.scope("mshr")
    mshr.counter("allocations").inc(sum(m.total_allocations for m in mem.mshrs))
    mshr.counter("merges").inc(sum(m.total_merges for m in mem.mshrs))
    mshr.counter("full_stalls").inc(sum(m.full_stalls for m in mem.mshrs))
    mshr.gauge("peak_occupancy").set(max(m.peak_occupancy for m in mem.mshrs))

    noc = reg.scope("noc")
    noc.counter("packets").inc(mem.noc.packets_sent)
    noc.counter("hops").inc(mem.noc.total_hops)
    noc.gauge("avg_hops").set(mem.noc.average_hops)

    dram = reg.scope("dram")
    dram.counter("reads").inc(sum(mc.reads for mc in mem.mcs))
    dram.counter("writes").inc(sum(mc.writes for mc in mem.mcs))
    dram.counter("row_hits").inc(
        sum(b.row_hits for mc in mem.mcs for b in mc.banks)
    )
    dram.counter("row_misses").inc(
        sum(b.row_misses for mc in mem.mcs for b in mc.banks)
    )
    dram.gauge("row_hit_rate").set(mem.dram_row_hit_rate)

    core = reg.scope("core")
    core.counter("instructions").inc(sum(c.instructions for c in gpu.cores))
    core.gauge("cycles").set(max((c.finish_time for c in gpu.cores), default=0))
    lat = core.histogram("load_latency")
    if mem.load_count:
        # The memory system keeps only the running sum; surface it as a
        # one-bucket summary so mean latency lands in the same namespace.
        lat.count = mem.load_count
        lat.total = mem.load_latency_sum

    if mem.victim_dir is not None:
        victim = reg.scope("victim")
        victim.counter("hints_returned").inc(mem.victim_dir.hints_returned)
        victim.counter("contentions_detected").inc(
            mem.victim_dir.contentions_detected
        )

    gc = reg.scope("gcache")
    seen_gcache = False
    for l1 in mem.l1s:
        mgmt = l1.mgmt
        if not hasattr(mgmt, "switches") or mgmt.switches is None:
            continue
        seen_gcache = True
        gc.counter("hint_fills").inc(mgmt.hint_fills)
        gc.counter("total_fills").inc(l1.stats.fills + l1.stats.bypasses)
        gc.counter("agings").inc(mgmt.agings)
        gc.counter("switch.activations").inc(mgmt.switches.activations)
        gc.counter("switch.shutdowns").inc(mgmt.switches.shutdowns)
    if seen_gcache:
        gc.gauge("m").set(mem.l1s[0].mgmt.m)
        gc.gauge("switch.fraction_on").set(
            sum(l1.mgmt.switches.fraction_on for l1 in mem.l1s) / len(mem.l1s)
        )
    return reg


__all__.append("collect_run_metrics")

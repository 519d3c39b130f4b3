"""Run one ``repro`` CLI invocation with a span around each layer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced.py SPANS.json -- campaign --scale 0.1 ...

The spans wrap the public entry point of each layer from the outside;
no file of the program changes.  A span records its name, start, end
(``time.perf_counter``, a clock shared by every process on the host),
parent span and process id, plus a few counts taken from the call's
arguments and result after the span has closed.  Spans stay in memory
and are written to ``SPANS.json`` when the CLI returns.  Forked pool
workers inherit the wrappers and append their spans to
``SPANS.json.<pid>.jsonl`` after each task, since they never return to
this script.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager
from functools import wraps


def _trace_ops(trace) -> int:
    return sum(len(w) for cta in trace.ctas for w in cta.warps)


class Recorder:
    """In-memory span list of one process."""

    def __init__(self, out: str) -> None:
        self.out = out
        self.main_pid = self.pid = os.getpid()
        self.spans: list = []
        self._stack: list = []

    def forked(self) -> None:
        """Start empty in a forked child: the parent's spans are its own."""
        self.pid = os.getpid()
        self.spans = []
        self._stack = []

    @contextmanager
    def open(self, name: str):
        span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                "pid": self.pid}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` inside a span; ``attrs(result, *args, **kwargs)`` adds
        counts to the span once it has closed."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self.open(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span.update(attrs(result, *args, **kwargs))
            return result

        return wrapper

    def flush_worker(self) -> None:
        """In a pool worker with no span open, append and drop its spans."""
        if self.pid == self.main_pid or self._stack or not self.spans:
            return
        with open(f"{self.out}.{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"pid": self.pid, "spans": self.spans}) + "\n")
        self.spans = []

    def dump(self, start: float, code: int) -> None:
        with open(self.out, "w", encoding="utf-8") as fh:
            json.dump({"main_pid": self.main_pid, "start": start,
                       "exit_code": code, "spans": self.spans}, fh)


def install(rec: Recorder) -> None:
    """Wrap each layer's entry point where the program looks it up."""
    import repro.runner.engine as engine_mod
    import repro.runner.task as task_mod
    import repro.scenarios as scenarios_mod
    import repro.sim.functional as functional_pkg
    import repro.sim.functional.engine as functional_mod
    import repro.sim.simulator as simulator_mod
    import repro.trace.suite as suite_mod
    from repro.runner.cache import MISS, ResultCache
    from repro.runner.journal import CampaignJournal

    def trace_attrs(trace, _source, scale=None, seed=None, **_):
        return {"ops": _trace_ops(trace), "trace": [trace.name, scale, seed]}

    # Layer: repro.trace / repro.scenarios (Task.build_trace imports both
    # at call time, so the package attributes are the lookup points).
    suite_mod.build_benchmark = rec.wrap(
        "trace.build", suite_mod.build_benchmark, trace_attrs)
    scenarios_mod.build_scenario = rec.wrap(
        "trace.build", scenarios_mod.build_scenario, trace_attrs)

    # Layer: repro.sim.replay coalescer and the functional array build,
    # as the functional engine calls them.
    functional_mod.build_core_streams = rec.wrap(
        "streams.build", functional_mod.build_core_streams,
        lambda streams, *a, **k: {"txns": sum(len(s) for s in streams)})
    functional_mod.build_core_arrays = rec.wrap(
        "arrays.build", functional_mod.build_core_arrays)

    # Layer: the functional engine, with its own phase profile switched on.
    base = functional_pkg.FunctionalEngine

    class ProfiledEngine(base):
        def __init__(self, *args, **kwargs):
            kwargs["profile"] = True
            super().__init__(*args, **kwargs)

        def run(self, trace, streams=None, arrays=None):
            txns = self.transactions
            phases = dict(self.phase_seconds)
            with rec.open("functional.replay") as span:
                super().run(trace, streams, arrays)
            span["design"] = self.design.key
            span["txns"] = self.transactions - txns
            for phase, seconds in self.phase_seconds.items():
                span[phase] = seconds - phases[phase]

    functional_pkg.FunctionalEngine = ProfiledEngine

    # Layer: repro.sim.simulator — the timing engine, and the dispatch
    # around both engines (construction, estimator, result assembly).
    simulator_mod.GPU.run = rec.wrap(
        "timing.simulate", simulator_mod.GPU.run,
        lambda res, gpu, *a, **k: {"design": gpu.design.key,
                                   "cycles": res.cycles,
                                   "l1_accesses": res.l1.accesses})
    task_mod.simulate = rec.wrap("sim.simulate", task_mod.simulate)

    # Layer: repro.runner — engine, task execution, result cache, journal.
    def run_task(task, _inner=rec.wrap("runner.task", task_mod.run_task)):
        try:
            return _inner(task)
        finally:
            rec.flush_worker()

    task_mod.run_task = run_task
    engine_mod.CampaignEngine.run = rec.wrap(
        "runner.run", engine_mod.CampaignEngine.run)
    ResultCache.get = rec.wrap(
        "cache.get", ResultCache.get,
        lambda payload, *a, **k: {"hit": payload is not MISS})
    ResultCache.put = rec.wrap(
        "cache.put", ResultCache.put,
        lambda _, cache, key, *a, **k: {
            "bytes": cache.path_for(key).stat().st_size
            if cache.enabled and not cache.readonly else 0})
    CampaignJournal.append = rec.wrap(
        "journal.append", CampaignJournal.append)


def main(argv=None) -> int:
    start = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    rec = Recorder(argv[0])
    with rec.open("cli.import"):
        import repro.cli

        install(rec)
    os.register_at_fork(after_in_child=rec.forked)
    with rec.open("cli.main"):
        code = repro.cli.main(argv[2:])
    rec.dump(start, code)
    return code


if __name__ == "__main__":
    sys.exit(main())

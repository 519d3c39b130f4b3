"""Service-layer tests: coalescing, jobs, broker, daemon HTTP round-trips.

The contract under test (ISSUE acceptance criteria): a daemon serving
several concurrent campaigns with overlapping task keys executes each
key exactly once — the rest are *coalesced* (counted in manifests and
``/stats``) and every job sees bit-identical payloads.  Plus per-job
pause/resume/cancel, NDJSON progress streaming, crash recovery, and
spec validation.

Timing discipline: nothing here sleeps and hopes.  Concurrency is made
deterministic by monkeypatching the engine's single worker entry point
(``repro.runner.engine.run_task_armed``) with fakes that gate on
explicit events — e.g. a leader that blocks until every follower has
joined the in-flight entry before computing.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

import repro.runner.engine as engine_mod
from repro.runner import CampaignEngine, InflightRegistry, ResultCache, Task
from repro.runner.task import run_task_armed as real_run_task_armed
from repro.service import (
    CampaignDaemon,
    JobEventBroker,
    JobManager,
    JobSpec,
    ServiceClient,
    ServiceError,
    SpecError,
)

WAIT = 60  # generous upper bound; tests finish in well under a second each


def small_spec(**overrides):
    base = dict(benchmarks=["SD1"], designs=["bs"], scale=0.05,
                fidelity="functional")
    base.update(overrides)
    return JobSpec(**base)


# ----------------------------------------------------------------------
# InflightRegistry
# ----------------------------------------------------------------------
class TestInflightRegistry:
    def test_first_claim_leads_then_followers_join(self):
        reg = InflightRegistry()
        leader, entry = reg.claim("k", "A")
        assert leader and entry.followers == 0
        follower, same = reg.claim("k", "B")
        assert not follower and same is entry
        assert reg.coalesced_total == 1
        assert reg.follower_count("k") == 1

        reg.publish(entry, payload="result")
        assert entry.result() == "result"
        assert len(reg) == 0, "publication releases the key"

    def test_failed_publication_propagates_and_releases(self):
        reg = InflightRegistry()
        _, entry = reg.claim("k", "A")
        reg.publish(entry, error=RuntimeError("boom"))
        assert not entry.succeeded
        with pytest.raises(RuntimeError, match="boom"):
            entry.result()
        # The key is free again: the next claimant leads.
        leader, fresh = reg.claim("k", "B")
        assert leader and fresh is not entry

    def test_abandon_wakes_followers_with_an_error(self):
        reg = InflightRegistry()
        _, entry = reg.claim("k", "A")
        reg.abandon(entry, "leader aborted")
        assert entry.published and not entry.succeeded
        assert "leader aborted" in str(entry.error)


# ----------------------------------------------------------------------
# Engine-level coalescing (deterministic: leader waits for followers)
# ----------------------------------------------------------------------
def test_concurrent_engines_execute_shared_key_exactly_once(
    tmp_path, monkeypatch
):
    n_engines = 3
    registry = InflightRegistry()
    executions = []

    def gated(task, key, attempt, faults):
        # Leader parks until both followers joined the entry, so the
        # coalescing window is provably open when it publishes.
        deadline = time.monotonic() + WAIT
        while registry.follower_count(key) < n_engines - 1:
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                break
            time.sleep(0.002)
        executions.append(key)
        return real_run_task_armed(task, key, attempt, faults)

    monkeypatch.setattr(engine_mod, "run_task_armed", gated)

    task = Task(kind="simulate", benchmark="SD1", design="bs", scale=0.05,
                fidelity="functional")
    engines = [
        CampaignEngine(jobs=1, cache=ResultCache(tmp_path), salt="t",
                       inflight=registry, client=f"eng-{i}")
        for i in range(n_engines)
    ]
    results = [None] * n_engines

    def run(i):
        results[i] = engines[i].run([task])[0]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_engines)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT)

    assert len(executions) == 1, "the shared key must execute exactly once"
    assert registry.coalesced_total == n_engines - 1
    executed = sum(e.counters.executed for e in engines)
    coalesced = sum(e.counters.coalesced for e in engines)
    assert (executed, coalesced) == (1, n_engines - 1)
    # Bit-identical shared payloads: followers receive the leader's
    # object (and its counters), not a recomputation.
    sigs = {json.dumps(r.l1.snapshot(), sort_keys=True) for r in results}
    assert len(sigs) == 1


def test_follower_reclaims_when_leader_fails(tmp_path, monkeypatch):
    """A crashing leader must not poison the follower: the follower
    re-claims the key and executes with its own retry budget."""
    registry = InflightRegistry()
    calls = []
    follower_joined = threading.Event()

    def flaky(task, key, attempt, faults):
        calls.append(threading.current_thread().name)
        if len(calls) == 1:
            follower_joined.wait(WAIT)  # keep the window open, then die
            raise RuntimeError("leader exploded")
        return real_run_task_armed(task, key, attempt, faults)

    monkeypatch.setattr(engine_mod, "run_task_armed", flaky)

    task = Task(kind="simulate", benchmark="SD1", design="bs", scale=0.05,
                fidelity="functional")
    leader = CampaignEngine(jobs=1, cache=ResultCache(tmp_path / "a"),
                            salt="t", inflight=registry, client="leader")
    follower = CampaignEngine(jobs=1, cache=ResultCache(tmp_path / "b"),
                              salt="t", inflight=registry, client="follower")

    leader_err = []

    def run_leader():
        try:
            leader.run([task])
        except Exception as exc:  # noqa: BLE001
            leader_err.append(exc)

    t1 = threading.Thread(target=run_leader, name="T-leader")
    t1.start()
    # Join the in-flight entry, then let the leader fail.
    deadline = time.monotonic() + WAIT
    key = task.key("t")
    while not registry.inflight_keys():
        assert time.monotonic() < deadline
        time.sleep(0.002)
    out = []
    t2 = threading.Thread(
        target=lambda: out.append(follower.run([task])[0]), name="T-follower"
    )
    t2.start()
    while registry.follower_count(key) < 1:
        assert time.monotonic() < deadline
        time.sleep(0.002)
    follower_joined.set()
    t1.join(WAIT)
    t2.join(WAIT)

    assert leader_err, "the leader's own failure must still surface to it"
    assert out and out[0].l1.accesses > 0
    assert follower.counters.executed == 1, "follower re-claimed and executed"
    assert follower.counters.coalesced == 0


# ----------------------------------------------------------------------
# JobEventBroker
# ----------------------------------------------------------------------
class TestJobEventBroker:
    def test_history_without_loop(self):
        broker = JobEventBroker(None)
        broker.publish({"event": "a"})
        broker.publish({"event": "b"})
        assert [e["event"] for e in broker.events()] == ["a", "b"]
        broker.close()
        broker.publish({"event": "after-close"})
        assert len(broker.events()) == 2, "post-close events are dropped"

    def test_subscriber_sees_replay_then_live_exactly_once(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            broker = JobEventBroker(loop)
            broker.publish({"n": 0})  # history, before subscription

            seen = []

            async def consume():
                async for event in broker.subscribe():
                    seen.append(event["n"])

            consumer = asyncio.ensure_future(consume())
            await asyncio.sleep(0)  # let the subscription attach

            # Live events from a foreign thread, like an engine worker.
            def feed():
                for n in (1, 2, 3):
                    broker.publish({"n": n})
                broker.close()

            thread = threading.Thread(target=feed)
            thread.start()
            await asyncio.wait_for(consumer, WAIT)
            thread.join(WAIT)
            return seen

        assert asyncio.run(scenario()) == [0, 1, 2, 3]

    def test_subscribe_requires_loop(self):
        broker = JobEventBroker(None)
        with pytest.raises(RuntimeError, match="no event loop"):
            asyncio.run(broker.subscribe().__anext__())


# ----------------------------------------------------------------------
# JobSpec validation
# ----------------------------------------------------------------------
class TestJobSpec:
    def test_rejects_unknown_benchmark_design_fidelity_and_fields(self):
        with pytest.raises(SpecError, match="unknown benchmarks"):
            JobSpec(benchmarks=["NOPE"])
        with pytest.raises(SpecError, match="unknown designs"):
            JobSpec(designs=["nope"])
        with pytest.raises(SpecError, match="unknown fidelity"):
            JobSpec(fidelity="psychic")
        with pytest.raises(SpecError, match="unknown spec fields"):
            JobSpec.from_payload({"designs": ["bs"], "bogus": 1})
        with pytest.raises(SpecError, match="JSON object"):
            JobSpec.from_payload(["not", "a", "dict"])

    @pytest.mark.parametrize(
        "field, value, match",
        [("l1_size", 48 * 1024, "power of two"),
         ("scheduler", "bogus", "unknown warp scheduler")],
    )
    def test_rejects_bad_configuration_at_submit(self, field, value, match):
        """A config the simulator would refuse fails at submit time, as a
        typed spec error, instead of inside the job's worker thread."""
        with pytest.raises(SpecError, match=match):
            JobSpec.from_payload({"designs": ["bs"], field: value})

    def test_payload_round_trip(self):
        spec = small_spec(seed=7, retries=1)
        again = JobSpec.from_payload(spec.to_payload())
        assert again.to_payload() == spec.to_payload()


# ----------------------------------------------------------------------
# JobManager
# ----------------------------------------------------------------------
class TestJobManager:
    def test_job_runs_persists_and_reports(self, tmp_path):
        mgr = JobManager(None, cache_root=tmp_path / "cache",
                         state_dir=tmp_path / "state", salt="t")
        job = mgr.submit(small_spec())
        mgr.wait(job.id, WAIT)

        assert job.state == "completed" and job.error is None
        snap = job.snapshot()
        assert snap["counters"]["executed"] == 1
        assert [e["event"] for e in job.broker.events()][0] == "job_state"
        assert job.broker.events()[-1]["state"] == "completed"

        state_file = tmp_path / "state" / "jobs" / f"{job.id}.json"
        assert json.loads(state_file.read_text())["state"] == "completed"
        manifest = json.loads(job.manifest_path.read_text())
        assert manifest["counters"]["coalesced"] == 0
        assert len(manifest["tasks"]) == 1

    def test_pause_blocks_progress_until_resume(self, tmp_path, monkeypatch):
        calls = []
        gate = threading.Event()

        def gated(task, key, attempt, faults):
            calls.append(key)
            assert gate.wait(WAIT)
            return real_run_task_armed(task, key, attempt, faults)

        monkeypatch.setattr(engine_mod, "run_task_armed", gated)
        mgr = JobManager(None, salt="t")
        job = mgr.submit(small_spec(benchmarks=["SD1", "SPMV"]))

        deadline = time.monotonic() + WAIT
        while len(calls) < 1:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        mgr.pause(job.id)
        assert job.paused
        gate.set()  # in-flight task finishes; the pause bites at the boundary

        time.sleep(0.1)
        assert len(calls) == 1, "no new task may start while paused"
        assert job.state == "running"

        mgr.resume(job.id)
        mgr.wait(job.id, WAIT)
        assert job.state == "completed"
        assert len(calls) == 2

    def test_cancel_unwinds_at_the_next_boundary(self, tmp_path, monkeypatch):
        started = threading.Event()
        gate = threading.Event()

        def gated(task, key, attempt, faults):
            started.set()
            assert gate.wait(WAIT)
            return real_run_task_armed(task, key, attempt, faults)

        monkeypatch.setattr(engine_mod, "run_task_armed", gated)
        mgr = JobManager(None, state_dir=tmp_path / "state", salt="t")
        job = mgr.submit(small_spec(benchmarks=["SD1", "SPMV", "BFS"]))
        assert started.wait(WAIT)
        mgr.cancel(job.id)
        gate.set()
        mgr.wait(job.id, WAIT)

        assert job.state == "cancelled"
        manifest = json.loads(job.manifest_path.read_text())
        assert manifest["cancelled"] is True
        assert job.broker.events()[-1]["state"] == "cancelled"
        state = json.loads(
            (tmp_path / "state" / "jobs" / f"{job.id}.json").read_text()
        )
        assert state["state"] == "cancelled"

    def test_recover_resumes_unfinished_jobs_bit_identically(self, tmp_path):
        spec = small_spec(benchmarks=["SD1", "SPMV"], designs=["bs", "gc"])

        # Reference: one uninterrupted manager run.
        ref = JobManager(None, cache_root=tmp_path / "ref-cache",
                         state_dir=tmp_path / "ref-state", salt="t")
        ref_job = ref.submit(spec)
        ref.wait(ref_job.id, WAIT)
        ref_metrics = {
            t["label"]: t["metrics"]
            for t in json.loads(ref_job.manifest_path.read_text())["tasks"]
        }

        # "Crashed daemon": a job record persisted as running, with a
        # journal covering part of the matrix (written by a real engine
        # over the same cache root).
        state_dir = tmp_path / "state"
        jobs_dir = state_dir / "jobs"
        jobs_dir.mkdir(parents=True)
        job_id = "j-deadbeef"
        partial = CampaignEngine(
            jobs=1, cache=ResultCache(tmp_path / "cache"), salt="t",
            journal=jobs_dir / f"{job_id}.journal.jsonl",
        )
        JobSpec.from_payload({**spec.to_payload(),
                              "benchmarks": ["SD1"]}).run(partial)
        (jobs_dir / f"{job_id}.json").write_text(json.dumps(
            {"id": job_id, "state": "running", "spec": spec.to_payload(),
             "submitted_at": 0.0, "error": None}
        ))

        mgr = JobManager(None, cache_root=tmp_path / "cache",
                         state_dir=state_dir, salt="t")
        recovered = mgr.recover()
        assert [j.id for j in recovered] == [job_id]
        assert recovered[0].resumed
        mgr.wait_all(WAIT)

        job = mgr.job(job_id)
        assert job.state == "completed"
        # The SD1 half came back from journal+cache, not re-execution.
        assert job.engine.counters.resumed == 2
        assert job.engine.counters.executed == 2
        manifest = json.loads(job.manifest_path.read_text())
        metrics = {t["label"]: t["metrics"] for t in manifest["tasks"]}
        assert metrics == ref_metrics, "resumed run must be bit-identical"
        # A second recover() is a no-op: the job finished and was persisted.
        assert JobManager(None, cache_root=tmp_path / "cache",
                          state_dir=state_dir, salt="t").recover() == []


# ----------------------------------------------------------------------
# Daemon HTTP round-trips
# ----------------------------------------------------------------------
@pytest.fixture()
def daemon(tmp_path):
    """A live daemon on a free port, with its loop in a background thread."""
    d = CampaignDaemon(cache_dir=str(tmp_path / "cache"),
                       state_dir=str(tmp_path / "state"), salt="t")
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    async def main():
        await d.start()
        ready.set()
        try:
            await d.serve_forever()
        except asyncio.CancelledError:
            pass

    runner = loop.create_task(main())

    def spin():
        try:
            loop.run_until_complete(runner)
        except Exception:  # pragma: no cover - surfaced via client failures
            pass

    thread = threading.Thread(target=spin, daemon=True)
    thread.start()
    assert ready.wait(WAIT)
    try:
        yield d
    finally:
        loop.call_soon_threadsafe(runner.cancel)
        thread.join(WAIT)
        loop.close()


class TestDaemon:
    def test_submit_stream_manifest_round_trip(self, daemon):
        client = ServiceClient(port=daemon.port)
        assert client.health()["ok"] is True

        snap = client.submit(small_spec().to_payload())
        events = [e["event"] for e in client.events(snap["id"])]
        assert events[0] == "job_state"
        assert "task_completed" in events
        assert events[-1] == "job_state"

        final = client.wait(snap["id"], timeout=WAIT)
        assert final["state"] == "completed"
        manifest = client.manifest(snap["id"])
        assert len(manifest["tasks"]) == 1
        assert [j["id"] for j in client.jobs()] == [snap["id"]]

    def test_error_responses(self, daemon):
        client = ServiceClient(port=daemon.port)
        with pytest.raises(ServiceError) as err:
            client.submit({"designs": ["nope"]})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.job("j-missing")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("PUT", "/stats")
        assert err.value.status == 405

    def test_pause_resume_cancel_endpoints(self, daemon, monkeypatch):
        gate = threading.Event()
        started = threading.Event()

        def gated(task, key, attempt, faults):
            started.set()
            assert gate.wait(WAIT)
            return real_run_task_armed(task, key, attempt, faults)

        monkeypatch.setattr(engine_mod, "run_task_armed", gated)
        client = ServiceClient(port=daemon.port)
        snap = client.submit(
            small_spec(benchmarks=["SD1", "SPMV"]).to_payload()
        )
        assert started.wait(WAIT)
        assert client.pause(snap["id"])["paused"] is True
        assert client.resume(snap["id"])["paused"] is False
        client.cancel(snap["id"])
        gate.set()
        final = client.wait(snap["id"], timeout=WAIT)
        assert final["state"] == "cancelled"

    def test_n_identical_submissions_execute_once_bit_identically(
        self, daemon, monkeypatch
    ):
        """The acceptance-criterion test: N concurrent identical
        submissions -> one execution, N-1 coalesced, identical results."""
        n_jobs = 3
        executions = []

        def gated(task, key, attempt, faults):
            registry = daemon.manager.inflight
            deadline = time.monotonic() + WAIT
            while registry.follower_count(key) < n_jobs - 1:
                if time.monotonic() > deadline:  # pragma: no cover
                    break
                time.sleep(0.002)
            executions.append(key)
            return real_run_task_armed(task, key, attempt, faults)

        monkeypatch.setattr(engine_mod, "run_task_armed", gated)
        client = ServiceClient(port=daemon.port)
        payload = small_spec().to_payload()
        ids = [client.submit(payload)["id"] for _ in range(n_jobs)]
        finals = [client.wait(jid, timeout=WAIT) for jid in ids]

        assert len(executions) == 1
        assert all(f["state"] == "completed" for f in finals)
        stats = client.stats()
        assert stats["coalesced_total"] == n_jobs - 1
        assert stats["counters"]["executed"] == 1
        assert stats["counters"]["coalesced"] == n_jobs - 1

        metrics = []
        for jid in ids:
            manifest = client.manifest(jid)
            metrics.append(json.dumps(
                [t["metrics"] for t in manifest["tasks"]], sort_keys=True
            ))
        assert len(set(metrics)) == 1, "all jobs must see identical results"

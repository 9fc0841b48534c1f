"""Streaming scheduler: bounded intake, parity, resume, work queue.

The scheduler's contract tests (retry/timeout/quarantine semantics,
span trees, store rows) live in test_faults / test_obs_trace /
test_obs_store and run against the same engine through
``ExperimentSession.sweep`` or ``AsyncScheduler.stream``.  This file
covers what is *new* in the streaming service: lazy generator intake
with a bounded window, mid-stream cancellation leaving a resumable
cache, and the multi-process pull queue.
"""

import asyncio
import concurrent.futures
import dataclasses
import gc
import json
import logging
import os
import subprocess
import sys
import textwrap

import pytest

from repro.harness import ExperimentSession, ResultCache, RunSpec, WorkQueue
from repro.harness.scheduler import AsyncScheduler, _PoolState


def _specs(session, count, budget=None):
    """``count`` distinct real specs (seed-varied mcf/baseline)."""
    base = session.spec("mcf", "baseline")
    if budget is not None:
        base = dataclasses.replace(base, max_instructions=budget)
    return [dataclasses.replace(base, seed=i + 1) for i in range(count)]


class _CountingSource:
    """Generator wrapper that tracks how far intake ran ahead."""

    def __init__(self, specs):
        self.specs = specs
        self.produced = 0
        self.max_ahead = 0

    def feed(self):
        for spec in self.specs:
            self.produced += 1
            yield spec

    def note_emitted(self, emitted):
        ahead = self.produced - emitted
        if ahead > self.max_ahead:
            self.max_ahead = ahead


class TestBoundedIntake:
    def test_generator_of_10k_specs_stays_within_window(self, monkeypatch):
        """A huge spec generator is never materialized: intake stays
        within ``max(1, workers) + backlog`` of emission."""
        import repro.harness.scheduler as scheduler_mod

        def fake_execute(spec, config, **kwargs):
            return {"spec": spec.label(), "seed": spec.seed}

        monkeypatch.setattr(scheduler_mod, "execute_spec", fake_execute)
        session = ExperimentSession(workers=0, backlog=4)
        specs = _specs(session, 10_000)
        source = _CountingSource(specs)
        scheduler = session.scheduler()

        seen = []
        for outcome in scheduler.stream(source.feed()):
            seen.append(outcome)
            source.note_emitted(len(seen))

        assert len(seen) == 10_000
        assert [o.spec for o in seen] == specs  # input order
        assert all(o.ok and not o.cached for o in seen)
        assert source.max_ahead <= scheduler.window
        assert scheduler.high_water <= scheduler.window

    @pytest.mark.slow
    def test_pooled_intake_stays_within_window(self):
        """Same bound through the process-pool path, with real runs."""
        session = ExperimentSession(workers=2, backlog=2,
                                    max_instructions=2_000)
        specs = _specs(session, 10)
        source = _CountingSource(specs)
        scheduler = session.scheduler()

        emitted = 0
        for _outcome in scheduler.stream(source.feed()):
            emitted += 1
            source.note_emitted(emitted)

        assert emitted == 10
        assert source.max_ahead <= scheduler.window
        assert scheduler.high_water <= scheduler.window


class TestStreamingParity:
    def test_stream_matches_batch_sweep(self):
        """A generator-fed stream is byte-identical to a fresh
        session's batch sweep."""
        session = ExperimentSession(max_instructions=3_000)
        specs = _specs(session, 4)
        streamed = list(session.stream(iter(specs)))
        batch = ExperimentSession().sweep(specs)
        assert [o.spec for o in streamed] == [o.spec for o in batch]
        assert [o.result.as_dict() for o in streamed] == \
            [o.result.as_dict() for o in batch]

    def test_session_sweep_fans_duplicates_back(self):
        session = ExperimentSession(max_instructions=3_000)
        spec = _specs(session, 1)[0]
        outcomes = session.sweep([spec, spec])
        assert len(outcomes) == 2
        assert outcomes[0].result is outcomes[1].result


class TestCancellation:
    def test_closing_stream_leaves_cache_resumable(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        session = ExperimentSession(max_instructions=2_000,
                                    cache_dir=cache_dir)
        specs = _specs(session, 6)

        stream = session.stream(iter(specs))
        for _ in range(3):
            next(stream)
        stream.close()
        assert session.cache.stats()["writes"] == 3

        # A fresh session over the same cache resumes past the
        # committed results and completes the sweep.
        resumed = ExperimentSession(max_instructions=2_000,
                                    cache_dir=cache_dir)
        outcomes = list(resumed.stream(iter(specs)))
        assert [o.cached for o in outcomes] == [True] * 3 + [False] * 3
        assert resumed.cache.stats()["writes"] == 3

        # And the merged results equal an uncached sequential run.
        reference = ExperimentSession(max_instructions=2_000)
        for outcome in outcomes:
            assert outcome.result.as_dict() == \
                reference.run(outcome.spec).as_dict()


class _StubPool:
    """Executor whose one submitted task completes when the test says."""

    def __init__(self, submitted: asyncio.Event):
        self.submitted = submitted
        self.future = concurrent.futures.Future()

    def submit(self, _fn, *_args):
        self.submitted.set()
        return self.future

    def shutdown(self, **_kwargs):
        pass


def _cancel_in_flight_attempt():
    """Cancel the task awaiting a pooled attempt, then fail the attempt,
    as a worker interrupted by Ctrl-C does."""
    loop = asyncio.new_event_loop()

    async def main():
        submitted = asyncio.Event()
        state = _PoolState(2)
        state.main.shutdown()
        state.main = pool = _StubPool(submitted)
        spec = RunSpec("mcf", "baseline", max_instructions=2_000)
        attempt = AsyncScheduler(workers=2)._attempt_pooled(
            spec, "key", 0, False, [], state)
        task = asyncio.ensure_future(attempt)
        await submitted.wait()
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        pool.future.set_exception(RuntimeError("worker interrupted"))
        for _ in range(3):
            await asyncio.sleep(0)

    try:
        loop.run_until_complete(main())
    finally:
        loop.close()


class TestCancelledAttempt:
    def test_worker_error_after_cancel_is_retrieved(self, caplog):
        """An attempt no task awaits any more (the stream was cancelled)
        still has its error read when it lands, so asyncio logs no
        "Future exception was never retrieved"."""
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            _cancel_in_flight_attempt()
            gc.collect()
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestWorkQueue:
    def _cache_and_spec(self, tmp_path):
        session = ExperimentSession(max_instructions=2_000,
                                    cache_dir=str(tmp_path / "cache"))
        return session.cache, _specs(session, 1)[0], session.base_config()

    def test_claim_is_exclusive(self, tmp_path):
        cache, spec, config = self._cache_and_spec(tmp_path)
        a = WorkQueue(cache, owner="a")
        b = WorkQueue(cache, owner="b")
        assert a.claim(spec, config)
        assert not b.claim(spec, config)
        assert a.stats() == {"claimed": 1, "yielded": 0, "takeovers": 0}
        assert b.stats() == {"claimed": 0, "yielded": 1, "takeovers": 0}

    def test_complete_and_release_clear_the_claim(self, tmp_path):
        cache, spec, config = self._cache_and_spec(tmp_path)
        a = WorkQueue(cache, owner="a")
        b = WorkQueue(cache, owner="b")
        assert a.claim(spec, config)
        a.complete(spec, config)
        assert b.claim(spec, config)
        b.release(spec, config)
        assert a.claim(spec, config)

    def test_stale_claim_is_taken_over(self, tmp_path):
        cache, spec, config = self._cache_and_spec(tmp_path)
        dead = WorkQueue(cache, owner="dead")
        assert dead.claim(spec, config)
        live = WorkQueue(cache, owner="live", stale_after=0.0)
        assert live.claim(spec, config)
        assert live.stats()["takeovers"] == 1
        assert live.owner_of(live.claim_path(spec, config)) == "live"

    def test_fresh_claim_is_not_taken_over(self, tmp_path):
        cache, spec, config = self._cache_and_spec(tmp_path)
        owner = WorkQueue(cache, owner="owner")
        assert owner.claim(spec, config)
        peer = WorkQueue(cache, owner="peer", stale_after=600.0)
        assert not peer.claim(spec, config)
        assert peer.stats()["takeovers"] == 0

    def test_session_queue_requires_cache(self):
        with pytest.raises(ValueError, match="work queue"):
            ExperimentSession(queue=True)


_DRAIN_SCRIPT = textwrap.dedent("""
    import dataclasses, json, sys
    owner, cache_dir, store_path, count = sys.argv[1:5]
    from repro.harness import ExperimentSession
    session = ExperimentSession(
        max_instructions=2_000, cache_dir=cache_dir,
        store_path=store_path, queue=True, queue_owner=owner,
    )
    base = session.spec("mcf", "baseline")
    specs = [dataclasses.replace(base, seed=i + 1)
             for i in range(int(count))]
    outcomes = session.sweep(specs)
    print(json.dumps({
        "writes": session.cache.stats()["writes"],
        "claimed": session.queue.stats()["claimed"],
        "results": [o.result.as_dict() for o in outcomes],
    }))
    session.close()
""")

#: Store columns that must merge identically across hosts (everything
#: architectural; wall-clock and provenance columns legitimately vary).
_MERGE_COLUMNS = ("workload, mode, drc_entries, seed, status, "
                  "instructions, cycles, ipc, il1_miss_rate, "
                  "dl1_miss_rate, l2_miss_rate, drc_lookups, drc_misses")


class TestSharedSweep:
    def test_two_processes_drain_one_sweep(self, tmp_path):
        """Two hosts on one cache+queue: every spec simulated exactly
        once globally, and both stores index identical rows."""
        count = 6
        cache_dir = str(tmp_path / "cache")
        stores = [str(tmp_path / "a.db"), str(tmp_path / "b.db")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _DRAIN_SCRIPT, owner, cache_dir,
                 store, str(count)],
                stdout=subprocess.PIPE, env=env, text=True)
            for owner, store in zip(("host-a", "host-b"), stores)
        ]
        reports = []
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            reports.append(json.loads(out))

        # No duplicated simulation work: the executions are partitioned.
        assert reports[0]["writes"] + reports[1]["writes"] == count
        assert reports[0]["claimed"] + reports[1]["claimed"] == count
        # Both hosts observed byte-identical results, in input order.
        assert reports[0]["results"] == reports[1]["results"]

        # And the two stores' architectural rows merge identically.
        from repro.obs.store import RunStore

        rows = []
        for path in stores:
            with RunStore(path) as store:
                _cols, data = store.query(
                    "SELECT %s FROM runs ORDER BY seed" % _MERGE_COLUMNS)
            assert len(data) == count
            rows.append(data)
        assert rows[0] == rows[1]


class TestSchedulerConstruction:
    def test_window_is_workers_plus_backlog(self):
        scheduler = AsyncScheduler(workers=4, backlog=8)
        assert scheduler.window == 12
        sequential = AsyncScheduler(workers=0, backlog=2)
        assert sequential.window == 3

    def test_session_scheduler_inherits_policy(self):
        session = ExperimentSession(workers=3, backlog=5)
        scheduler = session.scheduler()
        assert scheduler.workers == 3
        assert scheduler.window == 8

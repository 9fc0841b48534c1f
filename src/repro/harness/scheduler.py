"""Streaming asyncio sweep scheduler: the experiment-service core.

The harness's one engine is **streaming**: :class:`AsyncScheduler`
consumes specs (run, race and fleet jobs alike) from any iterable —
including generators that enumerate a million-spec design grid lazily
— and yields :class:`~repro.harness.sweep.SweepOutcome`\\ s in input
order as they resolve.  At most ``workers + backlog`` specs are ever
materialized but unemitted (:attr:`AsyncScheduler.high_water` records
the observed maximum), so memory is bounded by the window, not the
grid.

The scheduler keeps, exactly, the contracts of the batch engine it
replaced:

* **Bit-identical results** — every execution still funnels through
  :func:`~repro.harness.sweep.execute_spec`; outcomes are emitted in
  input order regardless of completion order.
* **The ISSUE 4 fault-tolerance contract** — :class:`RetryPolicy`
  retries with backoff, soft per-attempt timeouts with late-result
  acceptance, ``BrokenProcessPool`` recovery that charges only in-flight
  specs, single-worker probe-pool crash isolation, SHA-256 result
  integrity digests, commit-as-you-go cache writes, quarantine as
  :class:`~repro.harness.sweep.FailedRun`, and idempotent attempt-tagged
  observability merge (winning attempt only, input order).  The
  ``sweep.*`` fault counts (:data:`~repro.harness.sweep.FAULT_COUNTS`)
  and ``run_retry``/``run_failed``/``pool_rebuild`` events are
  unchanged.
* **ISSUE 6 span/store parity** — the ``sweep → spec → attempt →
  phase`` span tree is byte-identical between inline and pooled
  execution, and store rows are committed as results complete.

Concurrency model
-----------------

With ``workers >= 2`` the scheduler runs a private asyncio event loop
per stream: one lightweight task per in-window spec drives that spec's
retry loop, awaiting pool attempts via ``loop.run_in_executor`` over
the same :func:`~repro.harness.sweep._pool_task` worker entry point as
before.  Pool capacity is a semaphore, so a pool break can only ever
implicate the small, known in-flight set.  The synchronous
:meth:`AsyncScheduler.stream` generator bridges the async generator so
callers stay plain ``for``-loops.  With ``workers <= 1`` execution is
inline (no event loop, no processes) with identical semantics.

Multi-host draining
-------------------

Given a :class:`~repro.harness.workqueue.WorkQueue` (a claim-file
protocol inside the sharded :class:`~repro.harness.resultcache.
ResultCache`), several scheduler processes can consume the *same* spec
stream: each spec is executed by whichever host claims it first, other
hosts poll the shared cache for the completed result, and outcomes
merge by content digest — idempotent by construction.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, Iterable, Iterator, List, Optional

from ..arch.config import MachineConfig, default_config
from ..obs.events import EventLog
from ..obs.profile import PhaseProfiler
from ..obs.store import RunStore
from ..obs.trace import NULL_TRACER, Tracer, rollup_spans, span_id_for_key
from .faults import FaultPlan, apply_inline_fault
from .resultcache import ResultCache
from .spec import RunSpec, config_fingerprint
from .sweep import (
    DEFAULT_RETRY,
    FAULT_COUNTS,
    FailedRun,
    RetryPolicy,
    SweepOutcome,
    _commit_result,
    _interval_fn,
    _job_fields,
    _pool_task,
    _result_digest,
    _spec_key,
    execute_spec,
)

__all__ = ["AsyncScheduler", "DEFAULT_BACKLOG"]

#: Default intake window beyond the worker count: how many specs may be
#: materialized-but-unemitted in addition to one per worker.  Small
#: enough that a million-spec generator is consumed lazily, large
#: enough that workers never starve while earlier specs block emission.
DEFAULT_BACKLOG = 32

#: Poll granularity (seconds) for states with no completion to await:
#: foreign-claim completion polling and stale-semaphore re-checks.
_TICK = 0.05


class _Resolution:
    """A resolved spec, parked until its input-order emission slot."""

    __slots__ = ("spec", "payload", "failure", "result", "cached")

    def __init__(self, spec, payload=None, failure=None, result=None,
                 cached=False):
        self.spec = spec
        self.payload = payload
        self.failure = failure
        self.result = result
        self.cached = cached


class _Attempt:
    """What one pooled attempt produced: a payload or a failure."""

    __slots__ = ("payload", "kind", "error", "detail", "probe_next")

    def __init__(self, payload=None, kind="", error="", detail="",
                 probe_next=False):
        self.payload = payload
        self.kind = kind
        self.error = error
        self.detail = detail
        self.probe_next = probe_next


class _PoolState:
    """Main + probe executors with semaphore capacity and generations.

    Pool rebuilds bump a generation counter; the coroutine that detected
    the break performs the rebuild, and every other coroutine's stale
    handle is recognized (and ignored) by its generation.  The probe
    pool is the ISSUE 4 crash-isolation device: capacity one, created
    lazily, so a poisoned spec can only crash itself.
    """

    def __init__(self, workers: int):
        self.nworkers = workers
        self.main = ProcessPoolExecutor(max_workers=workers)
        self.main_gen = 0
        self.main_sem = asyncio.Semaphore(workers)
        self.main_wedged = 0
        self.probe: Optional[ProcessPoolExecutor] = None
        self.probe_gen = 0
        self.probe_sem = asyncio.Semaphore(1)
        self._rebuild_lock = asyncio.Lock()

    def _current_sem(self, probe: bool) -> asyncio.Semaphore:
        return self.probe_sem if probe else self.main_sem

    async def acquire(self, probe: bool) -> asyncio.Semaphore:
        """Acquire one slot; robust against the semaphore being swapped
        out by a pool rebuild while we were waiting on it."""
        while True:
            sem = self._current_sem(probe)
            try:
                await asyncio.wait_for(sem.acquire(), timeout=_TICK)
            except asyncio.TimeoutError:
                continue
            if sem is self._current_sem(probe):
                return sem
            sem.release()

    def pool_for(self, probe: bool):
        if probe:
            if self.probe is None:
                self.probe = ProcessPoolExecutor(max_workers=1)
            return self.probe, self.probe_gen
        return self.main, self.main_gen

    def note_wedged(self, sem: asyncio.Semaphore, future) -> None:
        """A main-pool attempt timed out: its slot stays occupied by the
        wedged worker until the (abandoned) future completes."""
        self.main_wedged += 1
        gen = self.main_gen

        def _release(_future):
            if gen == self.main_gen:
                self.main_wedged = max(0, self.main_wedged - 1)
            sem.release()

        future.add_done_callback(_release)

    async def handle_break(self, probe: bool, gen: int, reason: str,
                           events) -> None:
        """Replace a broken (or fully wedged) pool, once per generation."""
        async with self._rebuild_lock:
            current = self.probe_gen if probe else self.main_gen
            if gen != current:
                return  # another coroutine already rebuilt this pool
            if probe:
                old, self.probe = self.probe, None
                self.probe_gen += 1
            else:
                old = self.main
                self.main = ProcessPoolExecutor(max_workers=self.nworkers)
                self.main_gen += 1
                self.main_sem = asyncio.Semaphore(self.nworkers)
                self.main_wedged = 0
            FAULT_COUNTS["sweep.pool_rebuilds"] += 1
            events.emit("pool_rebuild", pool="probe" if probe else "main",
                        reason=reason)
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        for pool in (self.main, self.probe):
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)


class AsyncScheduler:
    """Streaming, cache-aware, fault-tolerant job scheduler.

    Every job kind (:class:`~repro.harness.spec.RunSpec`,
    :class:`~repro.security.race.RaceSpec`,
    :class:`~repro.fleet.FleetSpec`) takes the same path: the scheduler
    reads only their shared ``kind``/``normalized``/``label``/
    ``event_fields``/``as_dict`` surface and leaves execution to
    :func:`~repro.harness.sweep.execute_spec`.

    One scheduler executes one stream (pools live for the duration of a
    :meth:`stream` call); construct it with the sweep-wide policy —
    config, workers, cache/store/tracer/events, retry, faults — and
    iterate :meth:`stream` over any spec iterable.  The
    :class:`~repro.harness.session.ExperimentSession` facade constructs
    schedulers for callers; construct one directly only for an engine
    argument a session does not expose (``program_cache``,
    ``profiler``, an event log without checkpoints).
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        *,
        workers: int = 0,
        backlog: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        events: Optional[EventLog] = None,
        profiler: Optional[PhaseProfiler] = None,
        checkpoint_interval=0,
        profile_phases: bool = False,
        on_checkpoint_for: Optional[Callable] = None,
        program_cache: Optional[dict] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        store: Optional[RunStore] = None,
        queue=None,
    ):
        self.config = config or default_config()
        self.workers = workers
        self.backlog = DEFAULT_BACKLOG if backlog is None else max(1, backlog)
        self.cache = cache
        self.events = events if events is not None else EventLog()
        self.profiler = profiler or PhaseProfiler(self.events)
        self.interval_for = _interval_fn(checkpoint_interval)
        self.profile_phases = profile_phases
        self.on_checkpoint_for = on_checkpoint_for
        self.program_cache = program_cache
        self.retry = retry or DEFAULT_RETRY
        self.faults = faults
        self.tracer = tracer or NULL_TRACER
        self.store = store
        self.queue = queue
        self.config_digest = (
            config_fingerprint(self.config) if store is not None else ""
        )
        #: Observed maximum of specs materialized but not yet emitted —
        #: the bounded-memory guarantee, measurable:
        #: ``high_water <= max(1, workers) + backlog`` always holds.
        self.high_water = 0

    @property
    def window(self) -> int:
        """Intake bound: specs materialized-but-unemitted at once."""
        return max(1, self.workers) + self.backlog

    # -- public entry point --------------------------------------------------

    def stream(self, specs: Iterable[RunSpec], *,
               sweep_key: Optional[str] = None,
               total: Optional[int] = None) -> Iterator[SweepOutcome]:
        """Yield one :class:`SweepOutcome` per spec, in input order.

        ``specs`` may be any iterable — it is consumed lazily, at most
        :attr:`window` ahead of emission.  ``sweep_key``/``total`` pin
        the root sweep span's identity and ``specs`` field for batch
        callers (:meth:`ExperimentSession.sweep
        <repro.harness.session.ExperimentSession.sweep>`); streaming
        callers leave them unset and the count is filled in at close.
        Closing the generator mid-stream is safe: committed results stay
        in the cache/store, so a re-run resumes past them.
        """
        if self.workers >= 2:
            return self._stream_pooled(specs, sweep_key, total)
        return self._stream_inline(specs, sweep_key, total)

    # -- shared helpers ------------------------------------------------------

    def _note_pending(self, pending: int) -> None:
        if pending > self.high_water:
            self.high_water = pending

    def _cache_lookup(self, spec: RunSpec):
        if self.cache is None:
            return None
        return self.cache.get(spec, self.config)

    def _emit_cached_events(self, spec: RunSpec, result) -> None:
        """The cached-spec bookkeeping shared by both paths (the old
        engine's cache pre-pass): status + spec_done + store row."""
        self.events.status("run cached", **_job_fields(spec))
        self.events.emit("spec_done", cached=True, attempts=0,
                         **_job_fields(spec))
        if self.store is not None:
            self.store.record_run(spec, result,
                                  config_digest=self.config_digest,
                                  cached=True, attempts=0)

    def _quarantine(self, spec: RunSpec, attempts: int, kind: str,
                    error: str, detail: str) -> FailedRun:
        failure = FailedRun(spec, attempts, kind, error, detail)
        FAULT_COUNTS["sweep.quarantined"] += 1
        self.events.emit("run_failed", attempts=attempts, reason=kind,
                         error=error, **_job_fields(spec))
        if self.store is not None:
            self.store.record_failure(spec, error,
                                      config_digest=self.config_digest,
                                      attempts=attempts)
        if self.queue is not None:
            # Surrender the claim: a peer may have better luck (and if
            # not, it quarantines independently — both hosts converge).
            self.queue.release(spec, self.config)
        return failure

    def _note_retry(self, spec: RunSpec, nxt: int, kind: str,
                    error: str) -> float:
        FAULT_COUNTS["sweep.retries"] += 1
        self.events.emit("run_retry", attempt=nxt, reason=kind,
                         error=error, **_job_fields(spec))
        return self.retry.delay(nxt)

    # -- inline execution ----------------------------------------------------

    def _stream_inline(self, specs, sweep_key, total):
        count = 0
        with self.tracer.span("sweep", span_key=sweep_key,
                              specs=(total or 0)) as sweep_span:
            try:
                for raw in specs:
                    spec = raw.normalized()
                    count += 1
                    self._note_pending(1)
                    cached = self._cache_lookup(spec)
                    if cached is not None:
                        self._emit_cached_events(spec, cached)
                        with self.tracer.span("spec", span_key=_spec_key(spec),
                                              label=spec.label()):
                            pass
                        yield SweepOutcome(spec, cached, cached=True)
                        continue
                    if self.queue is not None and \
                            not self.queue.claim(spec, self.config):
                        yield self._await_foreign_inline(spec)
                        continue
                    yield self._resolve_inline(spec)
            finally:
                if sweep_span is not None and total is None:
                    sweep_span.fields["specs"] = count

    def _await_foreign_inline(self, spec: RunSpec) -> SweepOutcome:
        """Another host claimed ``spec``: poll the shared cache for its
        result, taking the claim over (and executing locally) if it
        goes stale."""
        while True:
            if self.cache.peek(spec, self.config) is not None:
                result = self._cache_lookup(spec)
                if result is not None:
                    self._emit_cached_events(spec, result)
                    with self.tracer.span("spec", span_key=_spec_key(spec),
                                          label=spec.label()):
                        pass
                    return SweepOutcome(spec, result, cached=True)
            if self.queue.claim(spec, self.config):
                return self._resolve_inline(spec)
            time.sleep(_TICK)

    def _resolve_inline(self, spec: RunSpec) -> SweepOutcome:
        """One spec's retry loop, inline — identical to the engine it
        replaces: attempts emit straight into the parent observability,
        injected at-dispatch faults fail before the attempt span opens,
        and the store rolls up the winning attempt's subtree only."""
        on_checkpoint = (
            self.on_checkpoint_for(spec) if self.on_checkpoint_for else None
        )
        key = _spec_key(spec)
        tracer, events = self.tracer, self.events
        started = time.perf_counter()
        outcome = None
        with tracer.span("spec", span_key=key, label=spec.label()):
            attempt = 0
            result = failure = None
            while True:
                events.emit("spec_dispatch", attempt=attempt,
                            **_job_fields(spec))
                try:
                    if self.faults is not None:
                        apply_inline_fault(self.faults, spec.label(), attempt)
                    with tracer.span("attempt",
                                     span_key=key + "#%d" % attempt,
                                     attempt=attempt):
                        result = execute_spec(
                            spec,
                            self.config,
                            events=events,
                            checkpoint_interval=self.interval_for(spec),
                            on_checkpoint=on_checkpoint,
                            profiler=self.profiler,
                            profile_phases=self.profile_phases,
                            program_cache=self.program_cache,
                            tracer=tracer,
                        )
                except Exception as exc:
                    kind = getattr(exc, "kind", "error")
                    detail = traceback.format_exc()
                    nxt = attempt + 1
                    if nxt >= self.retry.max_attempts:
                        failure = self._quarantine(spec, nxt, kind,
                                                   repr(exc), detail)
                        outcome = SweepOutcome(spec, None, attempts=nxt,
                                               failure=failure)
                        break
                    delay = self._note_retry(spec, nxt, kind, repr(exc))
                    time.sleep(delay)
                    tracer.add_span("retry-wait", delay,
                                    span_key=key + "#wait%d" % nxt,
                                    attempt=nxt)
                    attempt = nxt
                    continue
                _commit_result(self.cache, spec, self.config, result,
                               self.faults, events)
                if self.queue is not None:
                    self.queue.complete(spec, self.config)
                outcome = SweepOutcome(spec, result, attempts=attempt + 1)
                break
        host_seconds = time.perf_counter() - started
        if failure is not None:
            return outcome
        events.emit("spec_done", cached=False, attempts=attempt + 1,
                    **_job_fields(spec))
        if self.store is not None:
            rollup = None
            if tracer.enabled:
                rollup = rollup_spans(tracer.subtree(
                    span_id_for_key(key + "#%d" % attempt)))
            self.store.record_run(spec, result,
                                  config_digest=self.config_digest,
                                  attempts=attempt + 1,
                                  host_seconds=host_seconds, spans=rollup)
        return outcome

    # -- pooled execution ----------------------------------------------------

    def _stream_pooled(self, specs, sweep_key, total):
        """Bridge the async engine into a plain synchronous generator."""
        loop = asyncio.new_event_loop()
        agen = self._astream(specs, sweep_key, total)
        try:
            while True:
                try:
                    outcome = loop.run_until_complete(agen.__anext__())
                except StopAsyncIteration:
                    break
                yield outcome
        finally:
            try:
                loop.run_until_complete(agen.aclose())
            finally:
                loop.close()

    async def _astream(self, specs, sweep_key, total):
        state = _PoolState(self.workers)
        it = iter(specs)
        exhausted = False
        next_index = 0   # intake position
        next_emit = 0    # emission position
        tasks: Dict[int, asyncio.Task] = {}
        ready: Dict[int, _Resolution] = {}
        count = 0
        with self.tracer.span("sweep", span_key=sweep_key,
                              specs=(total or 0)) as sweep_span:
            try:
                while True:
                    # Emit every resolution contiguous from next_emit —
                    # input order, regardless of completion order.
                    while next_emit in ready:
                        resolution = ready.pop(next_emit)
                        next_emit += 1
                        yield self._emit_pooled(resolution)
                    # Intake up to the window bound.
                    while not exhausted and \
                            len(tasks) + len(ready) < self.window:
                        try:
                            raw = next(it)
                        except StopIteration:
                            exhausted = True
                            break
                        spec = raw.normalized()
                        count += 1
                        self._note_pending(len(tasks) + len(ready) + 1)
                        cached = self._cache_lookup(spec)
                        if cached is not None:
                            self._emit_cached_events(spec, cached)
                            ready[next_index] = _Resolution(
                                spec, result=cached, cached=True)
                        elif self.queue is not None and \
                                not self.queue.claim(spec, self.config):
                            tasks[next_index] = asyncio.ensure_future(
                                self._await_foreign(spec, state))
                        else:
                            tasks[next_index] = asyncio.ensure_future(
                                self._resolve_pooled(spec, state))
                        next_index += 1
                    if next_emit in ready:
                        continue
                    if not tasks:
                        if ready:
                            continue  # unreachable gap guard
                        break  # exhausted and fully emitted
                    done, _pending = await asyncio.wait(
                        set(tasks.values()),
                        return_when=asyncio.FIRST_COMPLETED)
                    for index in [i for i, t in tasks.items() if t.done()]:
                        ready[index] = tasks.pop(index).result()
            finally:
                if sweep_span is not None and total is None:
                    sweep_span.fields["specs"] = count
                for task in tasks.values():
                    task.cancel()
                if tasks:
                    await asyncio.gather(*tasks.values(),
                                         return_exceptions=True)
                state.shutdown()

    def _emit_pooled(self, resolution: _Resolution) -> SweepOutcome:
        """Materialize one resolution at its input-order slot: the spec
        span plus the winning attempt's observability merge — exactly
        once per spec, never double-counted."""
        spec = resolution.spec
        key = _spec_key(spec)
        with self.tracer.span("spec", span_key=key, label=spec.label()):
            pass
        if resolution.failure is not None:
            return SweepOutcome(spec, None,
                                attempts=resolution.failure.attempts,
                                failure=resolution.failure)
        if resolution.cached:
            return SweepOutcome(spec, resolution.result, cached=True)
        payload = resolution.payload
        attempt = payload["attempt"]
        if attempt:
            self.events.replay(payload["records"], attempt=attempt)
        else:
            self.events.replay(payload["records"])
        self.profiler.merge_snapshot(payload["phases"])
        self.tracer.adopt(payload.get("spans", ()),
                          parent_id=span_id_for_key(key))
        return SweepOutcome(spec, payload["result"],
                            events=payload["records"],
                            attempts=attempt + 1)

    async def _await_foreign(self, spec: RunSpec,
                             state: _PoolState) -> _Resolution:
        """Async twin of :meth:`_await_foreign_inline`."""
        while True:
            if self.cache.peek(spec, self.config) is not None:
                result = self._cache_lookup(spec)
                if result is not None:
                    self._emit_cached_events(spec, result)
                    return _Resolution(spec, result=result, cached=True)
            if self.queue.claim(spec, self.config):
                return await self._resolve_pooled(spec, state)
            await asyncio.sleep(_TICK)

    async def _resolve_pooled(self, spec: RunSpec,
                              state: _PoolState) -> _Resolution:
        """One spec's pooled retry loop: dispatch attempts, verify
        integrity, commit as results complete, quarantine at the
        attempt bound.  Never raises for a failing spec."""
        key = _spec_key(spec)
        attempt = 0
        probe = False
        abandoned: List[asyncio.Future] = []
        try:
            while True:
                outcome = await self._attempt_pooled(spec, key, attempt,
                                                     probe, abandoned, state)
                if outcome.payload is not None:
                    payload = outcome.payload
                    won = payload["attempt"]
                    if payload["digest"] != _result_digest(payload["result"]):
                        FAULT_COUNTS["sweep.corrupt_results"] += 1
                        outcome = _Attempt(
                            kind="corrupt",
                            error="result payload failed integrity check",
                            probe_next=probe)
                        attempt = won
                    else:
                        _commit_result(self.cache, spec, self.config,
                                       payload["result"], self.faults,
                                       self.events)
                        if self.queue is not None:
                            self.queue.complete(spec, self.config)
                        self.events.emit("spec_done", cached=False,
                                         attempts=won + 1,
                                         **_job_fields(spec))
                        if self.store is not None:
                            spans = payload.get("spans") or None
                            rollup = rollup_spans(spans) if spans else None
                            self.store.record_run(
                                spec, payload["result"],
                                config_digest=self.config_digest,
                                attempts=won + 1,
                                host_seconds=payload["host_seconds"],
                                spans=rollup)
                        return _Resolution(spec, payload=payload)
                nxt = attempt + 1
                if nxt >= self.retry.max_attempts:
                    failure = self._quarantine(spec, nxt, outcome.kind,
                                               outcome.error, outcome.detail)
                    return _Resolution(spec, failure=failure)
                delay = self._note_retry(spec, nxt, outcome.kind,
                                         outcome.error)
                await asyncio.sleep(delay)
                self.tracer.add_span("retry-wait", delay,
                                     parent_id=span_id_for_key(key),
                                     span_key=key + "#wait%d" % nxt,
                                     attempt=nxt)
                attempt = nxt
                probe = outcome.probe_next
        finally:
            # Whatever late attempts are still racing, their results are
            # no longer interesting — count them as ignored duplicates
            # when they land (the ISSUE 4 accounting).
            for future in abandoned:
                future.add_done_callback(_count_duplicate)

    async def _attempt_pooled(self, spec: RunSpec, key: str, attempt: int,
                              probe: bool, abandoned,
                              state: _PoolState) -> _Attempt:
        """Dispatch and await one pooled attempt.

        Returns the attempt's payload, or its failure classification
        (``crash``/``timeout``/``error``), handling pool breaks (the
        detecting coroutine rebuilds; the attempt is charged only if it
        was actually in flight) and late results from previously
        abandoned attempts of the same spec (first valid payload wins).
        """
        loop = asyncio.get_running_loop()
        while True:
            sem = await state.acquire(probe)
            pool, gen = state.pool_for(probe)
            try:
                future = loop.run_in_executor(
                    pool, _pool_task, spec, self.config,
                    self.interval_for(spec), self.profile_phases,
                    attempt, self.faults, self.tracer.enabled)
            except BrokenProcessPool:
                # Died between attempts: this attempt never started, so
                # recycle the pool and resubmit without penalty.
                sem.release()
                await state.handle_break(probe, gen, "submit on broken pool",
                                         self.events)
                continue
            self.events.emit("spec_dispatch", attempt=attempt, probe=probe,
                             **_job_fields(spec))
            deadline = (loop.time() + self.retry.timeout
                        if self.retry.timeout else None)
            while True:
                timeout = None
                if deadline is not None:
                    timeout = max(0.0, deadline - loop.time())
                done, _pending = await asyncio.wait(
                    {future} | set(abandoned), timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED)
                if future in done:
                    try:
                        exc = future.exception()
                    except asyncio.CancelledError:
                        # cancel_futures during a rebuild hit a queued
                        # task that never ran: resubmit, no charge.
                        sem.release()
                        break
                    sem.release()
                    if exc is None:
                        return _Attempt(payload=future.result())
                    if isinstance(exc, BrokenProcessPool):
                        FAULT_COUNTS["sweep.requeued"] += 1
                        await state.handle_break(probe, gen, "worker crash",
                                                 self.events)
                        return _Attempt(kind="crash",
                                        error="worker process died: %s" % exc,
                                        probe_next=True)
                    detail = "".join(traceback.format_exception(
                        type(exc), exc, exc.__traceback__))
                    return _Attempt(kind=getattr(exc, "kind", "error"),
                                    error=repr(exc), detail=detail,
                                    probe_next=probe)
                late = self._reap_abandoned(abandoned)
                if late is not None:
                    # A previously timed-out attempt delivered first:
                    # accept it ("late results are still accepted") and
                    # let the in-flight attempt resolve as a duplicate.
                    future.add_done_callback(_count_duplicate)
                    return _Attempt(payload=late)
                if done:
                    continue  # only abandoned failures completed; re-wait
                # Soft timeout: abandon the attempt (its late result
                # stays acceptable), keep the worker's slot charged
                # until it actually finishes, and recycle the pool if
                # every main worker is wedged.
                abandoned.append(future)
                FAULT_COUNTS["sweep.timeouts"] += 1
                if probe:
                    sem.release()
                else:
                    state.note_wedged(sem, future)
                    if state.main_wedged >= state.nworkers:
                        await state.handle_break(
                            False, gen, "all workers wedged", self.events)
                return _Attempt(kind="timeout",
                                error="no result after %.2fs"
                                      % self.retry.timeout,
                                probe_next=probe)

    @staticmethod
    def _reap_abandoned(abandoned) -> Optional[dict]:
        """First completed abandoned attempt with a valid payload, if
        any; completed failures are dropped silently (their attempt was
        already charged when it timed out)."""
        for future in [f for f in abandoned if f.done()]:
            abandoned.remove(future)
            try:
                if future.exception() is None:
                    return future.result()
            except asyncio.CancelledError:
                pass
        return None


def _count_duplicate(future) -> None:
    """Done-callback of an abandoned attempt: a valid late result that
    lost the race is an ignored duplicate."""
    try:
        if not future.cancelled() and future.exception() is None:
            FAULT_COUNTS["sweep.duplicates_ignored"] += 1
    except asyncio.CancelledError:
        pass

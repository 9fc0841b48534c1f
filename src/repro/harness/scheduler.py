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
* **Span/store parity** — the ``sweep → spec → attempt → phase`` span
  tree is byte-identical between inline and pooled execution, and
  store rows, each with its winning attempt's span rollup, are
  committed as results complete.

Concurrency model
-----------------

Every stream runs on a private asyncio event loop: one lightweight task
per in-window spec drives that spec's whole life cycle — cache lookup,
foreign-claim wait, retries with backoff, integrity check, commit,
store row, quarantine — and only *running one attempt* differs between
inline and pooled execution.  With ``workers >= 2`` an attempt is
awaited from a process pool via ``loop.run_in_executor`` over the
:func:`~repro.harness.sweep._pool_task` worker entry point; pool
capacity is a semaphore, so a pool break can only ever implicate the
small, known in-flight set.  With ``workers <= 1`` an attempt runs in
the loop's own thread (no processes), emitting live into the parent's
event log, and intake takes one spec at a time so the log keeps the
order of a plain loop over the specs.  The synchronous
:meth:`AsyncScheduler.stream` generator bridges the async generator so
callers stay plain ``for``-loops.

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
from typing import Dict, Iterable, Iterator, List, Optional

from ..arch.config import MachineConfig, default_config
from ..obs.events import EventLog
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
    """A spec's outcome, parked until its input-order emission slot with
    the winning attempt's ``payload`` and the tracer clock reading at
    which its resolution ``started`` (both None for a cache hit)."""

    __slots__ = ("outcome", "payload", "started")

    def __init__(self, outcome, payload=None, started=None):
        self.outcome = outcome
        self.payload = payload
        self.started = started


class _Attempt:
    """What one attempt produced: a payload (see
    :func:`~repro.harness.sweep._pool_task`) or a failure."""

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

    Inline (``workers <= 1``) and pooled execution share one spec life
    cycle (:meth:`_resolve`) and differ only in how one attempt runs
    (:meth:`_attempt_inline`, :meth:`_attempt_pooled`).

    One scheduler executes one stream (pools live for the duration of a
    :meth:`stream` call); construct it with the sweep-wide policy —
    config, workers, cache/store/tracer/events, retry, faults — and
    iterate :meth:`stream` over any spec iterable.  The
    :class:`~repro.harness.session.ExperimentSession` facade constructs
    schedulers for callers; construct one directly only for the engine
    argument a session does not expose (``program_cache``).  Attempts
    are traced whenever their spans are read (:attr:`trace_attempts`):
    by the tracer, the event log's ``phase`` records or a store row's
    rollup.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        *,
        workers: int = 0,
        backlog: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        events: Optional[EventLog] = None,
        checkpoint_interval=0,
        profile_phases: bool = False,
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
        self.interval_for = _interval_fn(checkpoint_interval)
        self.profile_phases = profile_phases
        self.program_cache = program_cache
        self.retry = retry or DEFAULT_RETRY
        self.faults = faults
        self.tracer = tracer or NULL_TRACER
        self.store = store
        self.queue = queue
        self.config_digest = (
            config_fingerprint(self.config) if store is not None else ""
        )
        #: Attempts are traced when anything reads their spans: the
        #: tracer, the event log (``phase`` records) or the store.
        self.trace_attempts = (self.tracer.enabled or self.events.enabled
                               or store is not None)
        #: Observed maximum of specs materialized but not yet emitted —
        #: the bounded-memory guarantee, measurable:
        #: ``high_water <= max(1, workers) + backlog`` always holds (and
        #: inline, where intake takes one spec at a time, it stays 1).
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
        :attr:`window` ahead of emission (one spec at a time inline).
        ``sweep_key``/``total`` pin the root sweep span's identity and
        ``specs`` field for batch callers (:meth:`ExperimentSession.sweep
        <repro.harness.session.ExperimentSession.sweep>`); streaming
        callers leave them unset and the count is filled in at close.
        Closing the generator mid-stream is safe: committed results stay
        in the cache/store, so a re-run resumes past them.

        The stream runs on a private event loop, so it cannot be
        iterated from a thread whose event loop is running.
        """
        loop = asyncio.new_event_loop()
        agen = self._astream(specs, sweep_key, total)
        try:
            while True:
                step = loop.create_task(agen.__anext__())
                try:
                    outcome = loop.run_until_complete(step)
                except StopAsyncIteration:
                    break
                except BaseException:
                    # A Ctrl-C (raised inside an inline attempt, or while
                    # the loop waits) leaves the engine suspended mid-step:
                    # cancel the step so the engine's cleanup reaps its
                    # tasks and their copies of the error, then re-raise.
                    step.cancel()
                    loop.run_until_complete(
                        asyncio.gather(step, return_exceptions=True))
                    raise
                yield outcome
        finally:
            try:
                loop.run_until_complete(agen.aclose())
            finally:
                loop.close()

    # -- the spec life cycle -------------------------------------------------

    async def _astream(self, specs, sweep_key, total):
        # Inline attempts take one spec at a time: a wider window would
        # look up later specs in the cache first, and their records
        # would precede an earlier spec's execution records.
        state = _PoolState(self.workers) if self.workers >= 2 else None
        window = self.window if state is not None else 1
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
                        yield self._emit(resolution)
                    # Intake up to the window bound.
                    while not exhausted and len(tasks) + len(ready) < window:
                        try:
                            raw = next(it)
                        except StopIteration:
                            exhausted = True
                            break
                        spec = raw.normalized()
                        count += 1
                        self.high_water = max(self.high_water,
                                              len(tasks) + len(ready) + 1)
                        cached = (self.cache.get(spec, self.config)
                                  if self.cache is not None else None)
                        if cached is not None:
                            ready[next_index] = self._cached(spec, cached)
                        elif self.queue is not None and \
                                not self.queue.claim(spec, self.config):
                            tasks[next_index] = asyncio.ensure_future(
                                self._await_foreign(spec, state))
                        else:
                            tasks[next_index] = asyncio.ensure_future(
                                self._resolve(spec, state))
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
                if state is not None:
                    state.shutdown()

    def _cached(self, spec: RunSpec, result) -> _Resolution:
        """Serve ``spec`` from the cache: status, ``spec_done`` and the
        store row are recorded when the hit is found."""
        self.events.status("run cached", **_job_fields(spec))
        self.events.emit("spec_done", cached=True, attempts=0,
                         **_job_fields(spec))
        if self.store is not None:
            self.store.record_run(spec, result,
                                  config_digest=self.config_digest,
                                  cached=True, attempts=0)
        return _Resolution(SweepOutcome(spec, result, cached=True))

    def _emit(self, resolution: _Resolution) -> SweepOutcome:
        """Materialize one resolution at its input-order slot, exactly
        once per spec: the ``spec`` span, back-dated to when resolution
        began so that its attempt and retry-wait spans lie inside it,
        then the winning attempt's spans and, from a pool worker, its
        buffered records."""
        spec = resolution.outcome.spec
        key = _spec_key(spec)
        span = self.tracer.add_span("spec", 0.0, span_key=key,
                                    label=spec.label())
        if span is not None and resolution.started is not None:
            span.start = resolution.started
        payload = resolution.payload
        if payload is not None:
            attempt = payload["attempt"]
            if attempt:
                self.events.replay(payload["records"], attempt=attempt)
            else:
                self.events.replay(payload["records"])
            self.tracer.adopt(payload["spans"],
                              parent_id=span_id_for_key(key))
        return resolution.outcome

    async def _await_foreign(self, spec: RunSpec,
                             state: Optional[_PoolState]) -> _Resolution:
        """Another host claimed ``spec``: poll the shared cache for its
        result, taking the claim over (and resolving locally) if it
        goes stale."""
        while True:
            if self.cache.peek(spec, self.config) is not None:
                result = self.cache.get(spec, self.config)
                if result is not None:
                    return self._cached(spec, result)
            if self.queue.claim(spec, self.config):
                return await self._resolve(spec, state)
            await asyncio.sleep(_TICK)

    async def _resolve(self, spec: RunSpec,
                       state: Optional[_PoolState]) -> _Resolution:
        """One spec's retry loop, for both attempt strategies (inline
        without a pool ``state``): verify a pooled payload's integrity,
        commit as results complete, and quarantine at the attempt bound.
        Never raises for a failing spec."""
        key = _spec_key(spec)
        started = self.tracer.clock()
        attempt = 0
        probe = False
        abandoned: List[asyncio.Future] = []
        try:
            while True:
                if state is None:
                    outcome = self._attempt_inline(spec, key, attempt)
                else:
                    outcome = await self._attempt_pooled(
                        spec, key, attempt, probe, abandoned, state)
                payload = outcome.payload
                if payload is not None:
                    won = payload["attempt"]
                    # Only a pooled payload carries a digest: an inline
                    # result never crossed a process boundary.
                    if "digest" in payload and payload["digest"] != \
                            _result_digest(payload["result"]):
                        FAULT_COUNTS["sweep.corrupt_results"] += 1
                        outcome = _Attempt(
                            kind="corrupt",
                            error="result payload failed integrity check",
                            probe_next=probe)
                        attempt = won
                    else:
                        return _Resolution(self._commit(spec, payload),
                                           payload, started)
                nxt = attempt + 1
                if nxt >= self.retry.max_attempts:
                    return _Resolution(self._quarantine(spec, nxt, outcome),
                                       started=started)
                FAULT_COUNTS["sweep.retries"] += 1
                self.events.emit("run_retry", attempt=nxt,
                                 reason=outcome.kind, error=outcome.error,
                                 **_job_fields(spec))
                delay = self.retry.delay(nxt)
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

    def _commit(self, spec: RunSpec, payload: dict) -> SweepOutcome:
        """A winning attempt: commit its result, complete the claim,
        emit ``spec_done`` and write the store row, whose
        ``host_seconds`` and span rollup are this attempt's."""
        won = payload["attempt"]
        _commit_result(self.cache, spec, self.config, payload["result"],
                       self.faults, self.events)
        if self.queue is not None:
            self.queue.complete(spec, self.config)
        self.events.emit("spec_done", cached=False, attempts=won + 1,
                         **_job_fields(spec))
        if self.store is not None:
            spans = payload["spans"]
            self.store.record_run(
                spec, payload["result"], config_digest=self.config_digest,
                attempts=won + 1, host_seconds=payload["host_seconds"],
                spans=rollup_spans(spans) if spans else None)
        return SweepOutcome(spec, payload["result"], attempts=won + 1)

    def _quarantine(self, spec: RunSpec, attempts: int,
                    last: _Attempt) -> SweepOutcome:
        """Every attempt failed: record the last failure and give the
        spec up as a :class:`FailedRun`."""
        failure = FailedRun(spec, attempts, last.kind, last.error,
                            last.detail)
        FAULT_COUNTS["sweep.quarantined"] += 1
        self.events.emit("run_failed", attempts=attempts, reason=last.kind,
                         error=last.error, **_job_fields(spec))
        if self.store is not None:
            self.store.record_failure(spec, last.error,
                                      config_digest=self.config_digest,
                                      attempts=attempts)
        if self.queue is not None:
            # Surrender the claim: a peer may have better luck (and if
            # not, it quarantines independently — both hosts converge).
            self.queue.release(spec, self.config)
        return SweepOutcome(spec, None, attempts=attempts, failure=failure)

    # -- attempt strategies --------------------------------------------------

    def _attempt_inline(self, spec: RunSpec, key: str,
                        attempt: int) -> _Attempt:
        """Run one attempt in this process: it emits live into the
        parent's event log (its observers need that) and
        shares the program memo, but traces into a private tracer, as a
        pool worker does, so only a winning attempt's spans reach the
        parent."""
        self.events.emit("spec_dispatch", attempt=attempt,
                         **_job_fields(spec))
        tracer = Tracer(enabled=self.trace_attempts, clock=self.tracer.clock)
        try:
            apply_inline_fault(self.faults, spec.label(), attempt)
            started = time.perf_counter()
            with tracer.span("attempt", span_key=key + "#%d" % attempt,
                             attempt=attempt):
                result = execute_spec(
                    spec,
                    self.config,
                    events=self.events,
                    checkpoint_interval=self.interval_for(spec),
                    profile_phases=self.profile_phases,
                    program_cache=self.program_cache,
                    tracer=tracer,
                )
        except Exception as exc:
            return _Attempt(kind=getattr(exc, "kind", "error"),
                            error=repr(exc), detail=traceback.format_exc())
        return _Attempt(payload={
            "attempt": attempt,
            "result": result,
            "records": [],
            "spans": tracer.export(),
            "host_seconds": time.perf_counter() - started,
        })

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
                    attempt, self.faults, self.trace_attempts,
                    self.events.enabled)
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
                try:
                    done, _pending = await asyncio.wait(
                        {future} | set(abandoned), timeout=timeout,
                        return_when=asyncio.FIRST_COMPLETED)
                except asyncio.CancelledError:
                    # Nothing awaits the attempt any more (Ctrl-C, or a
                    # closed stream): read its outcome when it lands,
                    # or asyncio logs a worker's error as never retrieved.
                    future.add_done_callback(_retrieve)
                    raise
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


def _retrieve(future) -> None:
    """Done-callback of an attempt no one awaits: read its outcome."""
    if not future.cancelled():
        future.exception()


def _count_duplicate(future) -> None:
    """Done-callback of an abandoned attempt: a valid late result that
    lost the race is an ignored duplicate."""
    try:
        if not future.cancelled() and future.exception() is None:
            FAULT_COUNTS["sweep.duplicates_ignored"] += 1
    except asyncio.CancelledError:
        pass

"""ExperimentSession: the unified front end of the experiment service.

One object holds the complete experiment policy:

* *what to run*: :meth:`spec`, or any iterable/generator of jobs —
  :class:`~repro.harness.spec.RunSpec`\\ s, rotation-vs-adversary
  :class:`~repro.security.race.RaceSpec`\\ s and
  :class:`~repro.fleet.FleetSpec`\\ s alike;
* *on what machine*: a :class:`~repro.arch.config.MachineConfig`;
* *how*: workers, intake backlog, retry/fault policy;
* *remembering what*: result cache (sharded, shareable between hosts),
  SQLite run store, span tracer, event log, progress heartbeat;
* *with whom*: an optional :class:`~repro.harness.workqueue.WorkQueue`
  so several sessions on different hosts drain one sweep together.

The three execution surfaces, from largest to smallest:

``stream(specs)``
    The native streaming surface: yields one
    :class:`~repro.harness.sweep.SweepOutcome` per spec in input order,
    consuming the source lazily with bounded in-flight submission —
    a million-spec generator runs in constant memory.  Outcomes are
    *not* memoized (that is the point).

``sweep(specs)`` / ``prefetch(specs)``
    Batch conveniences: materialize a list, deduplicate, return/memoize
    outcomes.

``run(spec)`` / ``emulate(name)``
    Single-result lookups: memo, then disk cache, then execution
    (raising :class:`~repro.harness.sweep.FailedRunError` for
    quarantined specs).

Every surface takes every job kind: a race or fleet point is cached,
retried, quarantined, pooled, traced and stored exactly like a run.

A session always memoizes programs and, whenever its event log is
enabled, checkpoints cycle simulations.  Callers that need an engine
argument a session does not expose — an explicit ``program_cache`` or
``profiler``, an event log without checkpoints — drive
:meth:`AsyncScheduler(config, ...).stream(specs)
<repro.harness.scheduler.AsyncScheduler.stream>` directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from ..arch.config import MachineConfig, default_config
from ..arch.simstats import Checkpoint
from ..emu import EmulationResult
from ..ilr import RandomizedProgram
from ..obs import status
from ..obs.events import EventLog
from ..obs.profile import PhaseProfiler
from ..obs.store import RunStore
from ..obs.trace import Tracer
from .faults import FaultPlan
from .resultcache import ResultCache
from .scheduler import AsyncScheduler
from .spec import RunSpec
from .sweep import (
    FailedRun,
    FailedRunError,
    ProgramKey,
    RetryPolicy,
    SweepOutcome,
    _sweep_key,
    build_program,
)
from .workqueue import DEFAULT_STALE_AFTER, WorkQueue

__all__ = ["ExperimentSession", "EMULATE_BUDGET_FACTOR"]

#: Emulation interprets ~an order of magnitude more guest instructions
#: than a cycle simulation retires in the same reporting window, so
#: emulate specs scale the budget (and checkpoint cadence) by this.
EMULATE_BUDGET_FACTOR = 10


class ExperimentSession:
    """One experiment campaign's policy + execution surfaces.

    Construct with keyword policy, use as a context manager when a
    store/event log should be closed deterministically::

        with ExperimentSession(workers=4, cache_dir=".repro-cache",
                               store_path="runs.sqlite") as session:
            for outcome in session.stream(grid()):   # any generator
                ...
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        *,
        scale: float = 1.0,
        seed: int = 42,
        max_instructions: int = 300_000,
        warmup_instructions: int = 0,
        events: Optional[EventLog] = None,
        progress: bool = False,
        checkpoint_interval: int = 0,
        profile_phases: bool = False,
        workers: int = 0,
        backlog: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        cache_dir: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        store: Optional[RunStore] = None,
        store_path: Optional[str] = None,
        queue=None,
        queue_owner: Optional[str] = None,
        queue_stale_after: float = DEFAULT_STALE_AFTER,
    ):
        self.config = config
        self.scale = scale
        self.seed = seed
        self.max_instructions = max_instructions
        self.warmup_instructions = warmup_instructions
        self.events = events if events is not None else EventLog()
        self.progress = progress
        self.checkpoint_interval = checkpoint_interval
        self.profile_phases = profile_phases
        self.workers = workers
        self.backlog = backlog
        if cache is None and cache_dir:
            cache = ResultCache(cache_dir)
        self.cache = cache
        self.cache_dir = cache_dir
        self.retry = retry
        self.faults = faults
        self.tracer = tracer
        if store is None and store_path:
            store = RunStore(store_path)
        self.store = store
        self.store_path = store_path
        if queue is True:
            if self.cache is None:
                raise ValueError(
                    "a work queue needs a shared cache: pass cache_dir "
                    "(or a ResultCache) alongside queue=True"
                )
            queue = WorkQueue(self.cache, owner=queue_owner,
                              stale_after=queue_stale_after)
        self.queue = queue
        self._programs: Dict[ProgramKey, RandomizedProgram] = {}
        #: results of this session's jobs, any kind: spec -> result.
        self._results: Dict[object, object] = {}
        #: quarantined specs from past sweeps: spec -> FailedRun.
        self.failures: Dict[RunSpec, FailedRun] = {}
        #: host wall-time attribution across harness stages (and, with
        #: ``profile_phases``, each simulation's sampled per-layer split
        #: under ``sim.*``).
        self.profiler = PhaseProfiler(self.events)

    # -- policy ------------------------------------------------------------

    def base_config(self) -> MachineConfig:
        return self.config or default_config()

    def effective_checkpoint_interval(self) -> int:
        """Resolve the checkpointing cadence for cycle simulations."""
        if self.checkpoint_interval:
            return self.checkpoint_interval
        if self.events.enabled or self.progress:
            return max(250, self.max_instructions // 100)
        return 0

    def _interval_for(self, spec) -> int:
        # Only cycle simulations and the emulator checkpoint (race and
        # fleet jobs ignore the cadence); an emulation's budget, and so
        # its cadence, is EMULATE_BUDGET_FACTOR times a cycle run's.
        interval = self.effective_checkpoint_interval()
        if spec.kind == "run" and spec.mode == "emulate":
            interval *= EMULATE_BUDGET_FACTOR
        return interval

    # -- specs -------------------------------------------------------------

    def spec(self, workload: str, mode: str = "baseline",
             drc_entries: int = 0) -> RunSpec:
        """A normalized :class:`RunSpec` inheriting this session's
        seed/scale/budget defaults."""
        budget = self.max_instructions
        warmup = self.warmup_instructions
        if mode == "emulate":
            budget *= EMULATE_BUDGET_FACTOR
            warmup = 0
        return RunSpec(
            workload=workload,
            mode=mode,
            drc_entries=drc_entries,
            seed=self.seed,
            scale=self.scale,
            max_instructions=budget,
            warmup_instructions=warmup,
        ).normalized()

    # -- programs ----------------------------------------------------------

    def program_for(self, spec: RunSpec) -> RandomizedProgram:
        """Randomized program for ``spec``'s workload (memoized)."""
        return build_program(spec.normalized(), self.profiler,
                             self._programs)

    # -- execution ---------------------------------------------------------

    def scheduler(self) -> AsyncScheduler:
        """A fresh :class:`AsyncScheduler` bound to this session's
        policy.  One scheduler serves one stream (its process pools
        live for the duration of the stream)."""
        return AsyncScheduler(
            self.base_config(),
            workers=self.workers,
            backlog=self.backlog,
            cache=self.cache,
            events=self.events,
            profiler=self.profiler,
            checkpoint_interval=self._interval_for,
            profile_phases=self.profile_phases,
            on_checkpoint_for=self._heartbeat,
            program_cache=self._programs,
            retry=self.retry,
            faults=self.faults,
            tracer=self.tracer,
            store=self.store,
            queue=self.queue,
        )

    def stream(self, specs: Iterable[RunSpec]) -> Iterator[SweepOutcome]:
        """Stream outcomes for ``specs`` in input order, lazily.

        The source may be any iterable — a generator over a huge design
        grid is the intended shape: at most ``max(1, workers) +
        backlog`` specs are materialized but unemitted at any moment.
        Outcomes are *not* memoized (quarantine failures are recorded
        in :attr:`failures`).  Closing the iterator mid-stream is safe:
        results committed so far stay in the cache/store, and a re-run
        resumes past them.
        """
        for outcome in self.scheduler().stream(specs):
            if not outcome.ok:
                self.failures[outcome.spec] = outcome.failure
            yield outcome

    def sweep(self, specs: Iterable[RunSpec],
              on_outcome=None) -> List[SweepOutcome]:
        """Batch surface: materialize ``specs``, deduplicate, return one
        outcome per input position (duplicates share one execution).
        ``on_outcome`` fires once per unique spec, in input order."""
        normalized = [spec.normalized() for spec in specs]
        unique = list(dict.fromkeys(normalized))
        outcomes = {
            outcome.spec: outcome
            for outcome in self.scheduler().stream(
                unique, sweep_key=_sweep_key(normalized),
                total=len(normalized))
        }
        for spec, outcome in outcomes.items():
            if not outcome.ok:
                self.failures[spec] = outcome.failure
        ordered = [outcomes[spec] for spec in normalized]
        if on_outcome is not None:
            seen = set()
            for outcome in ordered:
                if outcome.spec not in seen:
                    seen.add(outcome.spec)
                    on_outcome(outcome)
        return ordered

    def run(self, spec):
        """Result for ``spec`` — memo, then disk cache, then execute.

        Returns a :class:`~repro.arch.simstats.SimResult` for simulator
        modes, an :class:`~repro.emu.EmulationResult` for ``emulate``,
        and a race or fleet result for those specs.  Raises
        :class:`~repro.harness.sweep.FailedRunError` when the spec was
        quarantined (every attempt failed, including a fresh round of
        attempts made by this call).
        """
        spec = spec.normalized()
        if spec not in self._results:
            self.prefetch([spec])
        if spec not in self._results and spec in self.failures:
            raise FailedRunError(self.failures[spec])
        return self._results[spec]

    def prefetch(self, specs: Iterable[RunSpec]) -> List[SweepOutcome]:
        """Materialize many specs at once (cache-aware; parallel when
        ``workers >= 2``), populating the in-memory memo.

        This is the fan-out point: ``run_all`` calls it with the whole
        suite's spec list so independent simulations saturate the worker
        pool instead of running serially inside each experiment.
        """
        wanted = [
            spec for spec in dict.fromkeys(s.normalized() for s in specs)
            if spec not in self._results
        ]
        if not wanted:
            return []
        outcomes = self.sweep(
            wanted,
            on_outcome=self._note_outcome if self.progress else None,
        )
        for outcome in outcomes:
            if outcome.ok:
                self._results[outcome.spec] = outcome.result
                self.failures.pop(outcome.spec, None)
            else:
                # Quarantined, never memoized: a later run() retries it
                # and raises FailedRunError if it keeps failing.
                self.failures[outcome.spec] = outcome.failure
        return outcomes

    def _note_outcome(self, outcome: SweepOutcome) -> None:
        if not outcome.ok:
            status("[%s] FAILED after %d attempt(s): %s" % (
                outcome.spec.label(), outcome.attempts,
                outcome.failure.error,
            ))
            return
        status("[%s] %s" % (
            outcome.spec.label(), "cached" if outcome.cached else "done",
        ))

    def _heartbeat(self, spec: RunSpec):
        """Per-checkpoint stderr progress line (``progress=True`` only)."""
        if not self.progress:
            return None
        label = spec.label()

        def _on_checkpoint(checkpoint: Checkpoint) -> None:
            status(
                "[%s] %7d instr  ipc %.3f  il1 %.4f  drc %.4f"
                % (label, checkpoint.instructions, checkpoint.ipc,
                   checkpoint.il1_miss_rate, checkpoint.drc_miss_rate)
            )

        return _on_checkpoint

    # -- software-ILR emulation --------------------------------------------

    def emulate(self, name: str) -> EmulationResult:
        """Run the software-ILR emulator on workload ``name``."""
        return self.run(self.spec(name, "emulate"))

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close owned long-lived resources (store, event sinks)."""
        if self.store is not None:
            self.store.close()
        if self.events is not None:
            self.events.close()

    def __enter__(self) -> "ExperimentSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

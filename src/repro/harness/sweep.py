"""Sweep vocabulary: what every engine path shares.

The harness's experiment suite is sweep-shaped — many independent
(workload, mode, DRC-size) simulations whose results are only combined
at reporting time.  This module holds the execution *vocabulary* shared
by every engine: :func:`execute_spec` (the single definition of "run
this spec"), :func:`build_program`, :func:`_pool_task` (the pool-worker
entry point), :class:`RetryPolicy`, :class:`SweepOutcome`,
:class:`FailedRun`, and the result-integrity/cache-commit helpers.

The engine itself is :class:`repro.harness.scheduler.AsyncScheduler` —
a streaming, bounded-memory scheduler fronted by
:class:`repro.harness.session.ExperimentSession`, whose
:meth:`~repro.harness.session.ExperimentSession.sweep` is the batch
surface: it deduplicates normalized specs, serves anything already in
the on-disk :class:`~repro.harness.resultcache.ResultCache`, and puts
the rest through one retry loop whose attempts run in a process pool
(``workers >= 2``) or inline, merging a winning attempt's observability
(buffered events, trace spans) into the parent.

Every execution path funnels through :func:`execute_spec`, so a pooled
sweep produces **bit-identical** results to a sequential one: each spec
fully determines its program (seeded randomization) and simulation, and
outcomes are merged in input order regardless of completion order.

Fault tolerance (ISSUE 4)
-------------------------

A sweep at scale must survive its own components failing.  The engine
guarantees, under a :class:`RetryPolicy` (on by default):

* **Retries with backoff** — an attempt that raises, times out, or
  returns a corrupt payload is retried up to ``max_attempts`` times
  with exponential backoff; the winning attempt's result is identical
  to a clean run's (execution is deterministic per spec).
* **Soft timeouts** — with ``timeout`` set, an attempt that produces no
  result in time is abandoned (its late result is still accepted if it
  arrives before a retry wins) and retried; if every worker is wedged,
  the pool is recycled.
* **Crash recovery** — a dying worker process breaks the whole
  ``ProcessPoolExecutor``; the engine rebuilds the pool and re-enqueues
  only the specs that were in flight.  Because the culprit cannot be
  identified from the wreckage, crash-involved specs are retried one at
  a time in a separate single-worker *probe* pool, so a poisoned spec
  can only crash itself: innocent bystanders complete on their probe,
  the poisoned spec exhausts its attempts and is **quarantined** as a
  :class:`FailedRun` (captured traceback and all) instead of sinking
  the sweep or wrongly quarantining its neighbours.
* **Result integrity** — workers ship a SHA-256 digest of each result;
  the parent re-derives it and treats a mismatch as a failed attempt.
* **Resumability** — results are committed to the on-disk cache *as
  they complete* (not at merge time), so a killed sweep's finished work
  is preserved and a re-invoked sweep picks up where it stopped.
* **Idempotent observability** — worker snapshots are tagged with their
  attempt id and merged exactly once per spec (the winning attempt
  only; inline attempts likewise trace privately), so a retried spec
  can never double-count events or spans in the parent.

Failures and retries surface through the event log (``run_retry``,
``run_failed``, ``pool_rebuild`` records) and the process-global
:data:`FAULT_COUNTS` counter (``sweep.retries``, ``sweep.timeouts``,
``sweep.quarantined``, ``sweep.pool_rebuilds``, ``sweep.requeued``,
``sweep.corrupt_results``, ``sweep.cache_write_errors``,
``sweep.duplicates_ignored``), which only the parent increments and
``python -m repro.harness`` prints as its fault-handling line.
Deterministic fault injection for all of the above lives in
:mod:`repro.harness.faults`.
"""

from __future__ import annotations

import collections
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..arch.config import MachineConfig, default_config
from ..arch.context import TimeSharedCPU
from ..arch.cpu import CycleCPU
from ..emu import ILREmulator
from ..fleet import datacenter
from ..ilr import RandomizedProgram, RandomizerConfig, make_flow, randomize
from ..obs import profile
from ..obs.events import EventLog, MemorySink
from ..obs.store import RunStore
from ..obs.trace import NULL_TRACER, Tracer
from ..security import race
from ..workloads import build_image
from .faults import FaultPlan, apply_worker_fault
from .spec import RunSpec

__all__ = [
    "execute_spec",
    "build_program",
    "SweepOutcome",
    "RetryPolicy",
    "FailedRun",
    "FailedRunError",
    "DEFAULT_RETRY",
    "FAULT_COUNTS",
]

#: Key of one randomized program build: workload identity + everything
#: the randomizer consumes (seed and overrides).
ProgramKey = Tuple[str, int, float, Tuple[Tuple[str, object], ...]]

#: What a ``corrupt`` fault leaves where the result should be.
_CORRUPT_SENTINEL = "\x00corrupt-result\x00"

#: Fault-handling counts of every sweep in this process, keyed
#: ``sweep.<what>``.  Only the parent increments it.
FAULT_COUNTS = collections.Counter()


def program_key(spec: RunSpec) -> ProgramKey:
    return (spec.workload, spec.seed, spec.scale, spec.randomizer)


def _spec_key(spec: RunSpec) -> str:
    """Content key of a normalized spec — the span key of its trace
    node, and identical to :meth:`RunStore.spec_key` so store rows and
    trace spans cross-reference.  Computed the same way in workers and
    the parent, which is what makes worker-captured spans land on the
    exact ids a sequential sweep would have derived."""
    return RunStore.spec_key(spec)


def _job_fields(spec) -> Dict[str, object]:
    """Fields the engine stamps on its own records of ``spec``
    (``spec_dispatch``, ``spec_done``, retries, failures): the spec's
    label plus its event fields, for every job kind."""
    return dict(spec.event_fields(), label=spec.label())


def _sweep_key(specs: Sequence[RunSpec]) -> str:
    """Content key of a whole sweep: the ordered spec-key list."""
    digest = hashlib.sha256(
        "|".join(_spec_key(spec) for spec in specs).encode()
    ).hexdigest()[:16]
    return "sweep:" + digest


def build_program(
    spec: RunSpec,
    program_cache: Optional[Dict[ProgramKey, RandomizedProgram]] = None,
    tracer: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
) -> RandomizedProgram:
    """Build + randomize the workload a spec names (memoized).

    Deterministic in ``(workload, seed, scale, randomizer overrides)``,
    which is what makes worker-side rebuilds safe: a program built in a
    pool worker is byte-identical to one built in the parent.

    The ``build``/``randomize`` spans are recorded on *every* call —
    memo hits included (near-zero duration) — because memo residency is
    execution-placement-dependent (the parent memoizes across specs;
    each pool worker has its own memo) and the span *tree* must be
    identical regardless of where a spec ran.  Only a miss logs them as
    ``phase`` records to ``events``: the log counts work done.
    """
    tracer = tracer or NULL_TRACER
    key = program_key(spec)
    if program_cache is not None and key in program_cache:
        with tracer.span("build"):
            pass
        with tracer.span("randomize"):
            pass
        return program_cache[key]
    with tracer.phase("build", events, workload=spec.workload):
        image = build_image(spec.workload, scale=spec.scale)
    with tracer.phase("randomize", events, workload=spec.workload):
        program = randomize(image, RandomizerConfig(
            seed=spec.seed, **dict(spec.randomizer)))
    if program_cache is not None:
        program_cache[key] = program
    return program


@contextmanager
def _main_phase(name: str, tracer: Tracer, events: EventLog,
                profile_phases: bool, **fields):
    """The phase around a job's simulation (or emulation); with
    ``profile_phases`` the sampler also splits its host time by layer
    into ``sim.<layer>`` child phases."""
    with tracer.phase(name, events, **fields):
        if profile_phases:
            with profile.sample(tracer, events, **fields):
                yield
        else:
            yield


def execute_spec(
    spec: RunSpec,
    config: Optional[MachineConfig] = None,
    *,
    events: Optional[EventLog] = None,
    checkpoint_interval: int = 0,
    profile_phases: bool = False,
    program_cache: Optional[Dict[ProgramKey, RandomizedProgram]] = None,
    tracer: Optional[Tracer] = None,
):
    """Execute one spec from scratch (no caches consulted).

    The single definition of "run this spec" shared by the sequential
    runner and the pool workers.  Returns a
    :class:`~repro.arch.simstats.SimResult` for simulator modes, an
    :class:`~repro.emu.EmulationResult` for ``emulate``, a
    :class:`~repro.security.race.RaceResult` for a race spec and a
    :class:`~repro.fleet.FleetResult` for a fleet spec.
    """
    spec = spec.normalized()
    config = config or default_config()
    events = events if events is not None else EventLog()
    tracer = tracer or NULL_TRACER
    if spec.kind != "run":
        # Looked up on their modules at call time (never held in a
        # table), so wrappers installed on the module attributes see
        # every race and fleet run.
        with _main_phase("simulate", tracer, events, profile_phases,
                         **spec.event_fields()):
            if spec.kind == "race":
                return race.run_race(spec, events=events, tracer=tracer,
                                     config=config)
            return datacenter.run_fleet(spec, config=config, events=events)
    program = build_program(spec, program_cache, tracer, events)

    if spec.mode == "emulate":
        with _main_phase("emulate", tracer, events, profile_phases,
                         workload=spec.workload):
            return ILREmulator(
                program,
                max_instructions=spec.max_instructions,
                events=events,
                checkpoint_interval=checkpoint_interval,
                event_fields=spec.event_fields(),
            ).run()

    image = program.image_for(spec.mode)
    flow = make_flow(spec.mode, program)
    overrides = spec.machine
    if spec.mode == "vcfr":
        overrides = (("drc.entries", spec.drc_entries),) + overrides
    if overrides:
        config = config.with_overrides(overrides)
    if spec.quantum:
        # The program alone, switched out and back in every quantum:
        # each quantum starts on a flushed DRC and TLBs.
        shared = TimeSharedCPU([(spec.workload, image, flow)], config,
                               quantum_instructions=spec.quantum,
                               events=events,
                               event_fields=spec.event_fields())
        with _main_phase("simulate", tracer, events, profile_phases,
                         workload=spec.workload, mode=spec.mode):
            return shared.run(spec.max_instructions).processes[0].result
    cpu = CycleCPU(image, flow, config, events=events,
                   checkpoint_interval=checkpoint_interval,
                   event_fields=spec.event_fields())
    with _main_phase("simulate", tracer, events, profile_phases,
                     workload=spec.workload, mode=spec.mode):
        return cpu.run(spec.max_instructions, spec.warmup_instructions)


# -- fault-tolerance vocabulary ----------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the sweep engine fights for each spec.

    ``max_attempts`` bounds total executions of one spec (first try
    included); ``timeout`` is a *soft* per-attempt deadline in seconds
    (None disables timeout handling); retry *n* is delayed by
    ``backoff * backoff_factor ** (n - 1)`` seconds.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff: float = 0.05
    backoff_factor: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff * self.backoff_factor ** max(0, attempt - 1)


#: The default policy: three attempts, mild backoff, no timeout (a
#: timeout needs workload knowledge the engine does not have).
DEFAULT_RETRY = RetryPolicy()


@dataclass
class FailedRun:
    """A quarantined spec: every attempt failed; the sweep moved on."""

    spec: RunSpec
    attempts: int
    #: failure class of the final attempt: ``error`` (task raised),
    #: ``crash`` (worker process died), ``timeout``, or ``corrupt``.
    kind: str
    error: str
    traceback: str = ""

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.as_dict(),
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
            "traceback": self.traceback,
        }


class FailedRunError(RuntimeError):
    """Raised when a caller demands the result of a quarantined spec."""

    def __init__(self, failure: FailedRun):
        super().__init__(
            "%s failed after %d attempt(s) [%s]: %s"
            % (failure.spec.label(), failure.attempts, failure.kind,
               failure.error)
        )
        self.failure = failure


@dataclass
class SweepOutcome:
    """One spec's result and how it was produced (a worker's records
    and spans are replayed into the parent's log and tracer instead)."""

    spec: RunSpec
    result: object
    #: True when served from the on-disk cache (no execution happened).
    cached: bool = False
    #: executions it took to produce (or give up on) this outcome.
    attempts: int = 1
    #: set when the spec was quarantined; ``result`` is then None.
    failure: Optional[FailedRun] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _result_digest(result) -> str:
    """Integrity digest of a result payload.

    Canonical JSON over ``as_dict()`` — :class:`~repro.arch.simstats.
    SimResult`'s full serialization, :class:`~repro.emu.EmulationResult`'s
    observable-field view (raw pickle bytes are not canonical: identity
    sharing inside the state graph does not survive a process-boundary
    round trip, so emulation results digest their architectural outcome
    and host-cost numbers instead).  Computed in the worker before the
    payload crosses the process boundary and re-derived by the parent on
    receipt.
    """
    as_dict = getattr(result, "as_dict", None)
    if callable(as_dict):
        view = as_dict()
    else:
        view = {"type": type(result).__name__, "repr": repr(result)}
    payload = json.dumps(view, sort_keys=True, default=repr).encode()
    return hashlib.sha256(payload).hexdigest()


def _commit_result(cache, spec, config, result, faults, events) -> None:
    """Commit one finished result to the on-disk cache (non-fatal).

    Called as results complete — not at merge time — so a sweep killed
    mid-run keeps everything already finished.  A failing write (disk
    full, permissions, injected ``cachefail``) must never sink the
    sweep: the result is still returned in-memory, the spec simply gets
    recomputed on resume.
    """
    if cache is None:
        return
    try:
        if faults is not None and faults.cache_write_fails(spec.label()):
            raise OSError("injected cache write failure")
        cache.put(spec, config, result)
    except OSError as exc:
        FAULT_COUNTS["sweep.cache_write_errors"] += 1
        events.status("cache write failed", error=str(exc),
                      **_job_fields(spec))


# -- pool worker -------------------------------------------------------------

#: Per-worker-process program memo: tasks for the same workload landing
#: on the same worker skip the rebuild, mirroring the parent's memo.
_WORKER_PROGRAMS: Dict[ProgramKey, RandomizedProgram] = {}


def _pool_task(spec, config: MachineConfig,
               checkpoint_interval: int, profile_phases: bool,
               attempt: int = 0, faults: Optional[FaultPlan] = None,
               trace: bool = False, events: bool = False):
    """Execute one attempt of ``spec`` (any job kind) in a pool worker.

    When ``events`` is set (the parent reads its log), the worker
    buffers its records (``phase`` records included) in a
    :class:`MemorySink` (file sinks are single-writer; see
    :meth:`EventLog.replay`).  Otherwise it logs nothing, as an inline
    attempt into a null log does.  The records, the exported trace
    spans (when ``trace``), the attempt id, the attempt's host seconds,
    and a result-integrity digest ride back with the result for the
    parent to verify and merge exactly once.
    Module-level so the pool can pickle it.
    """
    action = apply_worker_fault(faults, spec.label(), attempt)
    sink = MemorySink()
    log = EventLog(sink if events else None)
    # The worker roots its capture at the attempt span, keyed exactly as
    # the sequential path keys it, so the parent's adopt() grafts it
    # onto the same ids an inline sweep would have derived.
    tracer = Tracer(enabled=trace)
    started = time.perf_counter()
    with tracer.span("attempt", span_key=_spec_key(spec) + "#%d" % attempt,
                     attempt=attempt):
        result = execute_spec(
            spec,
            config,
            events=log,
            checkpoint_interval=checkpoint_interval,
            profile_phases=profile_phases,
            program_cache=_WORKER_PROGRAMS,
            tracer=tracer,
        )
    host_seconds = time.perf_counter() - started
    digest = _result_digest(result)
    if action == "corrupt":
        result = _CORRUPT_SENTINEL
    return {
        "attempt": attempt,
        "result": result,
        "records": sink.records,
        "spans": tracer.export(),
        "host_seconds": host_seconds,
        "digest": digest,
    }


# -- engine ------------------------------------------------------------------


def _interval_fn(checkpoint_interval) -> Callable[[RunSpec], int]:
    if callable(checkpoint_interval):
        return checkpoint_interval
    return lambda spec: int(checkpoint_interval)

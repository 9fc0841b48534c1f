"""RunSpec-keyed workload execution: the legacy ``Runner`` face.

.. deprecated:: ISSUE 7
    :class:`Runner` is the historical entry point, kept as an exact
    shim: it subclasses :class:`~repro.harness.session.
    ExperimentSession` (the unified front end of the experiment
    service) and adds nothing but the original dataclass constructor
    and the pre-RunSpec ``sim()``/``program()`` shims.  New code should
    construct an ``ExperimentSession`` directly — it exposes the same
    ``spec``/``run``/``prefetch``/``emulate`` surface plus the
    streaming ``stream()``/``sweep()`` entry points, intake ``backlog``
    control, and multi-host ``queue`` draining.

Every run is identified by a frozen :class:`~repro.harness.spec.
RunSpec` — the same currency used by the streaming scheduler
(:mod:`repro.harness.scheduler`), the persistent result cache
(:mod:`repro.harness.resultcache`), CLI flags, and event records — so
the full per-paper suite performs each distinct simulation exactly once
per process, and (with ``cache_dir``) once *ever* per machine model and
code version.

Typical use::

    runner = Runner(workers=4, cache_dir=".repro-cache")
    runner.prefetch(specs)             # parallel, cache-aware fan-out
    result = runner.run(runner.spec("gcc", "vcfr", drc_entries=64))

The runner is also the harness's observability anchor: every stage
(image build, randomization, cycle simulation, emulation) is timed by a
:class:`~repro.obs.profile.PhaseProfiler`, simulations emit periodic
progress checkpoints into the shared
:class:`~repro.obs.events.EventLog`, and ``progress=True`` turns those
checkpoints into live heartbeat lines on stderr.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..arch.config import MachineConfig
from ..arch.simstats import SimResult
from ..ilr import RandomizedProgram
from ..obs.events import EventLog
from ..obs.store import RunStore
from ..obs.trace import Tracer
from .faults import FaultPlan
from .resultcache import ResultCache
from .session import EMULATE_BUDGET_FACTOR, ExperimentSession
from .spec import RunSpec
from .sweep import FailedRun, ProgramKey, RetryPolicy

__all__ = ["Runner", "EMULATE_BUDGET_FACTOR"]


@dataclass
class Runner(ExperimentSession):
    """Shared execution context for all experiments (legacy shim).

    Exactly an :class:`~repro.harness.session.ExperimentSession` with
    the historical dataclass constructor; see the module docstring for
    the migration note.
    """

    scale: float = 1.0
    seed: int = 42
    max_instructions: int = 300_000
    warmup_instructions: int = 0
    config: Optional[MachineConfig] = None

    #: structured event log shared by every run (None -> null log).
    events: Optional[EventLog] = None
    #: print a heartbeat line per simulation checkpoint (stderr).
    progress: bool = False
    #: retired instructions between checkpoints; 0 = auto (about 100
    #: samples over a full-budget run) whenever events or progress are
    #: active, disabled otherwise.
    checkpoint_interval: int = 0
    #: attribute host time to CPU pipeline phases (opt-in: the profiled
    #: loop costs a few perf_counter calls per instruction).
    profile_phases: bool = False

    #: worker processes for :meth:`prefetch` sweeps (0/1 = sequential).
    workers: int = 0
    #: directory for the persistent result cache (None = in-memory only).
    cache_dir: Optional[str] = None
    #: the cache instance; built from ``cache_dir`` unless injected.
    cache: Optional[ResultCache] = None
    #: retry/timeout policy for sweeps (None = engine default: three
    #: attempts with backoff, no timeout).
    retry: Optional[RetryPolicy] = None
    #: deterministic fault-injection plan (None = no injected faults).
    faults: Optional[FaultPlan] = None
    #: span tracer threaded through every sweep (None = tracing off).
    tracer: Optional[Tracer] = None
    #: SQLite run store recording completed runs (built from
    #: ``store_path`` unless injected; None = no store).
    store: Optional[RunStore] = None
    #: path for the run store (None = no store).
    store_path: Optional[str] = None

    _programs: Dict[ProgramKey, RandomizedProgram] = field(
        default_factory=dict
    )
    _results: Dict[object, object] = field(default_factory=dict)
    #: quarantined specs from past sweeps: spec -> FailedRun.
    failures: Dict[RunSpec, FailedRun] = field(default_factory=dict)

    def __post_init__(self):
        # The dataclass __init__ assigned the fields; resolve them into
        # live session state (cache/store/queue/profiler) exactly as
        # ExperimentSession.__init__ would.
        self._finish_init()

    # -- deprecated pre-RunSpec API ----------------------------------------

    def sim(self, name: str, mode: str, drc_entries: int = 128) -> SimResult:
        """Deprecated: use ``run(runner.spec(name, mode, drc_entries))``.

        Kept as a thin shim (it builds the equivalent :class:`RunSpec`)
        so pre-RunSpec callers keep working during migration.
        """
        warnings.warn(
            "Runner.sim(name, mode, drc_entries) is deprecated and will "
            "be removed in the release after the ExperimentSession API; "
            "use Runner.run(runner.spec(name, mode, drc_entries))",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.run(self.spec(name, mode, drc_entries))

    def program(self, name: str) -> RandomizedProgram:
        """Deprecated: use ``program_for(runner.spec(name))``."""
        warnings.warn(
            "Runner.program(name) is deprecated and will be removed in "
            "the release after the ExperimentSession API; use "
            "Runner.program_for(runner.spec(name))",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.program_for(self.spec(name))

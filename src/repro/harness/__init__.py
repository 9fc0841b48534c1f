"""Experiment harness: one reproduction per paper table/figure.

Usage::

    from repro.harness import ExperimentSession, run_all, format_report
    session = ExperimentSession()      # paper machine parameters
    results = run_all(session)         # every table and figure
    print(format_report(results))

Scale it out with a worker pool and a persistent (sharded) result
cache, or stream an arbitrarily large spec generator in bounded
memory::

    session = ExperimentSession(workers=4, cache_dir=".repro-cache")
    results = run_all(session)         # parallel sweep; warm reruns
                                       # perform zero simulations
    for outcome in session.stream(grid()):   # generator-fed streaming
        ...

The one engine-level knob a session does not expose, an explicit
program memo, is an argument of
``AsyncScheduler(config, ...).stream(specs)``.

Or from the command line::

    python -m repro.harness                       # full report
    python -m repro.harness fig12                 # a single experiment
    python -m repro.harness --workers 4 --cache-dir .repro-cache
"""

from . import paper
from .experiments import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    run_all,
    suite_specs,
)
from .faults import FaultPlan, InjectedFault
from .report import format_report, format_result, format_table
from .resultcache import ResultCache
from .scheduler import AsyncScheduler
from .session import ExperimentSession
from .spec import RunSpec, config_fingerprint
from .workqueue import WorkQueue
from .sweep import (
    FailedRun,
    FailedRunError,
    RetryPolicy,
    SweepOutcome,
    execute_spec,
)

__all__ = [
    "ExperimentSession",
    "AsyncScheduler",
    "WorkQueue",
    "RunSpec",
    "ResultCache",
    "SweepOutcome",
    "RetryPolicy",
    "FailedRun",
    "FailedRunError",
    "FaultPlan",
    "InjectedFault",
    "execute_spec",
    "suite_specs",
    "config_fingerprint",
    "ExperimentResult",
    "ALL_EXPERIMENTS",
    "run_all",
    "format_report",
    "format_result",
    "format_table",
    "paper",
]
